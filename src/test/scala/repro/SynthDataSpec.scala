package repro

import repro.data.SeasonalGen

/** The seasonal series generator as a DataFrame source. */
class SynthDataSpec extends SparkSpec {

  test("seasonalSeries exposes the paper's dataset schema as a DataFrame") {
    val df = SynthData.seasonalSeries(spark, "SC")
    assert(df.columns.toSeq == Seq("series", "pos", "value"))
    val spec = SeasonalGen.sc()
    assert(df.count() == spec.nSeries.toLong * spec.fineLength)
  }
}
