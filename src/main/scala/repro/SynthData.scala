package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic input data as Spark DataFrames. Generators are deterministic
  * in their seed, so the DuckDB oracle sees identical input.
  */
object SynthData {

  /** Seasonal multivariate time series for the STPM reproduction — the
    * schema this paper evaluates on: (series, pos, value) rows of one of
    * the RE / SC / INF / HFM preset datasets (see
    * [[repro.data.SeasonalGen]] for the planted-pattern semantics).
    */
  def seasonalSeries(spark: SparkSession, preset: String = "INF",
                     seed: Long = 42L): DataFrame = {
    val spec = repro.data.SeasonalGen.preset(preset, seed)
    repro.core.SparkSTPM.rawDF(spark, repro.data.SeasonalGen.rawSeries(spec))
  }
}
