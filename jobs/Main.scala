package repro.jobs

import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.SeasonalGen
import repro.exp.{Experiments, TableResult}

/** spark-submit entrypoint: `repro.jobs.Main <name> [args]` prints one
  * evaluation table, named as in `bench/results/`, or runs the Spark
  * pipeline demo. Only `pipeline` starts a SparkSession; the table kernels
  * run on the driver.
  */
object Main {

  /** Table name → runner over the optional arguments. */
  private val tables = ListMap[String, Seq[String] => Seq[TableResult]](
    "tableV" -> (_ => Seq(Experiments.tableV())),
    "tableVII" -> (_ => Seq(Experiments.tableVII())),
    "tableVIII" -> (_ => Seq(Experiments.tableVIII())),
    // Optional args: dataset names (default all four).
    "tableIX_X" -> (args => orDefault(args, "RE", "INF", "SC", "HFM").map(Experiments.patternCounts(_))),
    // Optional args: base datasets; one mining pass feeds XI and XII.
    "tableXI_XII" -> (args => orDefault(args, "RE", "INF").flatMap { b =>
      val cells = Experiments.scaledAstpm(b)
      Seq(Experiments.tableXI(b, cells), Experiments.tableXII(b, cells))
    }),
    "tableXIX_XX" -> (_ => Seq(Experiments.epsilonSensitivity())),
    "figRuntimeMemory" -> (_ => Seq(Experiments.runtimeMemory())),
    "figPruningAblation" -> (_ => Seq(Experiments.pruningAblation())))

  private val usage =
    (tables.keys.toSeq :+ "pipeline [dataset] [minSeason]").mkString(
      "usage: repro.jobs.Main <name> [args]; names:\n  ", "\n  ", "")

  private def orDefault(args: Seq[String], default: String*): Seq[String] =
    if (args.nonEmpty) args else default

  def main(args: Array[String]): Unit = args.toList match {
    case "pipeline" :: rest => println(pipeline(rest).render)
    case name :: rest if tables.contains(name) => tables(name)(rest).foreach(t => println(t.render))
    case _ =>
      System.err.println(usage)
      sys.exit(2)
  }

  /** End-to-end Spark pipeline demo: generate a preset as a raw DataFrame,
    * run Phase 1 (symbolize → sequence mapping → instances) through
    * Catalyst, mine with the distributed level-2 fan-out, and list the
    * frequent seasonal patterns. Args: [dataset] [minSeason].
    */
  private def pipeline(args: Seq[String]): TableResult = {
    val name = args.headOption.getOrElse("INF")
    val minSeason = args.lift(1).map(_.toInt).getOrElse(8)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"stpm-$name")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val spec = SeasonalGen.preset(name)
      val raw = SparkSTPM.rawDF(spark, SeasonalGen.rawSeries(spec))
      val cuts = (0 until spec.nSeries)
        .map(i => SeasonalGen.seriesName(i) -> SeasonalGen.Cuts).toMap
      val sym = SparkSTPM.symbolize(raw, cuts)
      val inst = SparkSTPM.toInstances(sym, spec.m)
      val db = SparkSTPM.collectSeqDB(inst, spec.m)
      val cfg = STPMConfig(
        Experiments.cfgOf(db.size, name, 0.4, 0.75, minSeason), maxK = 3)
      val res = SparkSTPM.mine(spark, db, cfg)
      val rows = res.frequent.sortBy(p => (-p.k, -p.support.size)).take(30).toVector
        .map(p => Vector(p.key.render, p.k.toString, p.support.size.toString,
          p.seasonCount(cfg.season).toString))
      TableResult(
        s"Distributed STPM on $name (minSeason=$minSeason): " +
          s"${res.frequent.size} frequent seasonal patterns",
        Vector("pattern", "k", "|SUP|", "#seasons"), rows)
    } finally spark.stop()
  }
}
