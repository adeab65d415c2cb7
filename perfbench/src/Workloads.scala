package perfbench

import java.security.MessageDigest
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.SeasonalGen
import repro.exp.Experiments

/** What one mining job produced: the size and hash of its output, and the
  * work counters it reported. Two runs of the same code on the same seed
  * must produce equal outcomes.
  */
final case class Outcome(patterns: Int, hash: String, counters: Map[String, Long]) {
  /** The output alone, without the work counters: what must not change
    * between builds for a given seed.
    */
  def fingerprint: String =
    s"$patterns patterns, hash $hash" + counters.get("kept_series").fold("")(n => s", $n series kept")

  def render: String =
    s"$fingerprint, " + counters.toVector.sorted.map { case (k, v) => s"$k=$v" }.mkString(" ")
}

object Outcome {
  /** Hash of the sorted rendered pattern keys with their support sets,
    * plus any extra output lines (A-STPM's kept series).
    */
  def of(res: MiningResult, extraOutput: Seq[String] = Nil,
         extraCounters: Map[String, Long] = Map.empty): Outcome = {
    val lines = res.frequent.map(p => p.key.render + "|" + p.support.mkString(",")).sorted ++ extraOutput
    val digest = MessageDigest.getInstance("SHA-256").digest(lines.mkString("\n").getBytes("UTF-8"))
    Outcome(res.frequent.size, digest.take(8).map("%02x".format(_)).mkString,
      counters(res.stats) ++ extraCounters)
  }

  def counters(s: MiningStats): Map[String, Long] =
    Map("events" -> s.candidateEvents.toLong, "checks" -> s.relationChecks,
      "tuples" -> s.occurrences, "peak_entries" -> s.peakEntries) ++
      s.candidateGroups.map { case (k, n) => s"level${k}_groups" -> n.toLong } ++
      s.candidatePatterns.map { case (k, n) => s"level${k}_patterns" -> n.toLong }
}

/** One benchmark workload: inputs built from a seed during set-up, and a
  * mining job that the benchmark times and checks.
  */
abstract class Workload(val name: String, val defaultSeed: Long) {
  /** The job's outcome at `defaultSeed`, pinned from a reference run. */
  def pinned: Outcome
  /** The Spark master, or "none". */
  def sparkMaster: String = "none"
  /** Build the inputs from scratch; callable repeatedly. `scale` shrinks
    * the number of coarse granules, for the warm-up.
    */
  def setup(seed: Long, scale: Double, t: Tracer): Unit
  /** The timed mining job. */
  def job(t: Tracer): Outcome
  /** Completes an outcome outside the timed region. */
  def settle(o: Outcome): Outcome = o
  /** Per-layer metrics, after the traced job `job` (span "job" in `t`). */
  def layers(t: Tracer, job: Outcome): Map[String, Double]
  def close(): Unit = ()
}

object Workload {
  def named(name: String): Workload = name match {
    case "estpm-re"    => new EstpmRe
    case "astpm-syn72" => new AstpmSyn72
    case "spark-inf"   => new SparkInf
    case other => throw new IllegalArgumentException(s"unknown workload '$other'")
  }

  /** The configuration every workload mines with: maxPeriod 0.4%,
    * minDensity 0.75%, minSeason 8, maxK 3, all pruning on.
    */
  def config(db: SeqDB, preset: String): STPMConfig =
    STPMConfig(Experiments.cfgOf(db.size, preset, 0.4, 0.75, 8), maxK = 3)

  /** Local Phase 1: generate, symbolize with the generator's cut points,
    * fold into D_SEQ.
    */
  def localPhase1(raw: Vector[(String, Vector[Double])], m: Int, t: Tracer): (SymbolicDB, SeqDB) = {
    val syb = t.span("core.symbolize")(SymbolicDB(raw.map { case (id, vs) =>
      SymbolicSeries(id, Symbolizer.thresholds(vs, SeasonalGen.Cuts))
    }))
    (syb, t.span("core.seqdb")(SequenceDB.build(syb, m)))
  }

  def scaled(spec: SeasonalGen.Spec, scale: Double): SeasonalGen.Spec =
    spec.copy(nCoarse = math.round(spec.nCoarse * scale).toInt)

  def timed[A](t: Tracer, name: String)(body: => A): (A, Double) = {
    val a = t.span(name)(body)
    (a, t.last(name))
  }

  /** Rungs 1 and 2 of the ladder: the job mined with maxK = 1 and 2.
    * `mineAt(k)` returns the stats and the seconds of the call that are not
    * mining (A-STPM's MI stage), which are left out of the rung's time.
    */
  def lowerRungs(t: Tracer, span: String)(mineAt: Int => (MiningStats, Double))
      : Map[Int, (Map[String, Long], Double)] =
    (1 to 2).map { k =>
      val ((stats, notMining), s) = timed(t, s"$span.k$k")(mineAt(k))
      k -> (Outcome.counters(stats), s - notMining)
    }.toMap

  /** Level metrics from the same mining job run with maxK = 1, 2 (and 3):
    * a level's time and its checks and tuples are the differences between
    * consecutive rungs. Each rung is (counters, mining seconds).
    */
  def ladder(rungs: Map[Int, (Map[String, Long], Double)]): Map[String, Double] =
    (2 to 3).filter(rungs.contains).flatMap { k =>
      val (c, s) = rungs(k)
      val (pc, ps) = rungs(k - 1)
      Seq(s"core.level${k}_s" -> (s - ps),
        s"core.level${k}_groups" -> c.getOrElse(s"level${k}_groups", 0L).toDouble,
        s"core.level${k}_patterns" -> c.getOrElse(s"level${k}_patterns", 0L).toDouble,
        s"core.level${k}_checks" -> (c("checks") - pc("checks")).toDouble,
        s"core.level${k}_tuples" -> (c("tuples") - pc("tuples")).toDouble)
    }.toMap

  /** Counters of the full job: peak entries and frequent patterns per
    * candidate pattern.
    */
  def jobCounters(o: Outcome): Map[String, Double] = {
    val candidates = o.counters("events") + o.counters.collect {
      case (k, n) if k.endsWith("_patterns") => n
    }.sum
    Map("core.peak_entries" -> o.counters("peak_entries").toDouble,
      "core.frequent_per_candidate" -> o.patterns.toDouble / math.max(1L, candidates))
  }

  def phase1Layers(t: Tracer): Map[String, Double] =
    Map("data.gen_s" -> t.last("data.gen"), "core.symbolize_s" -> t.last("core.symbolize"),
      "core.seqdb_s" -> t.last("core.seqdb"))

  def hlh1Layers(db: SeqDB, cfg: STPMConfig, t: Tracer): Map[String, Double] = {
    val (h, s) = timed(t, "core.hlh1")(HLH1.build(db, cfg.season, cfg.apriori))
    Map("core.hlh1_s" -> s, "core.hlh1_entries" -> h.entryCount.toDouble)
  }

  def astpmOutcome(r: ASTPM.Result): Outcome =
    Outcome.of(r.mining, extraOutput = Seq("kept:" + r.keptSeries.toVector.sorted.mkString(",")),
      extraCounters = Map("mi_pairs" -> r.nmiBySeriesPair.size.toLong,
        "correlated_pairs" -> r.correlatedPairs.size.toLong,
        "kept_series" -> r.keptSeries.size.toLong))

  /** A-STPM's MI stage; the mining part is the job's wall time minus it. */
  def miLayers(r: ASTPM.Result, wallSeconds: Double): Map[String, Double] = {
    val mi = r.nmiMillis / 1000.0
    Map("core.mi_s" -> mi, "core.mi_pairs" -> r.nmiBySeriesPair.size.toDouble,
      "core.astpm_kept_series" -> r.keptSeries.size.toDouble,
      "core.astpm_mining_s" -> (wallSeconds - mi))
  }
}

import Workload._

/** E-STPM on the RE analog (1,460 granules x 21 series). Level k >= 3
  * dominates the time and holds the peak HLH entries; no MI, no Spark.
  */
final class EstpmRe extends Workload("estpm-re", 42L) {
  val pinned: Outcome = Outcome(16, "6934425745f27b98", Map(
    "checks" -> 5381906L, "peak_entries" -> 9862833L, "level3_groups" -> 9875L, "level3_patterns" -> 10000L))

  private var syb: SymbolicDB = _
  private var db: SeqDB = _
  private var cfg: STPMConfig = _

  def setup(seed: Long, scale: Double, t: Tracer): Unit = {
    val spec = scaled(SeasonalGen.re(seed), scale)
    val raw = t.span("data.gen")(SeasonalGen.rawSeries(spec))
    val (s, d) = localPhase1(raw, spec.m, t)
    syb = s; db = d; cfg = config(db, "RE")
  }

  def job(t: Tracer): Outcome = Outcome.of(t.span("core.stpm.mine")(STPM.mine(db, cfg)))

  def layers(t: Tracer, job: Outcome): Map[String, Double] = {
    val full = t.last("job")
    val rungs = lowerRungs(t, "core.stpm.mine")(k => (STPM.mine(db, cfg.copy(maxK = k)).stats, 0.0))
    val lvl = ladder(rungs + (3 -> (job.counters, full)))
    val (a, aS) = timed(t, "core.astpm.mine")(ASTPM.mine(syb, db, cfg))
    phase1Layers(t) ++ hlh1Layers(db, cfg, t) ++ lvl ++ jobCounters(job) ++ miLayers(a, aS) ++
      Map("core.level3_share" -> lvl("core.level3_s") / full)
  }
}

/** A-STPM on 72 synthetic INF-like series (800 granules). The MI stage
  * takes most of the time; level 3 covers few groups.
  */
final class AstpmSyn72 extends Workload("astpm-syn72", 46L) {
  val pinned: Outcome = Outcome(74, "7ccb111a4f78e8be", Map("kept_series" -> 35L))

  private var syb: SymbolicDB = _
  private var db: SeqDB = _
  private var cfg: STPMConfig = _

  def setup(seed: Long, scale: Double, t: Tracer): Unit = {
    val spec = scaled(SeasonalGen.scaled("INF", 72, 800, seed), scale)
    val raw = t.span("data.gen")(SeasonalGen.rawSeries(spec))
    val (s, d) = localPhase1(raw, spec.m, t)
    syb = s; db = d; cfg = config(db, "INF")
  }

  private var last: ASTPM.Result = _

  def job(t: Tracer): Outcome = {
    last = t.span("core.astpm.mine")(ASTPM.mine(syb, db, cfg))
    astpmOutcome(last)
  }

  def layers(t: Tracer, job: Outcome): Map[String, Double] = {
    val full = t.last("job")
    val traced = last
    val rungs = lowerRungs(t, "core.astpm.mine") { k =>
      val r = ASTPM.mine(syb, db, cfg.copy(maxK = k))
      (r.mining.stats, r.nmiMillis / 1000.0)
    }
    val lvl = ladder(rungs + (3 -> (job.counters, full - traced.nmiMillis / 1000.0)))
    phase1Layers(t) ++ hlh1Layers(db, cfg, t) ++ lvl ++ jobCounters(job) ++ miLayers(traced, full) ++
      Map("core.level3_share" -> lvl("core.level3_s") / full)
  }
}

/** The Spark pipeline on the INF analog (608 granules x 25 series):
  * Catalyst Phase 1 over a cached raw frame, `collectSeqDB`, then
  * `SparkSTPM.mine` (level 2 over partitions, level 3 on the driver).
  */
final class SparkInf extends Workload("spark-inf", 44L) {
  /** Equal to the local E-STPM outcome on the same INF database. */
  val pinned: Outcome = Outcome(28, "0ba4b21892097f9b", Map("checks" -> 4089202L))

  private val threads = math.min(4, Runtime.getRuntime.availableProcessors)
  override val sparkMaster: String = s"local[$threads]"

  private var spark: SparkSession = _
  private var meter: SparkTaskMeter = _
  private var spec: SeasonalGen.Spec = _
  private var raw: Vector[(String, Vector[Double])] = _
  private var rawDF: DataFrame = _
  private var cuts: Map[String, Vector[Double]] = _
  private var iteration = 0
  private var group = ""
  private var db: SeqDB = _

  /** The session is built once, by the first set-up (the warm-up's), so the
    * timed jobs run in the session the warm-up used. Later set-ups replace
    * the cached raw frame.
    */
  def setup(seed: Long, scale: Double, t: Tracer): Unit = {
    if (spark == null) startSession(t)
    if (rawDF != null) rawDF.unpersist(blocking = true)
    spec = scaled(SeasonalGen.inf(seed), scale)
    raw = t.span("data.gen")(SeasonalGen.rawSeries(spec))
    cuts = raw.map(_._1 -> SeasonalGen.Cuts).toMap
    rawDF = t.span("spark.cache_raw") {
      val df = SparkSTPM.rawDF(spark, raw).cache()
      df.count()
      df
    }
  }

  private def startSession(t: Tracer): Unit = {
    // Scratch files stay under java.io.tmpdir, which the launcher points
    // into the build directory.
    val tmp = System.getProperty("java.io.tmpdir")
    spark = t.span("spark.session")(SparkSession.builder
      .master(sparkMaster)
      .appName(s"perfbench-$name")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", (2 * threads).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", tmp + "/spark-local")
      .config("spark.sql.warehouse.dir", tmp + "/spark-warehouse")
      .getOrCreate())
    spark.sparkContext.setLogLevel("WARN")
    meter = new SparkTaskMeter
    spark.sparkContext.addSparkListener(meter)
  }

  def job(t: Tracer): Outcome = {
    iteration += 1
    group = s"iteration-$iteration"
    val sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try {
      db = t.span("spark.phase1") {
        val sym = SparkSTPM.symbolize(rawDF, cuts)
        SparkSTPM.collectSeqDB(SparkSTPM.toInstances(sym, spec.m), spec.m)
      }
      Outcome.of(t.span("spark.mine")(SparkSTPM.mine(spark, db, config(db, "INF"))))
    } finally sc.clearJobGroup()
  }

  override def settle(o: Outcome): Outcome =
    o.copy(counters = o.counters + ("spark_tasks" -> meter.totals(spark.sparkContext, group).tasks))

  def layers(t: Tracer, job: Outcome): Map[String, Double] = {
    val tasks = meter.totals(spark.sparkContext, group)
    val cfg = config(db, "INF")
    val mined = t.last("spark.mine")
    val sparkRungs = lowerRungs(t, "spark.mine")(k => (SparkSTPM.mine(spark, db, cfg.copy(maxK = k)).stats, 0.0))
    val sparkLvl = ladder(sparkRungs + (3 -> (job.counters, mined)))
    // Local level 2 over the database Spark produced; its counters equal
    // Spark's, and core.level2_s becomes the local time.
    val localRungs = lowerRungs(t, "core.stpm.mine")(k => (STPM.mine(db, cfg.copy(maxK = k)).stats, 0.0))
    val (syb, _) = localPhase1(raw, spec.m, t)
    val (a, aS) = timed(t, "core.astpm.mine")(ASTPM.mine(syb, db, cfg))
    sparkLvl ++ ladder(localRungs) ++ phase1Layers(t) ++ hlh1Layers(db, cfg, t) ++
      jobCounters(job) ++ miLayers(a, aS) ++ Map(
        "core.level3_share" -> sparkLvl("core.level3_s") / t.last("job"),
        "spark.phase1_s" -> t.last("spark.phase1"),
        "spark.mine_s" -> mined,
        "spark.level2_s" -> sparkLvl("core.level2_s"),
        "spark.tasks" -> tasks.tasks.toDouble,
        "spark.task_run_s" -> tasks.runMillis / 1000.0,
        "spark.task_deser_s" -> tasks.deserMillis / 1000.0,
        "spark.result_mb" -> tasks.resultBytes / 1e6)
  }

  override def close(): Unit = if (spark != null) {
    spark.stop()
    spark = null
  }
}
