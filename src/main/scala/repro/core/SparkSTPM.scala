package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Spark orchestration of FreqSTPfTS (DESIGN.md §5).
  *
  * Phase 1 (data transformation) runs as Catalyst DataFrame transforms:
  * symbolization → granule assignment → per-(series, granule) run-length
  * encoding into event instances. Phase 2 mines levels 1–2 on the driver,
  * then spreads the subtrees of the level-2 groups (levels 3..maxK) over
  * `mapPartitions`: each task runs [[STPM.mineSubtree]], the kernel of the
  * local path, against one broadcast of HLH1, `phk2` and FilteredF1, and
  * returns only frequent patterns and counters. For A-STPM's MI, Spark SQL
  * aggregates the joint symbol counts over D_SYB and
  * [[MutualInformation]] turns them into NMI.
  */
object SparkSTPM {

  // ------------------------------------------------------------------
  // Phase 1 — DataFrame pipeline
  // ------------------------------------------------------------------

  /** Lift locally generated raw series into a (series, pos, value) frame. */
  def rawDF(spark: SparkSession, raw: Vector[(String, Vector[Double])]): DataFrame = {
    import spark.implicits._
    raw.flatMap { case (id, vs) =>
      vs.iterator.zipWithIndex.map { case (v, i) => (id, i + 1, v) }
    }.toDF("series", "pos", "value")
  }

  /** Symbolize raw values with per-series ascending cut points (Def. 3.7)
    * by [[Symbolizer.symbolOf]]. Every series' cuts are checked on the
    * driver before any job runs.
    */
  def symbolize(raw: DataFrame, cutsBySeries: Map[String, Vector[Double]]): DataFrame = {
    for ((series, cuts) <- cutsBySeries) Symbolizer.checkCuts(cuts, s"cut points of series $series")
    val enc = udf { (series: String, value: Double) =>
      Symbolizer.symbolOf(value, cutsBySeries.getOrElse(series,
        throw new NoSuchElementException(s"no cuts for series $series")))
    }
    raw.select(col("series"), col("pos"), enc(col("series"), col("value")).as("symbol"))
  }

  /** Sequence mapping g: X_S →_m H plus run-length encoding (Defs.
    * 3.11–3.12): one output row per event instance —
    * (series, granule, symbol, start, end) with fine positions.
    */
  def toInstances(sym: DataFrame, m: Int): DataFrame = {
    require(m >= 1, "granularity factor must be >= 1")
    val w = Window.partitionBy("series").orderBy("pos")
    sym
      .withColumn("granule", (((col("pos") - 1) / m).cast("int") + 1))
      .withColumn("newRun",
        when(lag("symbol", 1).over(w).isNull
          .or(lag("symbol", 1).over(w) =!= col("symbol"))
          .or(lag("granule", 1).over(w) =!= col("granule")), 1).otherwise(0))
      .withColumn("runId", sum("newRun").over(w))
      .groupBy(col("series"), col("granule"), col("runId"))
      .agg(
        first("symbol").as("symbol"),
        min("pos").as("start"),
        max("pos").as("end"))
      .drop("runId")
  }

  /** Materialize the instance frame into the local mining model. */
  def collectSeqDB(instances: DataFrame, m: Int): SeqDB = {
    val collected = instances
      .select("granule", "series", "symbol", "start", "end")
      .collect()
      .map(r => (r.getInt(0),
        Instance(Event(r.getString(1), r.getString(2)), Interval(r.getInt(3), r.getInt(4)))))
    val byGranule = collected.groupBy(_._1)
    val n = if (byGranule.isEmpty) 0 else byGranule.keys.max
    val rows = (1 to n).toVector.map { g =>
      GranuleRow(g, byGranule.getOrElse(g, Array.empty).map(_._2).toVector.sorted(Instance.ordering))
    }
    SeqDB(m, rows)
  }

  /** Materialize a symbolic frame into the local D_SYB model. */
  def collectSymbolicDB(sym: DataFrame): SymbolicDB = {
    val bySeries = sym.select("series", "pos", "symbol").collect()
      .map(r => (r.getString(0), r.getInt(1), r.getString(2)))
      .groupBy(_._1)
    SymbolicDB(bySeries.toVector.sortBy(_._1).map { case (id, rows) =>
      SymbolicSeries(id, rows.sortBy(_._2).map(_._3).toVector)
    })
  }

  // ------------------------------------------------------------------
  // Spark SQL mutual information (A-STPM's correlation stage)
  // ------------------------------------------------------------------

  /** Joint symbol counts for every ordered series pair sx < sy:
    * (sx, sy, x, y, cnt) — the sufficient statistics for NMI.
    */
  def jointCounts(sym: DataFrame): DataFrame = {
    val a = sym.select(col("series").as("sx"), col("pos").as("posx"), col("symbol").as("x"))
    val b = sym.select(col("series").as("sy"), col("pos").as("posy"), col("symbol").as("y"))
    a.join(b, col("posx") === col("posy"))
      .where(col("sx") < col("sy"))
      .groupBy("sx", "sy", "x", "y")
      .agg(count(lit(1)).as("cnt"))
  }

  /** Both NMI directions per series pair from the Spark joint counts,
    * through [[MutualInformation.pairInfoFromCounts]]. Key (sx, sy) with
    * sx < sy maps to (nmi(x;y), nmi(y;x)).
    */
  def nmiMatrix(sym: DataFrame): Map[(String, String), (Double, Double)] =
    jointCounts(sym).collect()
      .groupBy(r => (r.getString(0), r.getString(1)))
      .map { case (pair, cells) =>
        val info = MutualInformation.pairInfoFromCounts(
          cells.map(r => ((r.getString(2), r.getString(3)), r.getLong(4))))
        pair -> (info.nmiXY, info.nmiYX)
      }

  // ------------------------------------------------------------------
  // Phase 2 — distributed mining
  // ------------------------------------------------------------------

  /** E-STPM with the subtrees of the level-2 groups fanned out via
    * `mapPartitions` over root indices. A task rebuilds its root's level-2
    * occurrences with [[STPM.minePairData]] instead of receiving them.
    * Identical results and counters to [[STPM.mine]] (asserted by the test
    * suite); parallelism defaults to the cluster's default parallelism.
    */
  def mine(spark: SparkSession, db: SeqDB, cfg: STPMConfig,
           parallelism: Int = 0): MiningResult = {
    val (top, in, level2) = STPM.mineTop(db, cfg, None, None)
    val roots = level2.ehk.toVector
    if (cfg.maxK < 3 || roots.isEmpty) top
    else {
      val sc = spark.sparkContext
      val parts = if (parallelism > 0) parallelism else sc.defaultParallelism
      val bc = sc.broadcast((in, roots))
      try {
        val subtrees = sc.parallelize(roots.indices, math.min(parts, roots.size))
          .mapPartitions { it =>
            val (shared, sharedRoots) = bc.value
            it.map { i =>
              val (root, entry) = sharedRoots(i)
              val own = new HLHk(2)
              STPM.commit(own, STPM.minePairData(shared.hlh1, root(0), root(1), entry.support, shared.cfg),
                shared.cfg, keepOccs = true)
              (i, STPM.mineSubtree(shared, own, root))
            }
          }
          .collect()
          .sortBy(_._1)
        STPM.merge(top, subtrees.iterator.map(_._2))
      } finally bc.destroy()
    }
  }
}
