package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

/** Runs one workload in this JVM: set-up (repeated), warm-up, timed
  * iterations with an output check on each, then prints the metrics as one
  * JSON line. With `--trace 1` it alternates untraced and traced iterations
  * and reports the per-layer metrics it measured instead of the end-to-end
  * ones. Metric values are bare numbers; the launcher adds the units from
  * BENCHMARK.json and checks the names against it.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1 --out DIR
  */
object Main {
  /** Set-up runs at least `MinSetups` times, and more, up to `MaxSetups`,
    * while the set-ups so far took under `SetupBudgetSeconds`; setup_s is
    * the median. A set-up of a local workload takes a few tenths of a
    * second, so it gets more samples.
    */
  val MinSetups = 3
  val MaxSetups = 9
  val SetupBudgetSeconds = 3.0
  /** The warm-up job runs on inputs this much shorter than the measured ones:
    * long enough for the JIT to compile the hot paths, and much cheaper than
    * a full job.
    */
  val WarmupScale = 1.0 / 3

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: File)

  object Args {
    def parse(argv: Array[String]): Args = {
      require(argv.length % 2 == 0, s"expected --key value pairs, got ${argv.mkString(" ")}")
      val kv = argv.grouped(2).map { case Array(k, v) => k -> v }.toMap
      def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
      val unknown = kv.keySet -- Set("--workload", "--seed", "--seconds", "--trace", "--out")
      require(unknown.isEmpty, s"unknown arguments ${unknown.mkString(", ")}")
      require(Set("0", "1")(get("--trace")), "--trace must be 0 or 1")
      Args(get("--workload"), get("--seed").toLong, get("--seconds").toDouble, get("--trace") == "1",
        new File(get("--out")))
    }
  }

  final case class Iteration(seconds: Double, peakLiveBytes: Long, jvm: JvmSample, outcome: Try[Outcome])

  def main(argv: Array[String]): Unit = {
    val code =
      try run(Args.parse(argv))
      catch { case e: Throwable => e.printStackTrace(); 1 }
    System.out.flush()
    System.exit(code)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def run(a: Args): Int = {
    val w = Workload.named(a.workload)
    try measure(w, a) finally w.close()
  }

  private def measure(w: Workload, a: Args): Int = {
    a.out.mkdirs()
    val tracer = new Tracer(a.trace)
    val off = new Tracer(false)
    println(s"# workload=${w.name} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}")
    println(s"# jvm_flags=${ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.mkString(" ")}")
    println(s"# nproc=${Runtime.getRuntime.availableProcessors} spark_master=${w.sparkMaster} " +
      s"git_sha=${sys.props.getOrElse("perfbench.gitSha", "unknown")} java=${sys.props("java.version")}")

    // Warm-up, untimed and unchecked: the same job on shorter inputs.
    val w0 = System.nanoTime()
    w.setup(a.seed, WarmupScale, off)
    w.job(off)
    println(f"# warm-up ${(System.nanoTime() - w0) / 1e9}%.3f s on inputs scaled by $WarmupScale%.3f")

    val setups = ArrayBuffer.empty[Double]
    while (setups.size < MinSetups || (setups.size < MaxSetups && setups.sum < SetupBudgetSeconds)) {
      System.gc()
      val t0 = System.nanoTime()
      w.setup(a.seed, 1.0, tracer)
      setups += (System.nanoTime() - t0) / 1e9
    }
    println(s"# setup_s per repetition: ${setups.map(s => f"$s%.3f").mkString(" ")}")

    val heap = new LiveHeapPeak
    val checker = new Checker(w, a.seed, new File(a.out, s"fingerprint-${w.name}-${a.seed}.txt"))
    var attempted = 0
    var failed = 0
    def attempt(t: Tracer, label: String): Iteration = {
      val it = iterate(w, t, heap)
      attempted += 1
      val problem = it.outcome match {
        case Failure(e) => Some(s"threw $e")
        case Success(o) => checker.check(o)
      }
      if (problem.isDefined) failed += 1
      println(f"# $label%-7s ${it.seconds}%.3f s, peak_live ${it.peakLiveBytes / 1e6}%.1f MB, " +
        f"gc ${it.jvm.gcMillis} ms in ${it.jvm.gcCount}, cpu ${it.jvm.cpuNanos / 1e9}%.2f s" +
        problem.fold("")(p => s"; FAILED: $p"))
      it
    }

    val untraced = ArrayBuffer.empty[Iteration]
    val traced = ArrayBuffer.empty[Iteration]
    val start = System.nanoTime()
    while (untraced.isEmpty || (System.nanoTime() - start) / 1e9 < a.seconds) {
      untraced += attempt(off, "timed")
      if (a.trace) traced += attempt(tracer, "traced")
    }

    checker.first.foreach(o => println(s"# outcome: ${o.render}"))
    if (a.seed == w.defaultSeed) checker.first.foreach { o =>
      val pins = w.pinned.counters.toVector.sorted.map { case (k, v) =>
        s"$k ${o.counters.get(k).fold("missing")(_.toString)} (pinned $v)"
      }
      println(s"# counters at the default seed: ${pins.mkString(", ")}")
    }
    val recordProblem = checker.againstRecord()
    recordProblem.foreach(p => println(s"# FLAGGED: $p"))
    println(s"# ops_failed $failed / ops_attempted $attempted")

    val metrics: Map[String, Double] =
      if (!a.trace) {
        Map("run_s" -> median(untraced.map(_.seconds).toSeq), "setup_s" -> median(setups.toSeq),
          "peak_live_mb" -> median(untraced.map(_.peakLiveBytes / 1e6).toSeq))
      } else {
        val last = traced.last
        val overhead = median(traced.map(_.seconds).toSeq) - median(untraced.map(_.seconds).toSeq)
        val layers = last.outcome.toOption.fold(Map.empty[String, Double])(w.layers(tracer, _))
        val j = last.jvm
        val all = layers ++ Map(
          "jvm.gc_s" -> j.gcMillis / 1000.0, "jvm.gc_count" -> j.gcCount.toDouble,
          "jvm.alloc_mb" -> j.allocBytes / 1e6, "jvm.cpu_s" -> j.cpuNanos / 1e9,
          "jvm.cpu_per_wall" -> j.cpuNanos.toDouble / j.wallNanos, "trace.overhead_s" -> overhead)
        Files.write(new File(a.out, s"trace-${w.name}-${a.seed}.json").toPath, tracer.json.getBytes(UTF_8))
        println(f"# tracing overhead ${overhead}%.4f s on a median traced job of ${median(traced.map(_.seconds).toSeq)}%.3f s")
        println(f"# level-3 share of the job: ${all.getOrElse("core.level3_share", 0.0)}%.3f")
        if (all.contains("spark.level2_s"))
          println(f"# level 2 on this database: Spark ${all("spark.level2_s")}%.3f s, local ${all("core.level2_s")}%.3f s")
        all
      }

    val finite = metrics.values.forall(v => !v.isNaN && !v.isInfinite)
    val correct = failed == 0 && recordProblem.isEmpty && finite
    val body = metrics.toVector.sorted.map { case (n, v) => s""""$n": ${if (finite) v else 0.0}""" }.mkString(", ")
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}""")
    0
  }

  /** One job between two full collections; the collections are outside the
    * timed region.
    */
  private def iterate(w: Workload, t: Tracer, heap: LiveHeapPeak): Iteration = {
    val baseline = LiveHeap.afterFullGc()
    val from = heap.uptimeMillis()
    val j0 = JvmSample.now()
    val out = Try(t.span("job")(w.job(t)))
    val j1 = JvmSample.now()
    val to = heap.uptimeMillis()
    Iteration((j1.wallNanos - j0.wallNanos) / 1e9, heap.peakBetween(from, to, baseline), j1.minus(j0),
      out.flatMap(o => Try(w.settle(o))))
  }
}

/** Checks every outcome of a run against the run's first outcome (work
  * counters included, so nondeterminism shows) and the pinned output at the
  * workload's default seed. After the run, the output's fingerprint is
  * checked against the one an earlier run recorded for the same seed; the
  * counters are left out of that record, because a change to the program
  * may move them while the output stays the same.
  */
final class Checker(w: Workload, seed: Long, record: File) {
  var first: Option[Outcome] = None

  def check(o: Outcome): Option[String] = {
    if (first.isEmpty) first = Some(o)
    val f = first.get
    if (o != f) Some(s"outcome ${o.render} differs from this run's first, ${f.render}")
    else if (seed == w.defaultSeed && (o.patterns != w.pinned.patterns || o.hash != w.pinned.hash))
      Some(s"output ${o.patterns} patterns, hash ${o.hash} is not the pinned " +
        s"${w.pinned.patterns} patterns, hash ${w.pinned.hash}")
    else None
  }

  def againstRecord(): Option[String] = first.flatMap { o =>
    if (record.exists) {
      val before = new String(Files.readAllBytes(record.toPath), UTF_8).trim
      if (before == o.fingerprint) None
      else Some(s"output changed from an earlier run of this seed: was $before, now ${o.fingerprint}")
    } else {
      Files.write(record.toPath, (o.fingerprint + "\n").getBytes(UTF_8))
      None
    }
  }
}
