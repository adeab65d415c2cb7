package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

/** One traced call into a layer: `parent` is the id of the enclosing span
  * (0 at the top level).
  */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans around the benchmark's calls into the program. A disabled
  * tracer runs the same code with no bookkeeping, so traced and untraced
  * iterations differ only by the cost of tracing.
  */
final class Tracer(val enabled: Boolean) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 1

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(0)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        done += Span(id, name, parent, t0, System.nanoTime())
        open = open.tail
      }
    }

  /** Duration of the most recent span called `name`. */
  def last(name: String): Double =
    done.reverseIterator.find(_.name == name).map(_.seconds)
      .getOrElse(throw new NoSuchElementException(s"no span '$name' was recorded"))

  def spans: Vector[Span] = done.sortBy(_.id).toVector

  def json: String = spans.map { s =>
    s"""{"id":${s.id},"name":"${s.name}","parent":${s.parent},"start_ns":${s.startNs},"end_ns":${s.endNs}}"""
  }.mkString("[\n", ",\n", "\n]\n")
}

/** Process-wide JVM counters, read around an iteration. */
final case class JvmSample(gcMillis: Long, gcCount: Long, allocBytes: Long, cpuNanos: Long, wallNanos: Long) {
  def minus(o: JvmSample): JvmSample = JvmSample(gcMillis - o.gcMillis, gcCount - o.gcCount,
    allocBytes - o.allocBytes, cpuNanos - o.cpuNanos, wallNanos - o.wallNanos)
}

object JvmSample {
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def now(): JvmSample = JvmSample(
    gcs.map(_.getCollectionTime).sum, gcs.map(_.getCollectionCount).sum,
    threads.getTotalThreadAllocatedBytes, os.getProcessCpuTime, System.nanoTime())
}

/** Largest heap occupancy left after a collection, from GC notifications.
  * Explicit `System.gc()` calls, which the benchmark makes between timed
  * iterations, are left out.
  */
final class LiveHeapPeak {
  private val heapPools: Set[String] = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector
  private val baseCount = gcs.map(_.getCollectionCount).sum
  private val seen = new AtomicLong
  // (GC start in ms of JVM uptime, heap bytes in use after it)
  private val afterGc = new ConcurrentLinkedQueue[(Long, Long)]

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: Any): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        if (info.getGcCause != "System.gc()") {
          val used = info.getGcInfo.getMemoryUsageAfterGc.asScala.collect {
            case (pool, u) if heapPools(pool) => u.getUsed
          }.sum
          afterGc.add((info.getGcInfo.getStartTime, used))
        }
        seen.incrementAndGet()
      }
  }
  gcs.foreach(_.asInstanceOf[NotificationEmitter].addNotificationListener(listener, null, null))

  def uptimeMillis(): Long = ManagementFactory.getRuntimeMXBean.getUptime

  /** Peak after-GC heap of collections that started in `[from, to]`
    * (uptime ms), or `floor` when none did or all were smaller.
    */
  def peakBetween(from: Long, to: Long, floor: Long): Long = {
    val deadline = System.nanoTime() + 2000000000L
    while (seen.get < gcs.map(_.getCollectionCount).sum - baseCount && System.nanoTime() < deadline)
      Thread.sleep(5)
    afterGc.asScala.iterator.collect { case (t, used) if t >= from && t <= to => used }
      .foldLeft(floor)(math.max)
  }
}

/** Heap still in use after a full collection. */
object LiveHeap {
  def afterFullGc(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }
}

/** Task counts and times of the Spark jobs run under one job group. */
final class SparkTaskMeter extends SparkListener {
  final case class Totals(tasks: Long, runMillis: Long, deserMillis: Long, resultBytes: Long)

  private val byJob = mutable.HashMap.empty[Int, Totals]
  private val stageJob = mutable.HashMap.empty[Int, Int]
  private val ended = mutable.HashSet.empty[Int]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    e.stageIds.foreach(s => stageJob(s) = e.jobId)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (job <- stageJob.get(e.stageId); m <- Option(e.taskMetrics)) {
      val t = byJob.getOrElse(job, Totals(0, 0, 0, 0))
      byJob(job) = Totals(t.tasks + 1, t.runMillis + m.executorRunTime,
        t.deserMillis + m.executorDeserializeTime, t.resultBytes + m.resultSize)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { ended += e.jobId }

  /** Totals over every job of `group`, once the listener has seen them end. */
  def totals(sc: SparkContext, group: String): Totals = {
    val jobs = sc.statusTracker.getJobIdsForGroup(group).toVector
    val deadline = System.nanoTime() + 10000000000L
    while (synchronized(!jobs.forall(ended)) && System.nanoTime() < deadline) Thread.sleep(5)
    synchronized {
      require(jobs.forall(ended), s"Spark listener missed the end of jobs in group $group")
      jobs.flatMap(byJob.get).foldLeft(Totals(0, 0, 0, 0)) { (a, b) =>
        Totals(a.tasks + b.tasks, a.runMillis + b.runMillis, a.deserMillis + b.deserMillis,
          a.resultBytes + b.resultBytes)
      }
    }
  }
}
