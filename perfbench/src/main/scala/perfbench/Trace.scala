package perfbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import scala.collection.mutable

/** Per-layer tracing from outside the program.
  *
  * The benchmark wraps its calls into the program in named spans
  * ([[Tracer.span]]). A SparkListener records every job, stage and task and
  * attributes each job to a layer by the call-site stack of the SQL
  * execution that ran it (`spark.sql.execution.id`), falling back to the
  * job's own call site and then to the benchmark span open at its start.
  * That attributes AQE's asynchronous stages too, which run on other
  * threads but inside their parent execution.
  */
object Trace {

  /** Layer of a call-site stack, by the outermost program function in it. */
  def layerOf(stack: String): Option[String] =
    if (stack.contains("repro.svd.BKSVD")) Some("bksvd")
    else if (stack.contains("repro.core.ApproxPPR$.apply") || stack.contains("repro.core.ApproxPPR$.sweep")) Some("l1")
    else if (stack.contains("repro.linalg.DistMatrix.collectLocal")) Some("collect")
    else if (stack.contains("repro.eval.LinkPrediction")) Some("score")
    else if (stack.contains("repro.core.NRP$.reweight") || stack.contains("repro.core.NodeWeights")) Some("reweight")
    else if (stack.contains("repro.graph.Graph")) Some("graph")
    else None

  /** Per-layer metric names, without the run-level `trace.overhead_s`. */
  val PerLayer: Seq[String] = Seq(
    "bksvd.s", "bksvd.jobs", "bksvd.tasks", "bksvd.shuffle_mb", "bksvd.task_cpu_s",
    "l1.s", "l1.step_s", "l1.jobs", "l1.shuffle_mb",
    "driver.self_s",
    "spark.jobs", "spark.stages", "spark.tasks", "spark.task_run_s", "spark.sched_wait_s", "spark.gc_s",
    "spark.shuffle_write_mb", "spark.shuffle_read_mb", "spark.failed_tasks", "spark.busy_ratio",
    "collect.s", "reweight.s", "reweight.epoch_s", "reweight.floor_frac", "score.s",
    "graph.build_s", "split.s")

  def unitOf(name: String): String =
    if (name.endsWith("_mb")) "MB"
    else if (name.endsWith("_ratio") || name.endsWith("_frac")) "ratio"
    else if (name.endsWith(".s") || name.endsWith("_s")) "s"
    else "count"

  /** Per-layer metrics of the traced interval [lo, hi] (epoch ms), whose
    * benchmark spans are `spans`: "approx" (ApproxPPR.apply, split into
    * BKSVD and ℓ₁ at the end of its last BKSVD job), "collect",
    * "reweight" (run for `epochs` epochs) and "score"; also "op.s", the
    * interval itself.
    */
  def opMetrics(tracer: Tracer, spans: Seq[Span], lo: Long, hi: Long, cores: Int,
                l1Steps: Int, epochs: Int, floorFrac: Double): Map[String, Double] = {
    val jobs = tracer.jobsIn(lo, hi)
    def layer(l: String): Seq[Job] = jobs.collect { case (j, `l`) => j }
    def spanS(name: String): Double = spans.filter(_.name == name).map(_.seconds).sum
    def mb(b: Long): Double = b / 1e6
    val bksvd = layer("bksvd")
    val l1 = layer("l1")
    val (bksvdS, l1S) = spans.find(_.name == "approx") match {
      case Some(a) =>
        val cut = math.min(a.endMs, (bksvd.map(_.endMs) :+ a.startMs).max)
        ((cut - a.startMs) / 1e3, (a.endMs - cut) / 1e3)
      case None => (0.0, 0.0)
    }
    val all = jobs.map(_._1)
    val st = tracer.stats(all)
    val busyMs = unionMs(all.map(j => (j.startMs, j.endMs)), lo, hi)
    val bk = tracer.stats(bksvd)
    val reweightS = spanS("reweight")
    Map(
      "bksvd.s" -> bksvdS, "bksvd.jobs" -> bksvd.size.toDouble, "bksvd.tasks" -> bk.tasks.toDouble,
      "bksvd.shuffle_mb" -> mb(bk.shuffleWrite), "bksvd.task_cpu_s" -> bk.cpuNs / 1e9,
      "l1.s" -> l1S, "l1.step_s" -> l1S / math.max(1, l1Steps - 1), "l1.jobs" -> l1.size.toDouble,
      "l1.shuffle_mb" -> mb(tracer.stats(l1).shuffleWrite),
      "driver.self_s" -> (hi - lo - busyMs) / 1e3,
      "spark.jobs" -> all.size.toDouble, "spark.stages" -> tracer.stagesRun(all).toDouble,
      "spark.tasks" -> st.tasks.toDouble, "spark.task_run_s" -> st.runMs / 1e3,
      "spark.sched_wait_s" -> st.waitMs / 1e3, "spark.gc_s" -> st.gcMs / 1e3,
      "spark.shuffle_write_mb" -> mb(st.shuffleWrite), "spark.shuffle_read_mb" -> mb(st.shuffleRead),
      "spark.failed_tasks" -> st.failed.toDouble,
      "spark.busy_ratio" -> (if (busyMs > 0) st.durMs.toDouble / (cores * busyMs) else 0.0),
      "collect.s" -> spanS("collect"), "reweight.s" -> reweightS,
      "reweight.epoch_s" -> reweightS / math.max(1, epochs), "reweight.floor_frac" -> floorFrac,
      "score.s" -> spanS("score"),
      "op.s" -> (hi - lo) / 1e3,
    )
  }

  final case class Span(name: String, startMs: Long, endMs: Long) {
    def seconds: Double = (endMs - startMs) / 1e3
    def contains(t: Long): Boolean = t >= startMs && t <= endMs
  }

  /** Summed task counters of one stage. */
  final class StageStats {
    var tasks = 0
    var failed = 0
    var runMs = 0L
    var cpuNs = 0L
    var gcMs = 0L
    var waitMs = 0L
    var durMs = 0L
    var shuffleWrite = 0L
    var shuffleRead = 0L
  }

  /** One Spark job: its interval and the layer its stack named. */
  final case class Job(id: Int, startMs: Long, var endMs: Long, stackLayer: Option[String])

  /** Union length of intervals, each clipped to [lo, hi]. */
  def unionMs(intervals: Seq[(Long, Long)], lo: Long, hi: Long): Long = {
    val clipped = intervals.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0L
    var curA = Long.MinValue
    var curB = Long.MinValue
    clipped.foreach { case (a, b) =>
      if (a > curB) { if (curB > curA) total += curB - curA; curA = a; curB = b }
      else curB = math.max(curB, b)
    }
    if (curB > curA) total += curB - curA
    total
  }
}

/** Listener plus span recorder. Listener callbacks run on Spark's listener
  * thread; readers call [[Tracer.drain]] first and then read under the lock.
  */
final class Tracer extends SparkListener {
  import Trace._

  private val execStack = mutable.Map.empty[Long, String]
  private val execRoot = mutable.Map.empty[Long, Long]
  private val jobsById = mutable.LinkedHashMap.empty[Int, Job]
  private val stageJob = mutable.Map.empty[Int, Int]
  private val stageSubmitMs = mutable.Map.empty[Int, Long]
  private val stageStats = mutable.Map.empty[Int, StageStats]
  private val spanLog = mutable.ArrayBuffer.empty[Span]

  /** Runs `body` inside a span named `name`. */
  def span[A](name: String)(body: => A): A = {
    val t0 = System.currentTimeMillis()
    try body
    finally { val s = Span(name, t0, System.currentTimeMillis()); synchronized { spanLog += s } }
  }

  def spans: Seq[Span] = synchronized(spanLog.toList)

  /** Waits until Spark has delivered every posted event to this listener. */
  def drain(spark: org.apache.spark.sql.SparkSession): Unit =
    org.apache.spark.perfbench.Bus.drain(spark.sparkContext)

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart => synchronized {
      execStack(e.executionId) = e.details
      e.rootExecutionId.foreach(r => execRoot(e.executionId) = r)
    }
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val execStackLayer = Option(e.properties).flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .map(_.toLong).flatMap { id =>
        layerOf(execStack.getOrElse(id, "")).orElse(execRoot.get(id).flatMap(r => layerOf(execStack.getOrElse(r, ""))))
      }
    val ownLayer = e.stageInfos.iterator.map(s => layerOf(s.details)).collectFirst { case Some(l) => l }
    jobsById(e.jobId) = Job(e.jobId, e.time, e.time, execStackLayer.orElse(ownLayer))
    e.stageIds.foreach(s => if (!stageJob.contains(s)) stageJob(s) = e.jobId)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobsById.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    e.stageInfo.submissionTime.foreach(t => stageSubmitMs(e.stageInfo.stageId) = t)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val st = stageStats.getOrElseUpdate(e.stageId, new StageStats)
    st.tasks += 1
    if (e.reason != org.apache.spark.Success) st.failed += 1
    val info = e.taskInfo
    if (info != null) {
      st.durMs += info.finishTime - info.launchTime
      stageSubmitMs.get(e.stageId).foreach(t => st.waitMs += math.max(0L, info.launchTime - t))
    }
    val m = e.taskMetrics
    if (m != null) {
      st.runMs += m.executorRunTime
      st.cpuNs += m.executorCpuTime
      st.gcMs += m.jvmGCTime
      st.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      st.shuffleRead += m.shuffleReadMetrics.totalBytesRead
    }
  }

  /** Jobs started in [lo, hi], each with its layer: the stack's, else the
    * innermost benchmark span open at the job's start, else "other".
    */
  def jobsIn(lo: Long, hi: Long): Seq[(Job, String)] = synchronized {
    val sp = spanLog.toList
    jobsById.values.filter(j => j.startMs >= lo && j.startMs <= hi).toList.map { j =>
      val layer = j.stackLayer
        .orElse(sp.filter(_.contains(j.startMs)).sortBy(s => s.endMs - s.startMs).headOption.map(_.name))
        .getOrElse("other")
      (j, layer)
    }
  }

  /** Summed task counters over the stages first run by `jobs`. */
  def stats(jobs: Seq[Job]): StageStats = synchronized {
    val ids = jobs.map(_.id).toSet
    val out = new StageStats
    stageStats.foreach { case (sid, s) =>
      if (stageJob.get(sid).exists(ids)) {
        out.tasks += s.tasks; out.failed += s.failed; out.runMs += s.runMs; out.cpuNs += s.cpuNs
        out.gcMs += s.gcMs; out.waitMs += s.waitMs; out.durMs += s.durMs
        out.shuffleWrite += s.shuffleWrite; out.shuffleRead += s.shuffleRead
      }
    }
    out
  }

  /** Stages submitted in [lo, hi] that ran at least one task. */
  def stagesRunIn(lo: Long, hi: Long): Int = synchronized {
    stageStats.keys.count(sid => stageSubmitMs.get(sid).exists(t => t >= lo && t <= hi))
  }

  /** Stages that ran (had at least one task) for `jobs`. */
  def stagesRun(jobs: Seq[Job]): Int = synchronized {
    val ids = jobs.map(_.id).toSet
    stageStats.keys.count(sid => stageJob.get(sid).exists(ids))
  }
}
