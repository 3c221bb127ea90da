package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.baselines.Emb
import repro.core.{ApproxPPR, NRP, NodeWeights}
import repro.eval.LinkPrediction
import repro.graph.Graph

/** The NRP benchmark: one workload, one seed, one JVM, a closed loop of
  * one client issuing one operation at a time for `--seconds` seconds.
  *
  *   perfbench.Main --workload <lp-directed|reweight-sweep> --seed <n>
  *                  --seconds <s> --trace <0|1>
  *
  * `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
  * metrics from a run that alternates untraced and traced operations. The
  * last line of standard output is the result object.
  */
object Main {

  /** lp-directed input: n, m, communities and the out-degree-0 share. */
  val N = 1500
  val M = 20000
  val Communities = 10
  val DanglingShare = 0.25
  /** NRP parameters of both workloads (paper §5.1 defaults except k). */
  val Params: NRP.Params = NRP.Params(k = 64, alpha = 0.15, l1 = 20, l2 = 10, eps = 0.2)
  /** reweight-sweep's ℓ₂ grid (T8/T11) and the ℓ₂ its outputs are checked at. */
  val SweepL2: Seq[Int] = Seq(0, 1, 2, 5, 10, 20)
  val SweepAt = 10
  val SetupReps = 3
  val Workloads: Seq[String] = Seq("lp-directed", "reweight-sweep")
  /** End-to-end metrics with their units, in BENCHMARK.json's order. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "op_s" -> "s", "setup_s" -> "s", "edges_per_s" -> "1/s", "auc" -> "ratio",
    "ppr_err" -> "prob", "heap_live_mb" -> "MB", "ok_rate" -> "ratio")

  /** ApproxPPR.apply ("approx" span), then Embeddings.local ("collect"). */
  def approxLocal(tracer: Tracer, g: Graph, params: NRP.Params): ApproxPPR.LocalEmb = {
    val emb = tracer.span("approx")(ApproxPPR(g, math.max(1, params.k / 2), params.alpha, params.l1, params.eps, params.seed))
    tracer.span("collect") {
      val l = emb.local
      emb.x.unpersist(); emb.y.unpersist()
      l
    }
  }

  /** NRP.apply composed from its public stages, each in a span:
    * [[approxLocal]], then NRP.reweight ("reweight").
    */
  def tracedNrp(tracer: Tracer, g: Graph, params: NRP.Params): NRP.Result = {
    val local = approxLocal(tracer, g, params)
    tracer.span("reweight")(NRP.reweight(g, local.x, local.y, params))
  }

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1")
    require(Workloads.contains(a.workload), s"unknown workload ${a.workload}; one of ${Workloads.mkString(", ")}")
    require(a.seconds > 0, "--seconds must be positive")
    a
  }

  def session(cores: Int): SparkSession = {
    // Long call-site stacks, so the tracer sees the program frames of every job.
    System.setProperty("spark.callstack.depth", "200")
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val cores = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors()))
    val spark = session(cores)
    val code =
      try {
        val r = new Run(spark, args, cores).execute()
        println(r)
        0
      } catch {
        case e: Throwable =>
          Console.err.println(s"perfbench: ${args.workload} failed: $e")
          e.printStackTrace()
          1
      } finally spark.stop()
    sys.exit(code)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def nanos(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Heap in use after a full collection: what the program still holds
    * once its operations are done (caches, cached graph, outputs).
    */
  def liveHeapMb(): Double = {
    System.gc(); Thread.sleep(100); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }

  /** JSON number with all its digits. */
  def num(v: Double): String = {
    require(java.lang.Double.isFinite(v), s"non-finite metric $v")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }

  def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
}

/** The set-up products one run shares across its operations. */
final case class Setup(lp: Inputs.LpInput, graph: Graph, split: LinkPrediction.Split) {
  def release(): Unit = { graph.edges.unpersist(); split.testPos.unpersist(); split.testNeg.unpersist() }
}

/** Outputs of one operation: the embeddings and weights to check (at
  * ℓ₂ = 10 for the sweep), the AUC when the operation scores, the NRP
  * seconds, and the full sweep when there is one.
  */
final case class OpOut(x: Array[Array[Double]], y: Array[Array[Double]], w: NodeWeights.Weights,
                       auc: Option[Double], nrpSeconds: Double, sweep: Map[Int, NRP.Result])

final class Run(spark: SparkSession, args: Main.Args, cores: Int) {
  import Main._

  private val tracer = new Tracer
  private val lpWorkload = args.workload == "lp-directed"
  private val params = Params
  private val kPrime = math.max(1, params.k / 2)
  private def say(s: String): Unit =
    println(f"[${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%7.1f s] $s")

  private def buildSetup(): Setup = {
    import spark.implicits._
    val full = Inputs.powerLaw(args.seed, N, M, Communities, DanglingShare)
    val lp = Inputs.split(args.seed, full)
    val problems = Inputs.splitProblems(lp)
    if (problems.nonEmpty) throw new IllegalStateException("bad split: " + problems.mkString("; "))
    val g = tracer.span("graph") {
      val g = Graph.fromLocal(spark, lp.train.edges.toSeq, N, directed = true)
      g.m; g.outDeg; g.inDeg
      g
    }
    if (g.m != lp.train.m) throw new IllegalStateException(s"train graph has ${g.m} edges, expected ${lp.train.m}")
    tracer.span("split") {
      val pos = lp.pos.toSeq.toDF("src", "dst").cache()
      val neg = lp.neg.toSeq.toDF("src", "dst").cache()
      pos.count(); neg.count()
      Setup(lp, g, LinkPrediction.Split(g, pos, neg))
    }
  }

  /** One operation; when `traced`, lp-directed runs [[Main.tracedNrp]]. */
  private def op(s: Setup, x0: ApproxPPR.LocalEmb, traced: Boolean): OpOut =
    if (lpWorkload) {
      val t0 = System.nanoTime()
      val r = if (traced) tracedNrp(tracer, s.graph, params) else NRP(s.graph, params)
      val nrpS = nanos(t0)
      val auc = tracer.span("score")(LinkPrediction.auc(Emb(r.x, r.y), s.split))
      OpOut(r.x, r.y, r.weights, Some(auc), nrpS, Map.empty)
    } else {
      val t0 = System.nanoTime()
      val res = tracer.span("reweight")(NRP.reweightSweep(s.graph, x0.x, x0.y, params, SweepL2))
      val nrpS = nanos(t0)
      val at = res.getOrElse(SweepAt, throw new IllegalStateException(s"sweep returned no l2 = $SweepAt"))
      OpOut(at.x, at.y, at.weights, None, nrpS, res)
    }

  /** Checks one operation's outputs; returns its AUC, PPR error and problems. */
  private def verify(s: Setup, x0: ApproxPPR.LocalEmb, o: OpOut, exact: Map[Int, Array[Double]]): (Double, Double, Seq[String]) = {
    // The sweep does not score; its AUC at ℓ₂ = 10 is an untimed check, on
    // the driver's copy of the test pairs so that no Spark work runs
    // between sweep ops.
    val auc = o.auc.getOrElse {
      val emb = Emb(o.x, o.y)
      def scored(pairs: Array[(Long, Long)], label: Int) = pairs.map { case (u, v) => (emb.score(u.toInt, v.toInt), label) }
      LinkPrediction.aucLocal(scored(s.lp.pos, 1) ++ scored(s.lp.neg, 0))
    }
    val fit = Checks.pprFit(exact, o.x, o.y, o.w)
    val sweepProblems =
      if (lpWorkload) Nil
      else Seq(
        (o.sweep.keySet != SweepL2.toSet) -> s"sweep returned l2 = ${o.sweep.keys.toSeq.sorted.mkString(",")}",
        !o.sweep.get(0).exists(r => r.x.indices.forall(v => r.x(v).sameElements(x0.x(v)))) ->
          "l2 = 0 is not the ApproxPPR embedding",
      ).collect { case (true, m) => m } ++
        o.sweep.values.toSeq.flatMap(r => Checks.embeddingProblems(r.x, r.y, N, kPrime) ++ Checks.weightProblems(r.weights, N))
    val problems = sweepProblems ++ Checks.embeddingProblems(o.x, o.y, N, kPrime) ++ Checks.weightProblems(o.w, N) ++
      Seq(
        !(auc > 0.5 && auc <= 1.0) -> s"AUC $auc is not above chance",
        !(fit.relErr < 1.0) -> s"PPR residual ${fit.relErr} of the exact rows is no better than the zero embedding",
      ).collect { case (true, m) => m }
    (auc, fit.maxErr, problems)
  }

  def execute(): String = {
    val nproc = Runtime.getRuntime.availableProcessors()
    if (args.trace) spark.sparkContext.addSparkListener(tracer)

    // Set-up, repeated; the last one is kept.
    var setup: Setup = null
    val setupTimes = (1 to SetupReps).map { _ =>
      if (setup != null) setup.release()
      val t0 = System.nanoTime()
      setup = buildSetup()
      nanos(t0)
    }
    val s = setup
    val t0 = System.nanoTime()
    val x0 = if (lpWorkload) null else approxLocal(tracer, s.graph, params)
    val approxS = nanos(t0)
    val setupS = median(setupTimes) + approxS
    say(s"setup ${setupTimes.map(t => f"$t%.3f").mkString(" ")} s; ApproxPPR $approxS s")

    val csr = new Checks.Csr(N, s.lp.train.edges)
    val srcs = Checks.sources(csr)
    val exact = srcs.map(u => u -> Checks.pprRow(csr, u, params.alpha, params.l1)).toMap

    val meta = Seq(
      "git_sha" -> str(sys.props.getOrElse("perfbench.source", "unknown")),
      "workload" -> str(args.workload), "seed" -> args.seed.toString, "trace" -> (if (args.trace) "1" else "0"),
      "nproc" -> nproc.toString, "master" -> str(spark.sparkContext.master),
      "shuffle_partitions" -> str(spark.conf.get("spark.sql.shuffle.partitions")),
      "aqe" -> str(spark.conf.get("spark.sql.adaptive.enabled")),
      "driver_heap_mb" -> num(Runtime.getRuntime.maxMemory / 1e6),
      "spark" -> str(spark.version), "jdk" -> str(System.getProperty("java.version")),
      "n" -> N.toString, "m" -> s.lp.full.m.toString, "train_m" -> s.lp.train.m.toString,
      "test_pairs" -> (s.lp.pos.length + s.lp.neg.length).toString,
      "dangling_share" -> num(s.lp.full.danglingShare), "train_dangling_share" -> num(s.lp.train.danglingShare),
      "edge_checksum" -> str(java.lang.Long.toHexString(s.lp.full.checksum)),
      "k" -> params.k.toString, "l1" -> params.l1.toString, "l2" -> params.l2.toString,
    )
    println("meta " + meta.map { case (k, v) => str(k) + ":" + v }.mkString("{", ",", "}"))

    // Closed loop: one operation at a time until the time is up. A traced
    // run starts with an untraced warm-up op, then alternates traced and
    // untraced ops, so that both sides of trace.overhead_s are warm.
    if (args.trace) { tracer.drain(spark); spark.sparkContext.removeSparkListener(tracer) }
    val opTimes = scala.collection.mutable.ArrayBuffer.empty[Double]
    val nrpTimes = scala.collection.mutable.ArrayBuffer.empty[Double]
    val tracedTimes = scala.collection.mutable.ArrayBuffer.empty[Double]
    val tracedOps = scala.collection.mutable.ArrayBuffer.empty[Map[String, Double]]
    val aucs = scala.collection.mutable.ArrayBuffer.empty[Double]
    val errs = scala.collection.mutable.ArrayBuffer.empty[Double]
    var attempted = 0
    var failed = 0
    // Set-up's garbage is collected before timing, not during the first ops.
    System.gc()
    val loopStart = System.nanoTime()
    def more: Boolean =
      attempted == 0 || nanos(loopStart) < args.seconds || (args.trace && (tracedOps.isEmpty || opTimes.isEmpty))
    while (more) {
      val warmUp = args.trace && attempted == 0
      val traced = args.trace && !warmUp && tracedOps.length <= opTimes.length
      if (traced) spark.sparkContext.addSparkListener(tracer)
      attempted += 1
      val t0 = System.currentTimeMillis()
      val n0 = System.nanoTime()
      val outcome = scala.util.Try(tracer.span("op")(op(s, x0, traced)))
      val opS = nanos(n0)
      val t1 = System.currentTimeMillis()
      if (traced) { tracer.drain(spark); spark.sparkContext.removeSparkListener(tracer) }
      val problems = outcome match {
        case scala.util.Failure(e) => Seq(s"operation threw $e")
        case scala.util.Success(o) =>
          val (auc, err, problems) = verify(s, x0, o, exact)
          if (traced) {
            tracedTimes += opS
            tracedOps += Trace.opMetrics(tracer, tracer.spans.filter(sp => sp.startMs >= t0 && sp.endMs <= t1),
              t0, t1, cores, params.l1, if (lpWorkload) params.l2 else SweepL2.max, Checks.floorFrac(o.w, N))
          } else if (!warmUp) { opTimes += opS; nrpTimes += o.nrpSeconds; aucs += auc; errs += err }
          problems
      }
      if (problems.nonEmpty) { failed += 1; say(s"op $attempted failed: ${problems.mkString("; ")}") }
      say(f"op $attempted ${if (warmUp) "warm-up" else if (traced) "traced" else "untraced"} $opS%.3f s")
    }
    if (opTimes.isEmpty) throw new IllegalStateException("no operation completed")
    val heapMb = liveHeapMb()

    // Op timings are the fastest op, not the median. On a shared VM the
    // driver thread's speed switches between levels up to 2x apart for
    // seconds at a time, as other tenants load the host, so a short op's
    // times are bimodal and their median flips between the levels from run
    // to run. The fastest op is the op's cost at the fast level; a slower
    // program is slower there too. With one op in a run, it is that op.
    val opS = opTimes.min
    say(f"op seconds: n=${opTimes.length} min=$opS%.4f median=${median(opTimes.toSeq)}%.4f max=${opTimes.max}%.4f")
    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) {
        val values = Map(
          "op_s" -> opS,
          "setup_s" -> setupS,
          "edges_per_s" -> s.lp.train.m / nrpTimes.min,
          "auc" -> median(aucs.toSeq),
          "ppr_err" -> median(errs.toSeq),
          "heap_live_mb" -> heapMb,
          "ok_rate" -> (attempted - failed).toDouble / attempted)
        EndToEnd.map { case (name, unit) => (name, values(name), unit) }
      }
      else {
        val fromSetup = setupMetrics()
        Trace.PerLayer.map { name =>
          (name, fromSetup.getOrElse(name, median(tracedOps.map(_(name)).toSeq)), Trace.unitOf(name))
        } :+ ("trace.overhead_s", tracedTimes.min - opS, "s")
      }
    say(s"ops attempted=$attempted failed=$failed untraced=${opTimes.length} traced=${tracedOps.length}")
    metrics.foreach { case (k, v, u) => say(f"metric $k%-24s $v%.6g $u") }
    val body = metrics.map { case (k, v, u) => s"${str(k)}:{\"value\":${num(v)},\"unit\":${str(u)}}" }.mkString(",")
    s"""{"correct":${failed == 0},"attempted":$attempted,"failed":$failed,"metrics":{$body}}"""
  }

  /** Layers that ran in set-up: graph build and split for every workload,
    * plus ApproxPPR (BKSVD, ℓ₁, collect) for reweight-sweep.
    */
  private def setupMetrics(): Map[String, Double] = {
    val spans = tracer.spans
    val graph = median(spans.filter(_.name == "graph").map(_.seconds))
    val split = median(spans.filter(_.name == "split").map(_.seconds))
    val base = Map("graph.build_s" -> graph, "split.s" -> split)
    (spans.find(_.name == "approx"), spans.find(_.name == "collect")) match {
      case (Some(a), Some(c)) if !lpWorkload =>
        val window = spans.filter(sp => sp.startMs >= a.startMs && sp.endMs <= c.endMs)
        val m = Trace.opMetrics(tracer, window, a.startMs, c.endMs, cores, params.l1, 0, 0.0)
        base ++ m.filter { case (k, _) => k.startsWith("bksvd.") || k.startsWith("l1.") || k == "collect.s" }
      case _ => base
    }
  }
}
