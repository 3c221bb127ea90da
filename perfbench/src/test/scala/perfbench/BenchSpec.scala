package perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.Emb
import repro.core.NRP
import repro.eval.LinkPrediction
import repro.graph.Graph
import repro.ppr.ExactPPR
import scala.jdk.CollectionConverters._

/** The benchmark's own checks, on a tiny graph: inputs, the PPR reference,
  * layer attribution and the metric names declared in BENCHMARK.json.
  */
class BenchSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark: SparkSession = Main.session(2)
  private val params = NRP.Params(k = 8, l1 = 4, l2 = 2)
  private lazy val input = Inputs.split(7, Inputs.powerLaw(7, n = 150, m = 900, communities = 3, danglingShare = 0.25))
  private lazy val graph = Graph.fromLocal(spark, input.train.edges.toSeq, 150, directed = true)

  override def afterAll(): Unit = spark.stop()

  test("inputs are a pure function of the seed and meet the split contract") {
    val a = Inputs.powerLaw(3, 400, 3000, 4, 0.25)
    val b = Inputs.powerLaw(3, 400, 3000, 4, 0.25)
    assert(a.checksum == b.checksum && a.m == 3000)
    assert(a.checksum != Inputs.powerLaw(4, 400, 3000, 4, 0.25).checksum)
    assert(a.danglingShare == 0.25)
    assert(Inputs.splitProblems(Inputs.split(3, a)).isEmpty)
    assert(Inputs.splitProblems(input).isEmpty)
  }

  test("sparse PPR rows match the dense oracle") {
    val csr = new Checks.Csr(150, input.train.edges)
    val dense = ExactPPR.pprTruncated(graph, params.alpha, params.l1)
    for (u <- Checks.sources(csr)) {
      val row = Checks.pprRow(csr, u, params.alpha, params.l1)
      row.indices.foreach(v => assert(math.abs(row(v) - dense(u)(v)) < 1e-12))
    }
  }

  test("every stage started inside NRP.apply lands in a named layer") {
    graph.m; graph.outDeg; graph.inDeg
    val tracer = new Tracer
    spark.sparkContext.addSparkListener(tracer)
    val t0 = System.currentTimeMillis()
    NRP(graph, params)
    val t1 = System.currentTimeMillis()
    tracer.drain(spark)
    spark.sparkContext.removeSparkListener(tracer)
    val jobs = tracer.jobsIn(t0, t1)
    assert(jobs.nonEmpty)
    assert(jobs.forall(_._1.stackLayer.isDefined), jobs.filter(_._1.stackLayer.isEmpty).map(_._1.id))
    assert(jobs.map(_._2).toSet == Set("bksvd", "l1", "collect"))
    assert(tracer.stagesRun(jobs.map(_._1)) > 0)
    assert(tracer.stagesRun(jobs.map(_._1)) == tracer.stagesRunIn(t0, t1))
  }

  test("layer times and driver self time account for the traced operation") {
    val split = LinkPrediction.Split(graph, spark.createDataFrame(input.pos.toSeq).toDF("src", "dst"),
      spark.createDataFrame(input.neg.toSeq).toDF("src", "dst"))
    val tracer = new Tracer
    spark.sparkContext.addSparkListener(tracer)
    val t0 = System.currentTimeMillis()
    tracer.span("op") {
      val r = Main.tracedNrp(tracer, graph, params)
      tracer.span("score")(LinkPrediction.auc(Emb(r.x, r.y), split))
    }
    val t1 = System.currentTimeMillis()
    tracer.drain(spark)
    spark.sparkContext.removeSparkListener(tracer)
    val m = Trace.opMetrics(tracer, tracer.spans, t0, t1, 2, params.l1, params.l2, 0.0)
    val opS = m("op.s")
    val layers = Seq("bksvd.s", "l1.s", "collect.s", "reweight.s", "score.s").map(m).sum
    assert(math.abs(layers - opS) <= 0.02 * opS + 0.05, s"layers $layers vs op $opS")
    // Each layer's Spark time (union of its job intervals) plus the
    // driver's self time is the whole span: no job is unattributed or
    // counted in two layers.
    val jobs = tracer.jobsIn(t0, t1)
    assert(jobs.forall { case (_, l) => Set("bksvd", "l1", "collect", "score")(l) }, jobs.map(_._2).distinct)
    val perLayer = jobs.groupBy(_._2).values.map(js => Trace.unionMs(js.map(j => (j._1.startMs, j._1.endMs)), t0, t1)).sum
    assert(math.abs(perLayer / 1e3 + m("driver.self_s") - opS) <= 0.05, s"$perLayer ms + ${m("driver.self_s")} s vs $opS s")
    assert(m("bksvd.jobs") > 0 && m("l1.jobs") > 0 && m("spark.tasks") > 0 && m("spark.failed_tasks") == 0)
  }

  test("metric names and units match BENCHMARK.json") {
    val json = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
    def declared(key: String): Seq[(String, String)] =
      json.get(key).elements().asScala.map(e => e.get("name").asText -> e.get("unit").asText).toSeq
    assert(declared("end_to_end") == Main.EndToEnd)
    assert(declared("per_layer") == Trace.PerLayer.map(n => n -> Trace.unitOf(n)) :+ ("trace.overhead_s" -> "s"))
    assert(json.get("workloads").elements().asScala.map(_.get("name").asText).toSeq == Main.Workloads)
  }
}
