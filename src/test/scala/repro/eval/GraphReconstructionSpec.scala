package repro.eval

import repro.{Oracle, SparkSpec}
import repro.baselines.Emb
import repro.graph.{Generators, Graph}
import repro.ppr.ExactPPR

/** Graph-reconstruction protocol tests with a DuckDB top-K oracle. */
class GraphReconstructionSpec extends SparkSpec {

  test("BoundedTopK keeps the K largest offers") {
    val h = new GraphReconstruction.BoundedTopK(3)
    Seq(5.0, 1.0, 9.0, 3.0, 7.0).zipWithIndex.foreach { case (s, i) => h.offer(s, i.toLong) }
    val kept = h.drain().map(_._1).sorted
    assert(kept == Seq(5.0, 7.0, 9.0))
  }

  test("BoundedTopK with fewer offers than capacity keeps all") {
    val h = new GraphReconstruction.BoundedTopK(10)
    h.offer(1.0, 1); h.offer(2.0, 2)
    assert(h.drain().size == 2)
  }

  test("an adjacency-oracle embedding reconstructs perfectly") {
    val g = Generators.example9(spark)
    // adjacency rows as embeddings: score(u,v) = A[u,:]·A[v,:]… not exact.
    // Use the exact PPR matrix rows against indicator columns instead:
    // x(u) = Π row u, y(v) = e_v → score = π(u,v), whose top pairs on this
    // graph are exactly the edges.
    val pi = ExactPPR.ppr(g, 0.15)
    val y = Array.tabulate(9, 9)((i, j) => if (i == j) 1.0 else 0.0)
    // zero out the diagonal influence: score(u,v)=π(u,v) for u≠v is enough
    val prec = GraphReconstruction.precisionAtK(Emb(pi, y), g, Seq(10, 24))
    // exact values (verified offline): 0.9 and 0.9167 — the one intruder in
    // the top-10 is (v9,v7), the very deficiency pair of Section 1.
    assert(math.abs(prec(10) - 0.9) < 1e-9, s"prec@10=${prec(10)}")
    assert(math.abs(prec(24) - 22.0 / 24) < 1e-9, s"prec@24=${prec(24)}")
  }

  test("precision@K matches a DuckDB top-K computed on the same scores") {
    val g = Generators.example9(spark)
    val rng = new scala.util.Random(8)
    val x = Array.fill(9, 4)(rng.nextGaussian())
    val emb = Emb(x, x)
    val kTop = 20
    val prec = GraphReconstruction.precisionAtK(emb, g, Seq(kTop))(kTop)
    // DuckDB: rank all ordered pairs by the same scores, count edge hits.
    import spark.implicits._
    val scores = (for (u <- 0 until 9; v <- 0 until 9 if u != v)
      yield (u.toLong, v.toLong, emb.score(u, v))).toDF("src", "dst", "score")
    val expected = Seq(prec).toDF("prec")
    Oracle.assertEquivalent(expected,
      s"""SELECT CAST(hits AS DOUBLE) / $kTop AS prec FROM (
         |  SELECT COUNT(*) AS hits FROM (
         |    SELECT s.src, s.dst FROM scores s
         |    ORDER BY CAST(s.score AS DOUBLE) DESC, CAST(s.src AS BIGINT)*9 + CAST(s.dst AS BIGINT)
         |    LIMIT $kTop
         |  ) top JOIN edges e ON top.src = e.src AND top.dst = e.dst)""".stripMargin,
      "scores" -> scores, "edges" -> g.edges)
  }

  test("sampling a fraction of pairs still returns all requested Ks") {
    val g = Generators.dcsbm(spark, n = 200, avgDeg = 4, numLabels = 2, seed = 71).graph
    val rng = new scala.util.Random(9)
    val x = Array.fill(200, 4)(rng.nextGaussian())
    val prec = GraphReconstruction.precisionAtK(Emb(x, x), g, Seq(10, 50), sampleFrac = 0.3)
    assert(prec.keySet == Set(10, 50))
    assert(prec.values.forall(p => p >= 0.0 && p <= 1.0))
  }

  test("Graph.csr membership encodes all edges") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L), (2L, 0L)), n = 3, directed = true)
    val csr = g.csr
    assert(csr.contains(0, 1))
    assert(csr.contains(2, 0))
    assert((for (u <- 0 until 3; v <- 0 until 3) yield csr.contains(u, v)).count(identity) == 2)
  }
}
