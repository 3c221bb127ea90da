package repro.svd

import repro.SparkSpec
import repro.graph.{Generators, Graph}
import repro.linalg.{Dense, DistMatrix, LocalMat}
import repro.ppr.ExactPPR

/** Distributed block-Krylov SVD vs the exact local SVD oracle. */
class BKSVDSpec extends SparkSpec {

  private def orthonormal(m: Array[Array[Double]], tol: Double = 1e-6): Unit = {
    val g = Dense.gram(m)
    for (i <- g.indices; j <- g.indices)
      assert(math.abs(g(i)(j) - (if (i == j) 1.0 else 0.0)) < tol, s"gram($i,$j)=${g(i)(j)}")
  }

  test("whiten produces orthonormal columns") {
    val x = DistMatrix.gaussian(spark, 40, 5, seed = 1)
    orthonormal(BKSVD.whiten(x).collectLocal())
  }

  test("iters follows the log(n)/sqrt(eps) schedule within clamps") {
    assert(BKSVD.iters(10, 0.9) >= 2)
    assert(BKSVD.iters(1000000, 0.01) <= 6)
    assert(BKSVD.iters(3000, 0.2) >= BKSVD.iters(3000, 0.8))
  }

  test("singular values match the exact SVD on the example graph") {
    val g = Generators.example9(spark)
    val exact = Dense.svdSmall(ExactPPR.adjacency(g))._2
    val got = BKSVD(g, kPrime = 4, eps = 0.1).sigma
    for (j <- 0 until 4)
      assert(math.abs(got(j) - exact(j)) < 0.05 * math.max(exact(j), 1.0),
        s"sigma($j): ${got(j)} vs ${exact(j)}")
  }

  test("U and V have orthonormal columns") {
    val g = Generators.dcsbm(spark, n = 150, avgDeg = 5, numLabels = 3, seed = 11).graph
    val r = BKSVD(g, kPrime = 8, eps = 0.2)
    orthonormal(r.u.collectLocal(), 1e-5)
    orthonormal(r.v.collectLocal(), 1e-5)
  }

  test("UΣVᵀ reconstructs A within the (1+eps)·sigma_{k+1} spectral bound") {
    val g = Generators.dcsbm(spark, n = 100, avgDeg = 4, numLabels = 2, seed = 12).graph
    val kP = 10
    val a = ExactPPR.adjacency(g)
    val exactSigma = Dense.svdSmall(a)._2
    val tail = if (exactSigma.length > kP) exactSigma(kP) else 0.0
    val r = BKSVD(g, kPrime = kP, eps = 0.2)
    val u = r.u.collectLocal(); val v = r.v.collectLocal()
    val us = Array.tabulate(100, kP)((i, j) => u(i)(j) * r.sigma(j))
    val rec = Dense.matmul(us, Dense.transpose(v))
    // max-norm error ≤ spectral-norm error ≤ (1+eps)·sigma_{k+1} (+ slack)
    var maxErr = 0.0
    for (i <- 0 until 100; j <- 0 until 100)
      maxErr = math.max(maxErr, math.abs(rec(i)(j) - a(i)(j)))
    assert(maxErr <= 1.3 * tail + 0.05, s"maxErr=$maxErr tail=$tail")
  }

  test("exactly-low-rank matrices are recovered (almost) exactly") {
    // a disjoint union of complete bipartite stars has low-rank adjacency
    val edges = for (u <- 0L until 5L; v <- 5L until 10L) yield (u, v)
    val g = Graph.fromLocal(spark, edges, n = 10, directed = false)
    val a = ExactPPR.adjacency(g)
    val r = BKSVD(g, kPrime = 2, eps = 0.1)
    val u = r.u.collectLocal(); val v = r.v.collectLocal()
    val us = Array.tabulate(10, 2)((i, j) => u(i)(j) * r.sigma(j))
    val rec = Dense.matmul(us, Dense.transpose(v))
    for (i <- 0 until 10; j <- 0 until 10)
      assert(math.abs(rec(i)(j) - a(i)(j)) < 1e-5, s"($i,$j)")
  }

  test("sigma is padded with zeros when rank < kPrime") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L)), n = 4, directed = false)
    val r = BKSVD(g, kPrime = 3, eps = 0.2)
    assert(r.sigma.length == 3)
    assert(r.sigma(0) > 0.9) // the single edge has singular value 1
    assert(r.sigma(2) < 1e-6)
    assert(r.u.k == 3 && r.v.k == 3)
  }

  private def product(u: Array[Array[Double]], s: Array[Double], v: Array[Array[Double]]) =
    Dense.matmul(Array.tabulate(u.length, s.length)((i, j) => u(i)(j) * s(j)), Dense.transpose(v))

  private def assertRankZero(r: BKSVD.Result[Array[Array[Double]]], n: Int, kP: Int): Unit = {
    assert(r.sigma.toSeq == Seq.fill(kP)(0.0))
    for (m <- Seq(r.u, r.v)) {
      assert(m.length == n && m.forall(_.length == kP))
      assert(m.forall(_.forall(_ == 0.0)))
    }
  }

  test("a rank-0 operator gives k' zero columns and zero sigma on Spark") {
    val g = Graph.fromLocal(spark, Seq.empty, n = 6, directed = true)
    val r = BKSVD(g, 3, 0.2)
    assert(r.u.k == 3 && r.v.k == 3)
    assertRankZero(BKSVD.Result(r.u.collectLocal(), r.sigma, r.v.collectLocal()), 6, 3)
  }

  test("a rank-0 operator gives k' zero columns and zero sigma locally") {
    assertRankZero(BKSVD(LocalMat.DenseMat(Array.ofDim[Double](6, 6)), 3, 0.2, seed = 20), 6, 3)
  }

  test("Spark adjacency and Graph.csr give the same factorization for one seed") {
    // Tolerances (σ, UΣVᵀ): on the DC-SBM the union whitening keeps a
    // direction at ~1.1e-10·λ_max, just above Dense.whitener's cut, which
    // lifts rounding-level differences between the two SpMMs to ~1e-8 in σ
    // and ~1e-7 in UΣVᵀ (max over seeds 1, 2, 3, 7, 20: 3.5e-8 and 7.3e-7).
    val graphs = Seq((Generators.example9(spark), 4, 1e-9, 1e-9),
      (Generators.dcsbm(spark, n = 150, avgDeg = 5, numLabels = 3, seed = 11).graph, 8, 1e-6, 1e-5))
    for ((g, kP, sigmaTol, productTol) <- graphs) {
      val dist = BKSVD(g, kP, 0.2, seed = 7)
      val local = BKSVD(g.csr, kP, 0.2, seed = 7)
      for (j <- 0 until kP)
        assert(math.abs(dist.sigma(j) - local.sigma(j)) <= sigmaTol,
          s"n=${g.n} sigma($j): ${dist.sigma(j)} vs ${local.sigma(j)}")
      val a = product(dist.u.collectLocal(), dist.sigma, dist.v.collectLocal())
      val b = product(local.u, local.sigma, local.v)
      val maxDiff = a.indices.map(i => a(i).indices.map(j => math.abs(a(i)(j) - b(i)(j))).max).max
      assert(maxDiff <= productTol, s"n=${g.n}: max |UΣVᵀ difference| = $maxDiff")
    }
  }

  test("result is deterministic in the seed") {
    val g = Generators.example9(spark)
    val a = BKSVD(g, 3, 0.2, seed = 5)
    val b = BKSVD(g, 3, 0.2, seed = 5)
    assert(a.sigma.toSeq == b.sigma.toSeq)
    assert(a.u.collectLocal().map(_.toSeq).toSeq == b.u.collectLocal().map(_.toSeq).toSeq)
  }
}
