package repro.ppr

import repro.SparkSpec
import repro.graph.{Generators, Graph}

/** Forward-push approximate PPR (the STRAP substrate) vs the exact oracle. */
class ForwardPushSpec extends SparkSpec {

  private lazy val g9 = Generators.example9(spark)

  test("csr reproduces degrees and neighbor sets") {
    val c = g9.csr
    assert(c.rows == 9)
    assert((0 until 9).map(c.rowNnz(_).toDouble) == g9.outDeg.toSeq)
    val n0 = (c.offsets(0) until c.offsets(1)).map(c.colIdx).sorted
    assert(n0 == Seq(1, 2, 3)) // v1 ~ {v2, v3, v4}
  }

  test("push reserves are close to exact PPR (tight rmax)") {
    val exact = ExactPPR.ppr(g9, 0.15)
    val c = g9.csr
    for (s <- 0 until 9) {
      val approx = ForwardPush.push(c, s, 0.15, rmax = 1e-7)
      for (t <- 0 until 9)
        assert(math.abs(approx.getOrElse(t, 0.0) - exact(s)(t)) < 1e-4, s"pi($s,$t)")
    }
  }

  test("push error scales with rmax (loose threshold stays bounded)") {
    val exact = ExactPPR.ppr(g9, 0.15)
    val c = g9.csr
    val approx = ForwardPush.push(c, 0, 0.15, rmax = 1e-2)
    for (t <- 0 until 9)
      assert(approx.getOrElse(t, 0.0) <= exact(0)(t) + 1e-9,
        "forward-push reserves never overshoot the exact PPR")
  }

  test("reserve mass sums to at most 1") {
    val c = g9.csr
    for (s <- 0 until 9) {
      val p = ForwardPush.push(c, s, 0.15, rmax = 1e-5)
      assert(p.values.sum <= 1.0 + 1e-9)
      assert(p.values.forall(_ >= 0))
    }
  }

  test("allSources covers every node and matches per-source push") {
    val all = ForwardPush.allSources(g9, 0.15, 1e-6)
    assert(all.length == 9)
    val c = g9.csr
    val single = ForwardPush.push(c, 4, 0.15, 1e-6)
    assert(all(4).toSeq.sortBy(_._1) == single.toSeq.sortBy(_._1))
  }

  test("push handles dangling nodes without losing termination") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L)), n = 2, directed = true)
    val c = g.csr
    val p = ForwardPush.push(c, 0, 0.15, 1e-8)
    val exact = ExactPPR.ppr(g, 0.15)
    assert(math.abs(p.getOrElse(0, 0.0) - exact(0)(0)) < 1e-6)
    assert(math.abs(p.getOrElse(1, 0.0) - exact(0)(1)) < 1e-6)
  }

  test("push on a larger random graph stays within the additive bound") {
    val g = Generators.dcsbm(spark, n = 120, avgDeg = 4, numLabels = 3, seed = 21).graph
    val exact = ExactPPR.ppr(g, 0.15)
    val c = g.csr
    val rmax = 1e-5
    for (s <- Seq(0, 17, 63, 119)) {
      val approx = ForwardPush.push(c, s, 0.15, rmax)
      for (t <- 0 until 120) {
        val diff = exact(s)(t) - approx.getOrElse(t, 0.0)
        assert(diff >= -1e-9 && diff < 0.01, s"pi($s,$t) diff=$diff")
      }
    }
  }
}
