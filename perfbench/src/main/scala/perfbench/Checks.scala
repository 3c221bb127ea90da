package perfbench

import repro.core.NodeWeights

/** Output checks and the exact-PPR reference the benchmark computes itself. */
object Checks {

  /** Problems with an n×k′ embedding pair: shape or non-finite entries. */
  def embeddingProblems(x: Array[Array[Double]], y: Array[Array[Double]], n: Int, kPrime: Int): Seq[String] = {
    def bad(m: Array[Array[Double]]): Boolean =
      m.length != n || m.exists(r => r.length != kPrime || r.exists(v => !java.lang.Double.isFinite(v)))
    Seq(bad(x) -> s"x is not a finite ${n}x$kPrime matrix", bad(y) -> s"y is not a finite ${n}x$kPrime matrix")
      .collect { case (true, msg) => msg }
  }

  /** Problems with learned weights: wrong length, non-finite or below 1/n. */
  def weightProblems(w: NodeWeights.Weights, n: Int): Seq[String] = {
    def bad(a: Array[Double]): Boolean = a.length != n || a.exists(v => !(v >= 1.0 / n) || v.isInfinite)
    Seq(bad(w.wf) -> "forward weights below 1/n or not finite", bad(w.wb) -> "backward weights below 1/n or not finite")
      .collect { case (true, msg) => msg }
  }

  /** Share of all 2n weights sitting on the 1/n floor. */
  def floorFrac(w: NodeWeights.Weights, n: Int): Double =
    (w.wf.count(_ <= 1.0 / n) + w.wb.count(_ <= 1.0 / n)).toDouble / (2 * n)

  /** Out-adjacency in CSR form. */
  final class Csr(val n: Int, edges: Array[(Long, Long)]) {
    val start: Array[Int] = {
      val s = new Array[Int](n + 1)
      edges.foreach { case (u, _) => s(u.toInt + 1) += 1 }
      for (i <- 0 until n) s(i + 1) += s(i)
      s
    }
    val dst: Array[Int] = {
      val fill = start.clone()
      val d = new Array[Int](edges.length)
      edges.foreach { case (u, v) => d(fill(u.toInt)) = v.toInt; fill(u.toInt) += 1 }
      d
    }
    def outDeg(u: Int): Int = start(u + 1) - start(u)
  }

  /** Exact truncated PPR row π′(u,·) = Σ_{i=1…ℓ₁} α(1−α)^i (e_u Pⁱ), by
    * sparse power iteration (dangling rows of P are zero).
    */
  def pprRow(g: Csr, u: Int, alpha: Double, l1: Int): Array[Double] = {
    var r = new Array[Double](g.n)
    r(u) = 1.0
    val acc = new Array[Double](g.n)
    var coef = alpha
    for (_ <- 1 to l1) {
      val next = new Array[Double](g.n)
      var w = 0
      while (w < g.n) {
        val d = g.outDeg(w)
        if (r(w) != 0.0 && d > 0) {
          val share = r(w) / d
          var e = g.start(w)
          while (e < g.start(w + 1)) { next(g.dst(e)) += share; e += 1 }
        }
        w += 1
      }
      r = next
      coef *= (1 - alpha)
      var v = 0
      while (v < g.n) { acc(v) += coef * r(v); v += 1 }
    }
    acc
  }

  /** Sources for the PPR check: every node with an out-edge. */
  def sources(g: Csr): Array[Int] = (0 until g.n).filter(g.outDeg(_) > 0).toArray

  /** Fit of X·Yᵀ, with the weights divided out, to the exact rows.
    * `maxErr` is max over sources u and v ≠ u of |π′(u,v) − X_u·Y_v / (w⃗_u w⃖_v)|;
    * `relErr` is the Frobenius norm of that residual over the norm of
    * the rows (1 for an all-zero embedding).
    */
  final case class PprFit(maxErr: Double, relErr: Double)

  def pprFit(exact: Map[Int, Array[Double]], x: Array[Array[Double]], y: Array[Array[Double]],
             w: NodeWeights.Weights): PprFit = {
    var worst = 0.0
    var res2 = 0.0
    var norm2 = 0.0
    exact.foreach { case (u, row) =>
      val xu = x(u)
      var v = 0
      while (v < row.length) {
        if (v != u) {
          val yv = y(v)
          var dot = 0.0
          var j = 0
          while (j < xu.length) { dot += xu(j) * yv(j); j += 1 }
          val d = row(v) - dot / (w.wf(u) * w.wb(v))
          worst = math.max(worst, math.abs(d))
          res2 += d * d
          norm2 += row(v) * row(v)
        }
        v += 1
      }
    }
    PprFit(worst, math.sqrt(res2 / norm2))
  }
}
