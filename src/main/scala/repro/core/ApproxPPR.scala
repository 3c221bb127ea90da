package repro.core

import repro.graph.Graph
import repro.linalg.DistMatrix
import repro.svd.BKSVD

/** Algorithm 1 — ApproxPPR: implicit factorization of the truncated PPR
  * matrix `Π′ = Σ_{i=1…ℓ₁} α(1−α)^i P^i` into forward/backward embeddings
  * `X Yᵀ ≈ Π′`, without materializing Π.
  *
  * `BKSVD(A) = UΣVᵀ` seeds `X₁ = D⁻¹U√Σ`, `Y = V√Σ` (so `X₁Yᵀ ≈ P`);
  * then `Xᵢ = (1−α)·P·Xᵢ₋₁ + X₁` for ℓ₁−1 steps and a final scaling by
  * `α(1−α)` gives `X = Σ_{i=1…ℓ₁} α(1−α)^i P^{i−1} X₁`. Theorem 1 bounds
  * `|Π[u,v] − (XYᵀ)[u,v]|` for u≠v by
  * `(1+ε)σ_{k′+1}(1−α)(1−(1−α)^{ℓ₁}) + (1−α)^{ℓ₁+1}`.
  */
object ApproxPPR {

  /** Forward (`x`) and backward (`y`) embedding matrices, n×k′ each. */
  final case class Embeddings(x: DistMatrix, y: DistMatrix) {
    def local: LocalEmb = LocalEmb(x.collectLocal(), y.collectLocal())
  }

  /** Driver-local copy of the embeddings used by reweighting + evaluation. */
  final case class LocalEmb(x: Array[Array[Double]], y: Array[Array[Double]])

  def apply(g: Graph, kPrime: Int, alpha: Double = 0.15, l1: Int = 20,
            eps: Double = 0.2, seed: Long = 20): Embeddings = {
    val (y, xs) = chain(g, kPrime, alpha, Seq(l1), eps, seed)(_.checkpointed())
    Embeddings(xs(l1), y)
  }

  /** Run one BKSVD + iteration chain but snapshot the embeddings at every
    * requested ℓ₁ — an ℓ₁-sweep (Fig. 8c / 11a) for the price of one run.
    */
  def sweep(g: Graph, kPrime: Int, alpha: Double, l1Values: Seq[Int],
            eps: Double = 0.2, seed: Long = 20): Map[Int, LocalEmb] = {
    val (y, xs) = chain(g, kPrime, alpha, l1Values, eps, seed)(_.collectLocal())
    val yLocal = y.collectLocal()
    xs.map { case (l1, x) => l1 -> LocalEmb(x, yLocal) }
  }

  /** BKSVD, X₁ and Y, then the ℓ₁ loop up to the largest requested ℓ₁,
    * passing `α(1−α)·Xᵢ` to `snap` at each requested i. Returns Y (already
    * checkpointed) and the snapshots by ℓ₁.
    */
  private def chain[T](g: Graph, kPrime: Int, alpha: Double, l1Values: Seq[Int],
                       eps: Double, seed: Long)(snap: DistMatrix => T): (DistMatrix, Map[Int, T]) = {
    require(l1Values.nonEmpty && l1Values.forall(_ >= 1), s"l1 values must be >= 1, got $l1Values")
    val svd = BKSVD(g, kPrime, eps, seed)
    val sqrtSigma = diag(svd.sigma.map(math.sqrt))
    val x1 = svd.u.timesLocal(sqrtSigma).scaleRows(g.invOutDeg).checkpointed().cache()
    val y = svd.v.timesLocal(sqrtSigma).checkpointed()
    val want = l1Values.toSet
    var x = x1
    val out = (1 to l1Values.max).flatMap { i =>
      // Xᵢ = (1−α)·P·Xᵢ₋₁ + X₁ — checkpoint each step to bound lineage.
      if (i > 1) x = x1.plus(g.pMultiply(x), 1 - alpha).checkpointed()
      if (want(i)) Some(i -> snap(x.scaled(alpha * (1 - alpha)))) else None
    }.toMap
    x1.unpersist()
    (y, out)
  }

  private def diag(d: Array[Double]): Array[Array[Double]] =
    Array.tabulate(d.length, d.length)((i, j) => if (i == j) d(i) else 0.0)
}
