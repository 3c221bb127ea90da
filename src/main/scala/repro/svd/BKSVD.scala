package repro.svd

import repro.linalg.{Dense, DistMatrix, Operator}

/** Randomized Block-Krylov SVD (Musco & Musco, NIPS'15), written once over
  * an [[Operator]]: a graph's adjacency on Spark (ApproxPPR, AROPE) or a
  * driver-local matrix (STRAP, NetMF, the graph's CSR).
  *
  * Build the Krylov space `K = [AG, (AAᵀ)AG, …, (AAᵀ)^{q−1}AG]` with a
  * Gaussian start block `G` (cols×k′), orthonormalize (Gram-whitening, per
  * block for numerical stability and once more for the union), project:
  * `Z = AᵀQ`, `M = ZᵀZ = Qᵀ(AAᵀ)Q`, eigendecompose the small `M` (cyclic
  * Jacobi), and read off `U = QW`, `σ = √λ`, `V = AᵀUΣ⁻¹ = ZWΣ⁻¹`, so
  * `A ≈ UΣVᵀ` with the (1+ε)·σ_{k′+1} spectral guarantee the ApproxPPR
  * error bound (Theorem 1) builds on.
  *
  * All row-sized operations go through the operator; only s×s problems
  * with `s ≤ k′·(q+1)` are solved here, on the driver.
  */
object BKSVD {

  /** `A ≈ U · diag(sigma) · Vᵀ`; U is rows×k′ and V cols×k′ (zero-padded
    * columns if the numerical rank fell short of k′), sigma descending.
    */
  final case class Result[B](u: B, sigma: Array[Double], v: B)

  /** Krylov iteration count from the error threshold ε — the `log n / √ε`
    * schedule of the paper's complexity analysis, clamped to keep the
    * projected problem small.
    */
  def iters(n: Long, eps: Double): Int =
    math.max(2, math.min(6, math.ceil(math.log(n.toDouble + 1) / (2.0 * math.sqrt(eps))).toInt))

  def apply[B](a: Operator[B], kPrime: Int, eps: Double, seed: Long = 20): Result[B] = {
    val q = iters(a.rows, eps)
    def whiten(b: B): B = a.pin(a.timesLocal(b, Dense.whitener(a.gram(b))))

    // Krylov blocks, each whitened before powering on (classic re-orth).
    val start = a.gaussian(kPrime, seed)
    val ag = a.mult(start)
    var block = whiten(ag)
    var blocks = List(block)
    for (_ <- 2 to q) {
      block = whiten(a.mult(a.multT(block)))
      blocks = block :: blocks
    }
    val qMat = whiten(blocks.reverse.reduce(a.concat))

    val z = a.pin(a.multT(qMat))
    val eig = Dense.eigSym(a.gram(z))
    val r = eig.values.length
    if (r == 0) { // A is numerically zero: U = (AG)·0, V = G·0 keep k′ columns
      val zero = Array.ofDim[Double](kPrime, kPrime)
      return Result(a.pin(a.timesLocal(ag, zero)), new Array[Double](kPrime), a.pin(a.timesLocal(start, zero)))
    }
    val take = math.min(kPrime, r)
    val sigma = Array.tabulate(kPrime)(j =>
      if (j < take) math.sqrt(math.max(eig.values(j), 0.0)) else 0.0)
    // W padded to r×kPrime so U,V always have exactly kPrime columns.
    val w = Array.tabulate(r, kPrime)((i, j) => if (j < take) eig.vectors(i)(j) else 0.0)
    val u = a.pin(a.timesLocal(qMat, w))
    val wScaled = Array.tabulate(r, kPrime)((i, j) =>
      if (j < take && sigma(j) > 1e-12) eig.vectors(i)(j) / sigma(j) else 0.0)
    val v = a.pin(a.timesLocal(z, wScaled))
    Result(u, sigma, v)
  }

  /** Orthonormalize the columns of a tall-skinny DistMatrix via
    * Gram-whitening (rank-deficient directions dropped), returning a
    * materialized (checkpointed) matrix.
    */
  def whiten(x: DistMatrix): DistMatrix =
    x.timesLocal(Dense.whitener(x.gram())).checkpointed()
}
