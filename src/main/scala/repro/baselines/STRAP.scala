package repro.baselines

import repro.graph.Graph
import repro.linalg.LocalMat
import repro.ppr.ForwardPush
import repro.svd.BKSVD

/** STRAP (Yin & Wei, KDD'19) — scalable graph embedding via sparse
  * transpose proximities. Compute δ-approximate PPR by forward push on G
  * and on its transpose, form the sparse transpose-proximity matrix
  * `M = Π̂ + Π̂ᵀ_rev` keeping entries > δ/2, and factorize it with
  * [[BKSVD]] (at the paper's ε = 0.2) into `X = U√Σ`, `Y = V√Σ`.
  *
  * The O(n/δ) matrix is materialized driver-locally — the very space cost
  * that (per the paper, §2) stops STRAP from scaling; we run it only on
  * the small/medium graphs, as the paper does.
  */
object STRAP {

  def apply(g: Graph, k: Int, alpha: Double = 0.15, delta: Double = 1e-4,
            seed: Long = 33): Emb = {
    val n = g.n.toInt
    val kPrime = math.max(1, k / 2)
    val fwd = ForwardPush.allSources(g, alpha, delta)
    val bwd = ForwardPush.allSources(g.reverse, alpha, delta)
    val keep = delta / 2
    val triples = Iterator.range(0, n).flatMap { s =>
      fwd(s).iterator.collect { case (t, p) if p > keep => (s, t.toInt, p) } ++
        bwd(s).iterator.collect { case (t, p) if p > keep => (t.toInt, s, p) }
    }
    val m = LocalMat.csrFromTriples(n, n, triples)
    val svd = BKSVD(m, kPrime, 0.2, seed)
    val x = Array.tabulate(n, kPrime)((i, j) => svd.u(i)(j) * math.sqrt(svd.sigma(j)))
    val y = Array.tabulate(n, kPrime)((i, j) => svd.v(i)(j) * math.sqrt(svd.sigma(j)))
    Emb(x, y)
  }
}
