package repro.core

import repro.graph.Graph
import scala.util.Random

/** Algorithm 3 — the complete NRP pipeline.
  *
  * 1. k′ = k/2; run [[ApproxPPR]] (distributed) for initial X, Y with
  *    `XYᵀ ≈ Π′`.
  * 2. Initialize w⃗_v = d_out(v), w⃖_v = 1.
  * 3. ℓ₂ coordinate-descent epochs ([[NodeWeights.epoch]]), each one
  *    backward then one forward pass of the direction-parameterised
  *    weight sweep.
  * 4. Final embeddings X_v ← w⃗_v·X_v, Y_v ← w⃖_v·Y_v, so that
  *    `X_u·Y_v ≈ w⃗_u·π(u,v)·w⃖_v` (Eq. 4).
  *
  * Overall O(k(m+kn)log n) time / O(m+nk) space, as analysed in §4.4.
  */
object NRP {

  /** Paper defaults (§5.1): ℓ₁=20, ℓ₂=10, α=0.15, ε=0.2, λ=10. */
  final case class Params(k: Int = 128, alpha: Double = 0.15, l1: Int = 20,
                          l2: Int = 10, eps: Double = 0.2, lambda: Double = 10.0,
                          seed: Long = 20)

  /** Final forward/backward embeddings plus the learned weights (exposed
    * for the reweighting-diagnostics tests).
    */
  final case class Result(x: Array[Array[Double]], y: Array[Array[Double]],
                          weights: NodeWeights.Weights)

  def apply(g: Graph, params: Params = Params()): Result = {
    val emb = ApproxPPR(g, math.max(1, params.k / 2), params.alpha, params.l1, params.eps, params.seed)
    val local = emb.local
    emb.x.unpersist(); emb.y.unpersist()
    reweight(g, local.x, local.y, params)
  }

  /** The reweighting stage alone, given ApproxPPR's output — lets the
    * parameter-sweep benches share one ApproxPPR run across ℓ₂ values.
    * At ℓ₂ = 0 the embeddings are scaled by the initial weights.
    */
  def reweight(g: Graph, x0: Array[Array[Double]], y0: Array[Array[Double]],
               params: Params): Result =
    descend(g, x0, y0, params, Seq(params.l2))(params.l2)

  /** Run the descent once but snapshot the rescaled embeddings at every
    * requested ℓ₂ — an ℓ₂-sweep (Fig. 8d / 11b) for the price of one run.
    * ℓ₂ = 0 means "reweighting disabled": per the paper's reading of
    * Fig. 8d it is the *plain ApproxPPR* embedding (unit weights), not the
    * descent initialization.
    */
  def reweightSweep(g: Graph, x0: Array[Array[Double]], y0: Array[Array[Double]],
                    params: Params, l2Values: Seq[Int]): Map[Int, Result] = {
    val out = descend(g, x0, y0, params, l2Values)
    if (!out.contains(0)) out
    else {
      val unit = Array.fill(g.n.toInt)(1.0)
      out.updated(0, Result(x0.map(_.clone()), y0.map(_.clone()), NodeWeights.Weights(unit, unit.clone())))
    }
  }

  /** ℓ₂ epochs from the paper initialization, with the embeddings rescaled
    * by the current weights after each epoch in `l2Values` (0 = before the
    * first epoch).
    */
  private def descend(g: Graph, x0: Array[Array[Double]], y0: Array[Array[Double]],
                      params: Params, l2Values: Seq[Int]): Map[Int, Result] = {
    require(l2Values.nonEmpty && l2Values.forall(_ >= 0), s"l2 values must be >= 0, got $l2Values")
    val w = NodeWeights.init(g.outDeg)
    val rng = new Random(params.seed)
    val want = l2Values.toSet
    (0 to l2Values.max).flatMap { epoch =>
      if (epoch > 0) NodeWeights.epoch(x0, y0, g.outDeg, g.inDeg, w, params.lambda, rng)
      if (want(epoch)) Some(epoch -> rescaled(x0, y0, NodeWeights.Weights(w.wf.clone(), w.wb.clone())))
      else None
    }.toMap
  }

  /** Final embeddings X_v·w⃗_v, Y_v·w⃖_v (step 4 above). */
  private def rescaled(x0: Array[Array[Double]], y0: Array[Array[Double]],
                       w: NodeWeights.Weights): Result =
    Result(Array.tabulate(x0.length)(v => x0(v).map(_ * w.wf(v))),
           Array.tabulate(y0.length)(v => y0(v).map(_ * w.wb(v))), w)
}
