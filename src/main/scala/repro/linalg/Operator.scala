package repro.linalg

/** What the block-Krylov SVD ([[repro.svd.BKSVD]]) needs of a rows×cols
  * matrix A and of the tall-skinny blocks `B` it multiplies. Instances: a
  * [[repro.graph.Graph]] (its adjacency over Spark [[DistMatrix]] blocks)
  * and [[LocalMat.Mat]] (over driver-local `Array[Array[Double]]` blocks).
  */
trait Operator[B] {
  /** Rows of A; sets the Krylov depth ([[repro.svd.BKSVD.iters]]). */
  def rows: Int
  /** `A · b`, with b cols×k. */
  def mult(b: B): B
  /** `Aᵀ · b`, with b rows×k. */
  def multT(b: B): B
  /** A cols×k N(0,1) block; row i is [[Dense.gaussianRow]]`(seed, i, k)`. */
  def gaussian(k: Int, seed: Long): B
  /** `bᵀb`, a small local k×k matrix. */
  def gram(b: B): Array[Array[Double]]
  /** `b · w` for a small local k×k₂ matrix w. */
  def timesLocal(b: B, w: Array[Array[Double]]): B
  /** Column concatenation `[a | b]`. */
  def concat(a: B, b: B): B
  /** Materialize a block later steps reuse: checkpoint on Spark, identity locally. */
  def pin(b: B): B
}
