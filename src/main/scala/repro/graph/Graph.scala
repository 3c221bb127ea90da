package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.linalg.{DistMatrix, LocalMat, Operator}

/** A directed graph as a deduplicated, self-loop-free edge-list DataFrame
  * with columns `src: Long`, `dst: Long` over node ids `0 … n−1`.
  *
  * Undirected graphs are stored, as in the paper (Section 3.1), with both
  * orientations of every edge materialized; `directed` only records the
  * modelling intent (it changes evaluation, e.g. whether (u,v) and (v,u)
  * are distinct link-prediction pairs — not the algebra).
  *
  * Degree vectors are collected once to driver arrays: they are O(n)
  * longs, needed by every phase of NRP (D⁻¹ scaling, weight targets), and
  * n stays ≪ m for all graphs we run.
  * As an [[Operator]] it is its adjacency over [[DistMatrix]] blocks.
  */
final class Graph(val spark: SparkSession, val edges: DataFrame, val n: Long, val directed: Boolean)
    extends Operator[DistMatrix] {

  /** Number of (directed) edges. */
  lazy val m: Long = edges.count()

  /** Driver-local CSR adjacency (unit values), the one collect of the
    * edges behind every driver-local consumer: forward push, random walks,
    * the dense PPR oracle and edge membership. Rows are a stable counting
    * sort of the collected edges by `src`, so each row keeps collect order.
    */
  lazy val csr: LocalMat.SparseMat = {
    val nn = n.toInt
    val es = edges.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt))
    val offsets = new Array[Int](nn + 1)
    es.foreach { case (u, _) => offsets(u + 1) += 1 }
    var i = 0
    while (i < nn) { offsets(i + 1) += offsets(i); i += 1 }
    val pos = offsets.clone()
    val colIdx = new Array[Int](es.length)
    es.foreach { case (u, v) => colIdx(pos(u)) = v; pos(u) += 1 }
    LocalMat.SparseMat(nn, nn, offsets, colIdx, Array.fill(es.length)(1.0))
  }

  /** Undirected view (reversed edges added; `this` if undirected), shared by the undirected-only baselines. */
  lazy val undirected: Graph =
    if (directed) Graph.fromEdges(spark, edges, n, directed = false) else this

  /** Out-degree per node id, dense over 0…n−1 (missing nodes → 0). */
  lazy val outDeg: Array[Double] = degreeArray("src")

  /** In-degree per node id, dense over 0…n−1 (missing nodes → 0). */
  lazy val inDeg: Array[Double] = degreeArray("dst")

  /** 1/d_out(u), with dangling nodes (d_out = 0) mapped to 0 so that the
    * transition matrix row of a dangling node is identically zero (the
    * walk terminates there), matching the exact-PPR oracle.
    */
  lazy val invOutDeg: Array[Double] = outDeg.map(d => if (d > 0) 1.0 / d else 0.0)

  private def degreeArray(endpoint: String): Array[Double] = {
    val rows = edges.groupBy(col(endpoint).as("id")).agg(count(lit(1)).as("deg"))
      .collect()
    val arr = new Array[Double](n.toInt)
    rows.foreach(r => arr(r.getLong(0).toInt) = r.getLong(1).toDouble)
    arr
  }

  /** Degree table as a DataFrame (id, deg) — used by oracle-checked tests. */
  def degreeDf(endpoint: String): DataFrame =
    edges.groupBy(col(endpoint).as("id")).agg(count(lit(1)).as("deg"))

  /** The transpose graph (every edge reversed). */
  def reverse: Graph =
    new Graph(spark, edges.select(col("dst").as("src"), col("src").as("dst")), n, directed)

  /** Sparse-matrix × tall-skinny product `A·X`:
    * `(A·X)[u] = Σ_{(u,v)∈E} X[v]`.
    */
  def aMultiply(x: DistMatrix): DistMatrix = multiply(x, fromCol = "dst", toCol = "src")

  /** `Aᵀ·X`: `(AᵀX)[v] = Σ_{(u,v)∈E} X[u]`. */
  def aTMultiply(x: DistMatrix): DistMatrix = multiply(x, fromCol = "src", toCol = "dst")

  /** Transition-matrix product `P·X` with `P = D⁻¹A` (dangling rows zero). */
  def pMultiply(x: DistMatrix): DistMatrix = {
    val inv = invOutDeg
    aMultiply(x).scaleRows(inv)
  }

  def rows: Int = n.toInt
  def mult(b: DistMatrix): DistMatrix = aMultiply(b)
  def multT(b: DistMatrix): DistMatrix = aTMultiply(b)
  def gaussian(k: Int, seed: Long): DistMatrix = DistMatrix.gaussian(spark, n, k, seed)
  def gram(b: DistMatrix): Array[Array[Double]] = b.gram()
  def timesLocal(b: DistMatrix, w: Array[Array[Double]]): DistMatrix = b.timesLocal(w)
  def concat(a: DistMatrix, b: DistMatrix): DistMatrix = a.concat(b)
  def pin(b: DistMatrix): DistMatrix = b.checkpointed()

  private def multiply(x: DistMatrix, fromCol: String, toCol: String): DistMatrix = {
    val k = x.k
    import spark.implicits._
    val joined = edges
      .join(x.df.withColumnRenamed("id", "__xid"), col(fromCol) === col("__xid"))
      .select(col(toCol).as("gid"), col("vec"))
      .as[(Long, Seq[Double])]
    val agg = new DistMatrix.VecSumAgg(k,
      implicitly[org.apache.spark.sql.Encoder[Array[Double]]],
      implicitly[org.apache.spark.sql.Encoder[Seq[Double]]])
    val summed = joined
      .groupByKey(_._1)
      .agg(agg.toColumn)
      .toDF("id", "vec")
    DistMatrix.densify(spark, summed, n, k)
  }
}

object Graph {
  /** Build a graph from raw (possibly duplicated / self-looped) edges:
    * drops self-loops, deduplicates, and for undirected graphs adds the
    * reverse orientation before deduplication (paper Section 3.1).
    */
  def fromEdges(spark: SparkSession, raw: DataFrame, n: Long, directed: Boolean): Graph = {
    val base = raw.select(col("src").cast("long"), col("dst").cast("long"))
    val oriented = if (directed) base
      else base.union(base.select(col("dst").as("src"), col("src").as("dst")))
    val clean = oriented.filter(col("src") =!= col("dst")).distinct()
    new Graph(spark, clean.cache(), n, directed)
  }

  /** Build from an in-memory edge list (tests, the Fig.-1 example graph). */
  def fromLocal(spark: SparkSession, edges: Seq[(Long, Long)], n: Long, directed: Boolean): Graph = {
    import spark.implicits._
    fromEdges(spark, edges.toDF("src", "dst"), n, directed)
  }
}
