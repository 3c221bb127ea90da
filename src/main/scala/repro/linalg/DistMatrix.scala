package repro.linalg

import org.apache.spark.sql.{DataFrame, Encoder, SparkSession}
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions._

/** A distributed tall-skinny dense matrix: n rows × k columns, held as a
  * DataFrame with columns `id: Long` (row index, dense over 0…n−1) and
  * `vec: Seq[Double]` (the row).
  *
  * This is the dataflow substrate of the reproduction: adjacency /
  * transition SpMM is a join + typed vector-sum aggregation against a
  * [[repro.graph.Graph]], Gram matrices are tree-aggregated k×k blocks,
  * and multiplication by small local matrices is a broadcast map. The
  * invariant that *every* id in 0…n−1 has exactly one row (zero rows
  * included) keeps row-wise zips joins-free of outer-join null handling.
  */
final case class DistMatrix(df: DataFrame, n: Long, k: Int) {

  @transient private lazy val spark: SparkSession = df.sparkSession

  /** Materialize and pin this matrix; cuts lineage for iterative algorithms. */
  def checkpointed(): DistMatrix = {
    val pinned = df.localCheckpoint(true)
    DistMatrix(pinned, n, k)
  }

  def cache(): DistMatrix = { df.cache(); this }
  def unpersist(): Unit = { df.unpersist() }

  /** Collect into a dense local n×k array (row i = node i). */
  def collectLocal(): Array[Array[Double]] = {
    val out = Array.ofDim[Double](n.toInt, k)
    df.collect().foreach { r =>
      val id = r.getLong(0).toInt
      val v = r.getSeq[Double](1)
      var j = 0
      while (j < k) { out(id)(j) = v(j); j += 1 }
    }
    out
  }

  /** Row-wise map through a local function (broadcast-closure) to rows of width `newK`. */
  def mapRows(f: (Long, Array[Double]) => Array[Double], newK: Int = k): DistMatrix = {
    import spark.implicits._
    val mapped = df.as[(Long, Seq[Double])]
      .map { case (id, v) => (id, f(id, v.toArray).toSeq) }
      .toDF("id", "vec")
    DistMatrix(mapped, n, newK)
  }

  /** Scale row i by `s(i)` (s is a driver array, broadcast in the closure). */
  def scaleRows(s: Array[Double]): DistMatrix =
    mapRows((id, v) => Dense.scale(v, s(id.toInt)))

  /** Uniform scalar multiple `c·X`. */
  def scaled(c: Double): DistMatrix = mapRows((_, v) => Dense.scale(v, c))

  /** Row-wise `this + c·other` (both matrices share the dense-id invariant). */
  def plus(other: DistMatrix, c: Double = 1.0): DistMatrix = {
    require(other.k == k && other.n == n, s"plus dim mismatch")
    import spark.implicits._
    val joined = df.join(other.df.withColumnRenamed("vec", "vec2"), "id")
      .select(col("id"), col("vec"), col("vec2"))
      .as[(Long, Seq[Double], Seq[Double])]
      .map { case (id, a, b) => (id, Dense.axpy(a.toArray, c, b.toArray).toSeq) }
      .toDF("id", "vec")
    DistMatrix(joined, n, k)
  }

  /** Column-concatenate `[this | other]` into an n×(k+k₂) matrix. */
  def concat(other: DistMatrix): DistMatrix = {
    require(other.n == n)
    import spark.implicits._
    val joined = df.join(other.df.withColumnRenamed("vec", "vec2"), "id")
      .select(col("id"), col("vec"), col("vec2"))
      .as[(Long, Seq[Double], Seq[Double])]
      .map { case (id, a, b) => (id, (a ++ b).toSeq) }
      .toDF("id", "vec")
    DistMatrix(joined, n, k + other.k)
  }

  /** Multiply on the right by a small local matrix `B` (k×k₂): `X·B`. */
  def timesLocal(b: Array[Array[Double]]): DistMatrix = {
    require(b.length == k, s"timesLocal dim mismatch: k=$k vs ${b.length}")
    val k2 = if (b.length == 0) 0 else b(0).length
    val bc = spark.sparkContext.broadcast(b)
    mapRows((_, v) => {
      val bl = bc.value
      val out = new Array[Double](k2)
      var l = 0
      while (l < k) {
        val vl = v(l)
        if (vl != 0.0) {
          val row = bl(l)
          var j = 0
          while (j < k2) { out(j) += vl * row(j); j += 1 }
        }
        l += 1
      }
      out
    }, newK = k2)
  }

  /** Gram matrix `XᵀX` as a small local k×k array: per-partition partial
    * grams (flattened k² rows) reduced on the driver.
    */
  def gram(): Array[Array[Double]] = {
    import spark.implicits._
    val kk = k
    val partials = df.select(col("vec")).as[Seq[Double]].mapPartitions { it =>
      val acc = new Array[Double](kk * kk)
      it.foreach { v =>
        var p = 0
        while (p < kk) {
          val vp = v(p)
          if (vp != 0.0) {
            var q = 0
            while (q < kk) { acc(p * kk + q) += vp * v(q); q += 1 }
          }
          p += 1
        }
      }
      Iterator.single(acc)
    }.collect()
    val flat = new Array[Double](kk * kk)
    partials.foreach { part =>
      var i = 0
      while (i < flat.length) { flat(i) += part(i); i += 1 }
    }
    Array.tabulate(kk, kk)((p, q) => flat(p * kk + q))
  }
}

object DistMatrix {

  /** Deterministic N(0,1) matrix: row i's entries are a pure function of
    * (seed, i), so regeneration is reproducible across partitions/retries.
    */
  def gaussian(spark: SparkSession, n: Long, k: Int, seed: Long): DistMatrix = {
    import spark.implicits._
    val dfG = spark.range(n).as[Long].map(id => (id, Dense.gaussianRow(seed, id, k).toSeq))
      .toDF("id", "vec")
    DistMatrix(dfG, n, k)
  }

  /** All-zero n×k matrix. */
  def zeros(spark: SparkSession, n: Long, k: Int): DistMatrix = {
    import spark.implicits._
    val dfz = spark.range(n).as[Long].map(id => (id, new Array[Double](k).toSeq)).toDF("id", "vec")
    DistMatrix(dfz, n, k)
  }

  /** Lift a local dense matrix (row i = node i) into a DistMatrix. */
  def fromLocal(spark: SparkSession, local: Array[Array[Double]]): DistMatrix = {
    import spark.implicits._
    val k = if (local.length == 0) 0 else local(0).length
    val dfL = local.zipWithIndex.map { case (v, i) => (i.toLong, v.toSeq) }.toSeq
      .toDF("id", "vec")
    DistMatrix(dfL, local.length.toLong, k)
  }

  /** Ensure every id 0…n−1 has a row, filling absentees with zero vectors
    * (SpMM aggregation only emits rows for nodes with ≥1 neighbor).
    */
  def densify(spark: SparkSession, sparseRows: DataFrame, n: Long, k: Int): DistMatrix = {
    import spark.implicits._
    val zeroVec = new Array[Double](k).toSeq
    val full = spark.range(n).toDF("id")
      .join(sparseRows, Seq("id"), "left")
      .as[(Long, Option[Seq[Double]])]
      .map { case (id, v) => (id, v.getOrElse(zeroVec)) }
      .toDF("id", "vec")
    DistMatrix(full, n, k)
  }

  /** Typed weighted-vector-sum aggregator used by the SpMM group-by; the
    * encoders are passed in from the call site's `spark.implicits`.
    */
  final class VecSumAgg(k: Int, bufEnc: Encoder[Array[Double]], outEnc: Encoder[Seq[Double]])
      extends Aggregator[(Long, Seq[Double]), Array[Double], Seq[Double]] {
    override def zero: Array[Double] = new Array[Double](k)
    override def reduce(b: Array[Double], a: (Long, Seq[Double])): Array[Double] = {
      val v = a._2
      var i = 0
      while (i < k) { b(i) += v(i); i += 1 }
      b
    }
    override def merge(b1: Array[Double], b2: Array[Double]): Array[Double] = {
      var i = 0
      while (i < k) { b1(i) += b2(i); i += 1 }
      b1
    }
    override def finish(b: Array[Double]): Seq[Double] = b.toSeq
    override def bufferEncoder: Encoder[Array[Double]] = bufEnc
    override def outputEncoder: Encoder[Seq[Double]] = outEnc
  }
}
