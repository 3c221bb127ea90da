package repro.linalg

/** Driver-local matrices, [[Operator]]s over `Array[Array[Double]]` blocks:
  * the n×n proximity matrices STRAP, NetMF and DNGR-lite materialize by
  * design (the scalability liability the paper attributes to them, so
  * they run on small/medium graphs only) and [[repro.graph.Graph.csr]].
  */
object LocalMat {

  /** Blocks are dense row-major arrays; their algebra is plain local arithmetic. */
  trait Mat extends Operator[Array[Array[Double]]] {
    def cols: Int

    def gaussian(k: Int, seed: Long): Array[Array[Double]] =
      Array.tabulate(cols)(i => Dense.gaussianRow(seed, i, k))
    def gram(b: Array[Array[Double]]): Array[Array[Double]] = Dense.gram(b)
    def timesLocal(b: Array[Array[Double]], w: Array[Array[Double]]): Array[Array[Double]] =
      Dense.matmul(b, w)
    def concat(a: Array[Array[Double]], b: Array[Array[Double]]): Array[Array[Double]] =
      Array.tabulate(a.length)(i => a(i) ++ b(i))
    def pin(b: Array[Array[Double]]): Array[Array[Double]] = b
  }

  /** Dense row-major matrix; `mult` is row-parallel (fork-join). */
  final case class DenseMat(a: Array[Array[Double]]) extends Mat {
    def rows: Int = a.length
    def cols: Int = if (a.isEmpty) 0 else a(0).length
    def mult(b: Array[Array[Double]]): Array[Array[Double]] = {
      val k = b(0).length
      val out = Array.ofDim[Double](rows, k)
      java.util.stream.IntStream.range(0, rows).parallel().forEach { i =>
        val ai = a(i); val oi = out(i)
        var l = 0
        while (l < cols) {
          val c = ai(l)
          if (c != 0.0) {
            val bl = b(l)
            var j = 0
            while (j < k) { oi(j) += c * bl(j); j += 1 }
          }
          l += 1
        }
      }
      out
    }
    def multT(b: Array[Array[Double]]): Array[Array[Double]] = {
      val k = b(0).length
      val out = Array.ofDim[Double](cols, k)
      // serial: input row i scatters into every out row, so parallel rows would race
      var i = 0
      while (i < rows) {
        val ai = a(i); val bi = b(i)
        var l = 0
        while (l < cols) {
          val c = ai(l)
          if (c != 0.0) {
            val ol = out(l)
            var j = 0
            while (j < k) { ol(j) += c * bi(j); j += 1 }
          }
          l += 1
        }
        i += 1
      }
      out
    }
  }

  /** CSR sparse matrix (values included). */
  final case class SparseMat(rows: Int, cols: Int, offsets: Array[Int],
                             colIdx: Array[Int], values: Array[Double]) extends Mat {
    /** Stored entries in row i (the out-degree, for a graph's adjacency). */
    def rowNnz(i: Int): Int = offsets(i + 1) - offsets(i)
    /** Whether row i stores an entry in column j (O(rowNnz(i)) scan). */
    def contains(i: Int, j: Int): Boolean = {
      var e = offsets(i)
      while (e < offsets(i + 1) && colIdx(e) != j) e += 1
      e < offsets(i + 1)
    }
    def mult(b: Array[Array[Double]]): Array[Array[Double]] = {
      val k = b(0).length
      val out = Array.ofDim[Double](rows, k)
      java.util.stream.IntStream.range(0, rows).parallel().forEach { i =>
        val oi = out(i)
        var e = offsets(i)
        while (e < offsets(i + 1)) {
          val c = values(e); val bl = b(colIdx(e))
          var j = 0
          while (j < k) { oi(j) += c * bl(j); j += 1 }
          e += 1
        }
      }
      out
    }
    def multT(b: Array[Array[Double]]): Array[Array[Double]] = {
      val k = b(0).length
      val out = Array.ofDim[Double](cols, k)
      var i = 0
      while (i < rows) {
        val bi = b(i)
        var e = offsets(i)
        while (e < offsets(i + 1)) {
          val c = values(e); val ol = out(colIdx(e))
          var j = 0
          while (j < k) { ol(j) += c * bi(j); j += 1 }
          e += 1
        }
        i += 1
      }
      out
    }
  }

  /** Build a CSR matrix from (row, col, value) triples (duplicates summed). */
  def csrFromTriples(n: Int, nCols: Int, triples: Iterator[(Int, Int, Double)]): SparseMat = {
    val rowsBuf = Array.fill(n)(new scala.collection.mutable.LongMap[Double]())
    triples.foreach { case (r, c, v) =>
      val m = rowsBuf(r)
      m(c) = m.getOrElse(c, 0.0) + v
    }
    val offsets = new Array[Int](n + 1)
    var i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + rowsBuf(i).size; i += 1 }
    val colIdx = new Array[Int](offsets(n))
    val values = new Array[Double](offsets(n))
    i = 0
    while (i < n) {
      var p = offsets(i)
      rowsBuf(i).foreach { case (c, v) => colIdx(p) = c.toInt; values(p) = v; p += 1 }
      i += 1
    }
    SparseMat(n, nCols, offsets, colIdx, values)
  }
}
