package repro.linalg

/** Local dense linear-algebra kernels, written from scratch.
  *
  * These back the *small* projected problems inside the randomized
  * block-Krylov SVD ([[repro.svd.BKSVD]]) — Gram matrices, whitening,
  * and symmetric eigendecompositions of s×s matrices with s ≈ k′·(q+1)
  * (a few hundred at most) — plus the driver-local reference math used
  * throughout the test suites. Matrices are row-major
  * `Array[Array[Double]]`; all operations are pure (inputs untouched).
  */
object Dense {

  /** Dense matrix product `A · B` (dims: (r×s)·(s×c) → r×c). */
  def matmul(a: Array[Array[Double]], b: Array[Array[Double]]): Array[Array[Double]] = {
    val r = a.length; val s = if (r == 0) 0 else a(0).length
    val c = if (b.length == 0) 0 else b(0).length
    require(b.length == s, s"matmul dim mismatch: ${r}x$s vs ${b.length}x$c")
    val out = Array.ofDim[Double](r, c)
    var i = 0
    while (i < r) {
      val ai = a(i); val oi = out(i)
      var l = 0
      while (l < s) {
        val ail = ai(l)
        if (ail != 0.0) {
          val bl = b(l)
          var j = 0
          while (j < c) { oi(j) += ail * bl(j); j += 1 }
        }
        l += 1
      }
      i += 1
    }
    out
  }

  /** Matrix transpose. */
  def transpose(a: Array[Array[Double]]): Array[Array[Double]] = {
    val r = a.length; val c = if (r == 0) 0 else a(0).length
    val out = Array.ofDim[Double](c, r)
    var i = 0
    while (i < r) { var j = 0; while (j < c) { out(j)(i) = a(i)(j); j += 1 }; i += 1 }
    out
  }

  /** Gram matrix `AᵀA` (s×s for an r×s input). */
  def gram(a: Array[Array[Double]]): Array[Array[Double]] = {
    val r = a.length; val s = if (r == 0) 0 else a(0).length
    val out = Array.ofDim[Double](s, s)
    var i = 0
    while (i < r) {
      val ai = a(i)
      var p = 0
      while (p < s) {
        val aip = ai(p)
        if (aip != 0.0) {
          val op = out(p)
          var q = p
          while (q < s) { op(q) += aip * ai(q); q += 1 }
        }
        p += 1
      }
      i += 1
    }
    var p = 0
    while (p < s) { var q = p + 1; while (q < s) { out(q)(p) = out(p)(q); q += 1 }; p += 1 }
    out
  }

  /** Inner product of two equal-length vectors. */
  def dot(x: Array[Double], y: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < x.length) { s += x(i) * y(i); i += 1 }
    s
  }

  /** `x + c·y`, returned as a new vector. */
  def axpy(x: Array[Double], c: Double, y: Array[Double]): Array[Double] = {
    val out = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { out(i) = x(i) + c * y(i); i += 1 }
    out
  }

  /** Row i of a seeded N(0,1) block, a pure function of (seed, i): the
    * same on Spark (any partitioning) and on the driver.
    */
  def gaussianRow(seed: Long, i: Long, k: Int): Array[Double] = {
    val rng = new scala.util.Random(seed * 1000003L + i * 7919L)
    Array.fill(k)(rng.nextGaussian())
  }

  /** `c · x`, returned as a new vector. */
  def scale(x: Array[Double], c: Double): Array[Double] = {
    val out = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { out(i) = c * x(i); i += 1 }
    out
  }

  /** Result of [[eigSym]]: eigenvalues in descending order with matching
    * eigenvectors as *columns* of `vectors` (`vectors(i)(j)` = component i
    * of eigenvector j).
    */
  final case class EigSym(values: Array[Double], vectors: Array[Array[Double]])

  /** Symmetric eigendecomposition by cyclic Jacobi rotations.
    *
    * O(s³) per sweep; converges quadratically — ample for the s ≤ a few
    * hundred matrices BKSVD projects onto. The input must be symmetric.
    */
  def eigSym(mIn: Array[Array[Double]], maxSweeps: Int = 64, tol: Double = 1e-12): EigSym = {
    val s = mIn.length
    val m = mIn.map(_.clone())
    val v = Array.tabulate(s, s)((i, j) => if (i == j) 1.0 else 0.0)
    var sweep = 0
    var off = offDiagNorm(m)
    val base = math.max(frobenius(m), 1e-300)
    while (sweep < maxSweeps && off > tol * base) {
      var p = 0
      while (p < s - 1) {
        var q = p + 1
        while (q < s) {
          val apq = m(p)(q)
          if (math.abs(apq) > 1e-300) {
            val app = m(p)(p); val aqq = m(q)(q)
            val theta = (aqq - app) / (2.0 * apq)
            val t =
              if (theta >= 0) 1.0 / (theta + math.sqrt(1.0 + theta * theta))
              else 1.0 / (theta - math.sqrt(1.0 + theta * theta))
            val c = 1.0 / math.sqrt(1.0 + t * t)
            val sn = t * c
            var i = 0
            while (i < s) {
              val mip = m(i)(p); val miq = m(i)(q)
              m(i)(p) = c * mip - sn * miq
              m(i)(q) = sn * mip + c * miq
              i += 1
            }
            i = 0
            while (i < s) {
              val mpi = m(p)(i); val mqi = m(q)(i)
              m(p)(i) = c * mpi - sn * mqi
              m(q)(i) = sn * mpi + c * mqi
              val vip = v(i)(p); val viq = v(i)(q)
              v(i)(p) = c * vip - sn * viq
              v(i)(q) = sn * vip + c * viq
              i += 1
            }
          }
          q += 1
        }
        p += 1
      }
      off = offDiagNorm(m)
      sweep += 1
    }
    val order = (0 until s).sortBy(i => -m(i)(i))
    val values = order.map(i => m(i)(i)).toArray
    val vectors = Array.tabulate(s, s)((i, j) => v(i)(order(j)))
    EigSym(values, vectors)
  }

  private def offDiagNorm(m: Array[Array[Double]]): Double = {
    var s = 0.0; var i = 0
    while (i < m.length) {
      var j = 0
      while (j < m.length) { if (i != j) s += m(i)(j) * m(i)(j); j += 1 }
      i += 1
    }
    math.sqrt(s)
  }

  private def frobenius(m: Array[Array[Double]]): Double = {
    var s = 0.0; var i = 0
    while (i < m.length) { var j = 0; while (j < m.length) { s += m(i)(j) * m(i)(j); j += 1 }; i += 1 }
    math.sqrt(s)
  }

  /** Whitening transform from a Gram matrix.
    *
    * Given `G = BᵀB` for a tall-skinny `B`, returns `W` such that the
    * columns of `B·W` are orthonormal and span the (numerically)
    * significant column space of `B`. Directions with eigenvalue below
    * `relTol · λ_max` are dropped, so rank-deficient blocks (common once
    * Krylov iterations converge) are handled gracefully. `W` is s×r with
    * r = numerical rank.
    */
  def whitener(gramM: Array[Array[Double]], relTol: Double = 1e-10): Array[Array[Double]] = {
    val eig = eigSym(gramM)
    val lmax = math.max(eig.values.headOption.getOrElse(0.0), 0.0)
    val keep = eig.values.indices.filter(j => eig.values(j) > relTol * math.max(lmax, 1e-300))
    val s = gramM.length
    Array.tabulate(s, keep.length)((i, jj) => eig.vectors(i)(keep(jj)) / math.sqrt(eig.values(keep(jj))))
  }

  /** Exact SVD of a small dense matrix via the eigendecomposition of AᵀA —
    * test oracle for BKSVD. Returns (U, σ, V) with A ≈ U diag(σ) Vᵀ and
    * singular values descending (zeros dropped below `relTol·σ_max`).
    */
  def svdSmall(a: Array[Array[Double]], relTol: Double = 1e-12): (Array[Array[Double]], Array[Double], Array[Array[Double]]) = {
    val eig = eigSym(gram(a))
    val smax = math.sqrt(math.max(eig.values.headOption.getOrElse(0.0), 0.0))
    val keep = eig.values.indices.filter(j => eig.values(j) > 0 && math.sqrt(eig.values(j)) > relTol * math.max(smax, 1e-300))
    val sigma = keep.map(j => math.sqrt(eig.values(j))).toArray
    val s = a(0).length
    val v = Array.tabulate(s, keep.length)((i, jj) => eig.vectors(i)(keep(jj)))
    val av = matmul(a, v)
    val u = Array.tabulate(a.length, keep.length)((i, j) => av(i)(j) / sigma(j))
    (u, sigma, v)
  }
}
