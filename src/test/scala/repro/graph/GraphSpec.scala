package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.linalg.DistMatrix
import scala.util.Random

/** Graph substrate tests; DataFrame-shaped results are cross-checked
  * against DuckDB via the Oracle.
  */
class GraphSpec extends SparkSpec {

  private def exampleGraph: Graph = Generators.example9(spark)

  test("fromEdges drops self-loops and duplicates") {
    val g = Graph.fromLocal(spark,
      Seq((0L, 1L), (0L, 1L), (2L, 2L), (1L, 0L)), n = 3, directed = true)
    assert(g.m == 2) // (0,1) deduped, (2,2) dropped, (1,0) kept
  }

  test("undirected graphs materialize both orientations") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L), (1L, 2L)), n = 3, directed = false)
    assert(g.m == 4)
    // symmetry check via DuckDB: edges minus reversed edges is empty
    val missing = g.edges.as("e")
      .join(g.edges.select(col("dst").as("src"), col("src").as("dst")).as("r"),
        Seq("src", "dst"), "left_anti")
    assert(missing.count() == 0)
  }

  test("example9 degrees match the paper's weight vector [3,3,4,3,4,2,2,2,1]") {
    val g = exampleGraph
    assert(g.outDeg.toSeq == Seq(3.0, 3.0, 4.0, 3.0, 4.0, 2.0, 2.0, 2.0, 1.0))
    assert(g.inDeg.toSeq == g.outDeg.toSeq) // undirected
  }

  test("degree DataFrame matches DuckDB aggregation") {
    val g = exampleGraph
    val sparkDeg = g.degreeDf("src").orderBy("id")
    Oracle.assertEquivalent(sparkDeg,
      "SELECT src AS id, COUNT(*) AS deg FROM edges GROUP BY src ORDER BY id",
      "edges" -> g.edges)
  }

  test("in-degree DataFrame matches DuckDB aggregation") {
    val g = exampleGraph
    Oracle.assertEquivalent(g.degreeDf("dst"),
      "SELECT dst AS id, COUNT(*) AS deg FROM edges GROUP BY dst",
      "edges" -> g.edges)
  }

  test("reverse swaps in and out degrees") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L), (0L, 2L), (1L, 2L)), n = 3, directed = true)
    val r = g.reverse
    assert(r.outDeg.toSeq == g.inDeg.toSeq)
    assert(r.inDeg.toSeq == g.outDeg.toSeq)
  }

  test("invOutDeg maps dangling nodes to zero") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L)), n = 3, directed = true)
    assert(g.invOutDeg.toSeq == Seq(1.0, 0.0, 0.0))
  }

  private def localAdj(g: Graph): Array[Array[Double]] = {
    val n = g.n.toInt
    val a = Array.ofDim[Double](n, n)
    g.edges.collect().foreach(r => a(r.getLong(0).toInt)(r.getLong(1).toInt) = 1.0)
    a
  }

  test("csr holds exactly the collected edges; row lengths are out-degrees") {
    for (g <- Seq(exampleGraph,
                  Generators.dcsbm(spark, n = 150, avgDeg = 5, numLabels = 3, seed = 11).graph)) {
      val n = g.n.toInt
      val c = g.csr
      val a = localAdj(g)
      assert(c.rows == n && c.offsets.length == n + 1)
      for (u <- 0 until n) {
        assert(c.offsets(u + 1) - c.offsets(u) == g.outDeg(u), s"row $u")
        val row = (c.offsets(u) until c.offsets(u + 1)).map(e => c.colIdx(e) -> c.values(e))
        assert(row.map(_._1).distinct.length == row.length, s"row $u repeats a column")
        assert(row.toMap == (0 until n).filter(v => a(u)(v) != 0.0).map(_ -> 1.0).toMap, s"row $u")
      }
    }
  }

  test("aMultiply matches local dense A·X") {
    val g = exampleGraph
    val rng = new Random(1)
    val x = Array.fill(9, 3)(rng.nextGaussian())
    val got = g.aMultiply(DistMatrix.fromLocal(spark, x)).collectLocal()
    val a = localAdj(g)
    for (u <- 0 until 9; j <- 0 until 3) {
      val exp = (0 until 9).map(v => a(u)(v) * x(v)(j)).sum
      assert(math.abs(got(u)(j) - exp) < 1e-9, s"($u,$j)")
    }
  }

  test("aTMultiply matches local dense Aᵀ·X") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L), (0L, 2L), (3L, 1L)), n = 4, directed = true)
    val rng = new Random(2)
    val x = Array.fill(4, 2)(rng.nextGaussian())
    val got = g.aTMultiply(DistMatrix.fromLocal(spark, x)).collectLocal()
    val a = localAdj(g)
    for (v <- 0 until 4; j <- 0 until 2) {
      val exp = (0 until 4).map(u => a(u)(v) * x(u)(j)).sum
      assert(math.abs(got(v)(j) - exp) < 1e-9, s"($v,$j)")
    }
  }

  test("pMultiply rows are degree-normalized sums; dangling rows zero") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L), (0L, 2L), (1L, 2L)), n = 3, directed = true)
    val x = Array(Array(1.0), Array(2.0), Array(4.0))
    val got = g.pMultiply(DistMatrix.fromLocal(spark, x)).collectLocal()
    assert(math.abs(got(0)(0) - 3.0) < 1e-9) // (2+4)/2
    assert(math.abs(got(1)(0) - 4.0) < 1e-9) // 4/1
    assert(got(2)(0) == 0.0)                  // dangling
  }

  test("pMultiply of all-ones equals 1 for non-dangling rows (row-stochastic)") {
    val g = exampleGraph
    val ones = Array.fill(9, 1)(1.0)
    val got = g.pMultiply(DistMatrix.fromLocal(spark, ones)).collectLocal()
    got.foreach(r => assert(math.abs(r(0) - 1.0) < 1e-9))
  }

  test("edge count matches DuckDB") {
    val g = exampleGraph
    import spark.implicits._
    val cnt = Seq(g.m).toDF("m")
    Oracle.assertEquivalent(cnt, "SELECT COUNT(*) AS m FROM edges", "edges" -> g.edges)
  }
}
