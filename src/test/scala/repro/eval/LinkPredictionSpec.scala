package repro.eval

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.baselines.Emb
import repro.graph.Generators

/** Link-prediction protocol tests; query-shaped pieces (split counts,
  * negative sampling, AUC) are DuckDB-oracle-checked.
  */
class LinkPredictionSpec extends SparkSpec {

  private lazy val sbm = Generators.dcsbm(spark, n = 300, avgDeg = 5, numLabels = 3, seed = 61).graph
  private lazy val und = Generators.dcsbm(spark, n = 300, avgDeg = 4, numLabels = 3,
    directed = false, seed = 62).graph

  test("split removes roughly 30% of the edges") {
    val s = LinkPrediction.split(sbm, 0.3, seed = 1)
    val frac = 1.0 - s.train.m.toDouble / sbm.m
    assert(frac > 0.2 && frac < 0.4, s"removed fraction $frac")
  }

  test("train and test-positive edges partition the graph (oracle)") {
    val s = LinkPrediction.split(sbm, 0.3, seed = 1)
    // no overlap
    assert(s.train.edges.join(s.testPos, Seq("src", "dst")).count() == 0)
    // union restores the original edge set — checked in DuckDB
    import spark.implicits._
    val unionCount = Seq(s.train.edges.union(s.testPos).distinct().count()).toDF("c")
    Oracle.assertEquivalent(unionCount,
      "SELECT COUNT(*) AS c FROM (SELECT DISTINCT src, dst FROM full_edges)",
      "full_edges" -> sbm.edges)
  }

  test("undirected split removes both orientations together") {
    val s = LinkPrediction.split(und, 0.3, seed = 2)
    // the train graph must still be symmetric
    val missing = s.train.edges
      .join(s.train.edges.select(col("dst").as("src"), col("src").as("dst")),
        Seq("src", "dst"), "left_anti")
    assert(missing.count() == 0)
    // positives are canonical pairs
    assert(s.testPos.filter(col("src") >= col("dst")).count() == 0)
  }

  test("negative sample has the same size as the positive sample") {
    val s = LinkPrediction.split(sbm, 0.3, seed = 1)
    assert(s.testNeg.count() == s.testPos.count())
  }

  test("negative samples are non-edges and non-self-pairs (oracle)") {
    val s = LinkPrediction.split(sbm, 0.3, seed = 1)
    import spark.implicits._
    val offending = Seq((
      s.testNeg.join(sbm.edges, Seq("src", "dst")).count(),
      s.testNeg.filter(col("src") === col("dst")).count())).toDF("edge_hits", "self_pairs")
    Oracle.assertEquivalent(
      offending.filter(col("edge_hits") === 0 && col("self_pairs") === 0),
      "SELECT CAST(0 AS BIGINT) AS edge_hits, CAST(0 AS BIGINT) AS self_pairs",
      "neg" -> s.testNeg)
  }

  test("aucLocal: perfect, inverted, and random scorers") {
    val perfect = Seq((1.0, 1), (0.9, 1), (0.2, 0), (0.1, 0))
    assert(LinkPrediction.aucLocal(perfect) == 1.0)
    val inverted = perfect.map { case (sc, l) => (sc, 1 - l) }
    assert(LinkPrediction.aucLocal(inverted) == 0.0)
    val rng = new scala.util.Random(3)
    val random = Seq.fill(4000)((rng.nextDouble(), rng.nextInt(2)))
    assert(math.abs(LinkPrediction.aucLocal(random) - 0.5) < 0.05)
  }

  test("aucLocal terminates and stays bounded in the presence of NaN scores") {
    // regression: NaN != NaN must not stall the tie scan
    val scored = Seq((Double.NaN, 1), (0.5, 0), (Double.NaN, 0), (0.7, 1))
    val a = LinkPrediction.aucLocal(scored)
    assert(a >= 0.0 && a <= 1.0)
  }

  test("aucLocal averages tied scores") {
    // all scores equal → AUC must be exactly 0.5
    val tied = Seq((0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0))
    assert(LinkPrediction.aucLocal(tied) == 0.5)
  }

  test("aucDf (Spark SQL) matches aucLocal and the DuckDB oracle") {
    val rng = new scala.util.Random(4)
    val scored = Seq.fill(500)((math.floor(rng.nextDouble() * 20) / 20.0, rng.nextInt(2)))
    import spark.implicits._
    val df = scored.toDF("score", "label")
    val fromDf = LinkPrediction.aucDf(df)
    val fromLocal = LinkPrediction.aucLocal(scored)
    assert(math.abs(fromDf - fromLocal) < 1e-9)
    val aucQuery =
      """SELECT (SUM(CASE WHEN label = 1 THEN r ELSE 0 END) - (SUM(label) * (SUM(label) + 1)) / 2.0)
        |       / (SUM(label) * (COUNT(*) - SUM(label))) AS auc
        |FROM (SELECT label, AVG(rn) OVER (PARTITION BY score) AS r
        |      FROM (SELECT CAST(score AS DOUBLE) AS score, CAST(label AS INT) AS label,
        |                   ROW_NUMBER() OVER (ORDER BY CAST(score AS DOUBLE)) AS rn
        |            FROM scores))
        |""".stripMargin
    Oracle.assertEquivalent(Seq(fromDf).toDF("auc"), aucQuery, "scores" -> df)
  }

  test("auc of an oracle embedding that memorizes edges is high") {
    val s = LinkPrediction.split(sbm, 0.3, seed = 5)
    val csr = sbm.csr
    // fake embedding via score function: wrap a lookup in Emb-compatible arrays
    val pos = LinkPrediction.collectPairs(s.testPos)
      .map { case (u, v) => (if (csr.contains(u, v)) 1.0 else 0.0, 1) }
    val neg = LinkPrediction.collectPairs(s.testNeg)
      .map { case (u, v) => (if (csr.contains(u, v)) 1.0 else 0.0, 0) }
    assert(LinkPrediction.aucLocal(pos ++ neg) > 0.99)
  }

  test("auc accepts an Emb and runs end to end") {
    val s = LinkPrediction.split(sbm, 0.3, seed = 6)
    val rng = new scala.util.Random(7)
    val x = Array.fill(300, 4)(rng.nextGaussian())
    val a = LinkPrediction.auc(Emb(x, x), s)
    assert(a >= 0.0 && a <= 1.0)
  }
}
