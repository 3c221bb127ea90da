package perfbench

import scala.collection.mutable

/** Benchmark inputs, generated on the driver from (seed, stream, index)
  * hashes. Every draw is a pure function of its coordinates, so the same
  * seed gives the same edges, split and negatives whatever the core count.
  * The program under test only receives the finished edge lists.
  */
object Inputs {

  /** SplitMix64 finalizer. */
  def mix(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Hash of (seed, stream, i). */
  def hash(seed: Long, stream: Int, i: Long): Long =
    mix(mix(mix(seed) ^ (stream.toLong * 0x632BE59BD9B4E019L)) ^ i)

  /** Uniform double in [0, 1) from (seed, stream, i). */
  def unif(seed: Long, stream: Int, i: Long): Double =
    (hash(seed, stream, i) >>> 11) * (1.0 / (1L << 53))

  /** Uniform integer in [0, n) from (seed, stream, i). */
  def below(seed: Long, stream: Int, i: Long, n: Int): Int =
    java.lang.Math.floorMod(hash(seed, stream, i), n.toLong).toInt

  /** A directed edge list over nodes 0 … n−1, self-loop-free and distinct. */
  final case class EdgeList(n: Int, edges: Array[(Long, Long)]) {
    def m: Int = edges.length
    def outDeg: Array[Int] = {
      val d = new Array[Int](n)
      edges.foreach { case (u, _) => d(u.toInt) += 1 }
      d
    }
    def danglingShare: Double = outDeg.count(_ == 0).toDouble / n
    /** Order-independent checksum of the edge set. */
    def checksum: Long = edges.foldLeft(0L) { case (acc, (u, v)) => acc + mix(u * n + v) }
    def keySet: mutable.LongMap[Unit] = {
      val s = mutable.LongMap.empty[Unit]
      edges.foreach { case (u, v) => s.update(u * n + v, ()) }
      s
    }
  }

  /** Link-prediction input: the train graph's edges, the removed edges
    * (positives) and as many non-edges of the full graph (negatives).
    */
  final case class LpInput(full: EdgeList, train: EdgeList,
                           pos: Array[(Long, Long)], neg: Array[(Long, Long)])

  /** Draws `m` distinct, self-loop-free edges from `draw(i)`, i = 0, 1, …;
    * fails loudly if `maxDraws` draws do not yield them.
    */
  private def distinctEdges(n: Int, m: Int, maxDraws: Long, what: String)
                           (draw: Long => (Int, Int)): EdgeList = {
    val seen = mutable.LongMap.empty[Unit]
    val out = new Array[(Long, Long)](m)
    var got = 0
    var i = 0L
    while (got < m) {
      if (i >= maxDraws)
        throw new IllegalStateException(s"$what: only $got of $m distinct edges after $i draws")
      val (u, v) = draw(i)
      val key = u.toLong * n + v
      if (u != v && !seen.contains(key)) {
        seen.update(key, ())
        out(got) = (u.toLong, v.toLong)
        got += 1
      }
      i += 1
    }
    EdgeList(n, out)
  }

  /** Weighted sampler over a node list: cumulative weights + binary search. */
  private final class Sampler(nodes: Array[Int], weight: Int => Double) {
    private val cum = nodes.map(weight).scanLeft(0.0)(_ + _).tail
    def apply(u: Double): Int = {
      val target = u * cum.last
      var lo = 0
      var hi = cum.length - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cum(mid) > target) hi = mid else lo = mid + 1
      }
      nodes(lo)
    }
  }

  /** Directed power-law graph with planted communities (a degree-corrected
    * block model). Exactly `round(danglingShare·n)` nodes, chosen by hash
    * rank, have out-degree 0; every other node has an out-edge, and the
    * remaining edges draw their sources by a Pareto(γ) weight.
    * Targets are drawn by an independent Pareto(γ) in-weight, inside the
    * source's community with probability `mu`. Both weights are capped at
    * `cap` times their minimum so that no node asks for more neighbours
    * than exist.
    */
  def powerLaw(seed: Long, n: Int, m: Int, communities: Int, danglingShare: Double,
               mu: Double = 0.8, gamma: Double = 2.2, cap: Double = 50.0): EdgeList = {
    def pareto(stream: Int, v: Int): Double =
      math.min(cap, math.pow(1.0 - unif(seed, stream, v), -1.0 / (gamma - 1.0)))
    val comm = Array.tabulate(n)(v => below(seed, 1, v, communities))
    val byRank = (0 until n).sortBy(v => hash(seed, 2, v)).toArray
    val nDangling = math.round(danglingShare * n).toInt
    val sources = byRank.drop(nDangling).sorted
    val outW = Array.tabulate(n)(v => pareto(3, v))
    val inW = Array.tabulate(n)(v => pareto(4, v))
    val pickSrc = new Sampler(sources, outW)
    val pickAny = new Sampler(Array.range(0, n), inW)
    val pickIn = Array.tabulate(communities)(c =>
      new Sampler(Array.range(0, n).filter(comm(_) == c), inW))
    require(m >= sources.length, s"powerLaw: m = $m cannot give ${sources.length} sources an edge each")
    // Draw i < |sources| starts at sources(i), so every source has an edge
    // and the out-degree-0 share is exactly the stated one.
    distinctEdges(n, m, 50L * m, "powerLaw") { i =>
      val u = if (i < sources.length) sources(i.toInt) else pickSrc(unif(seed, 10, i))
      val v = if (unif(seed, 11, i) < mu) pickIn(comm(u))(unif(seed, 12, i))
              else pickAny(unif(seed, 12, i))
      (u, if (v == u && i < sources.length) (u + 1) % n else v)
    }
  }

  /** The §5.2 link-prediction split: an edge is removed when its hash falls
    * in the lowest `removeFrac` share; negatives are hash-ranked ordered
    * pairs that are not edges of the full graph, as many as positives.
    * Fails loudly on a shortfall.
    */
  def split(seed: Long, g: EdgeList, removeFrac: Double = 0.3): LpInput = {
    val n = g.n
    val cut = (removeFrac * 1000).toInt
    val (pos, kept) = g.edges.partition { case (u, v) =>
      java.lang.Math.floorMod(hash(seed, 30, u * n + v), 1000L) < cut
    }
    val inE = g.keySet
    val seen = mutable.LongMap.empty[Unit]
    val neg = mutable.ArrayBuffer.empty[(Long, Long)]
    var j = 0L
    val maxDraws = 50L * math.max(pos.length, 1)
    while (neg.length < pos.length && j < maxDraws) {
      val u = below(seed, 31, j, n)
      val v = below(seed, 32, j, n)
      val key = u.toLong * n + v
      if (u != v && !inE.contains(key) && !seen.contains(key)) {
        seen.update(key, ())
        neg += ((u.toLong, v.toLong))
      }
      j += 1
    }
    if (neg.length < pos.length)
      throw new IllegalStateException(s"split: only ${neg.length} of ${pos.length} negatives after $j draws")
    LpInput(g, EdgeList(n, kept), pos, neg.toArray)
  }

  /** Checks the split's contract: as many negatives as positives, all
    * distinct, none an edge of the full graph or a self-pair.
    */
  def splitProblems(in: LpInput): Seq[String] = {
    val n = in.full.n
    val e = in.full.keySet
    val negKeys = in.neg.map { case (u, v) => u * n + v }
    Seq(
      (in.neg.length != in.pos.length) -> s"${in.neg.length} negatives for ${in.pos.length} positives",
      (negKeys.distinct.length != negKeys.length) -> "duplicate negatives",
      negKeys.exists(e.contains) -> "a negative is an edge",
      in.neg.exists { case (u, v) => u == v } -> "a negative is a self-pair",
      (in.train.m + in.pos.length != in.full.m) -> "train and positives do not partition E",
    ).collect { case (true, msg) => msg }
  }
}
