package repro.eval

import repro.baselines.Emb
import repro.graph.Graph

/** The graph-reconstruction protocol of §5.3: score a candidate set S of
  * node pairs (all ordered pairs, or a uniform sample of them on larger
  * graphs, as the paper samples 1 %), and report precision@K — the
  * fraction of the top-K scored pairs that are true edges.
  *
  * Scoring is an n²-shaped dense computation by nature (the very reason
  * the paper caps it at 1 % samples on medium graphs and skips the
  * largest); we run it driver-local, parallel over sources, with bounded
  * per-thread heaps merged at the end.
  */
object GraphReconstruction {

  /** precision@K for each requested K (evaluated on one merged ranking). */
  def precisionAtK(emb: Emb, g: Graph, ks: Seq[Int], sampleFrac: Double = 1.0,
                   seed: Long = 9): Map[Int, Double] = {
    val n = g.n.toInt
    val maxK = ks.max
    val csr = g.csr
    val nThreads = Runtime.getRuntime.availableProcessors()
    val heaps = Array.fill(nThreads)(new BoundedTopK(maxK))
    java.util.stream.IntStream.range(0, n).parallel().forEach { u =>
      val heap = heaps((u % nThreads + nThreads) % nThreads)
      val rng = if (sampleFrac < 1.0) new scala.util.Random(seed * 1000003L + u) else null
      var v = 0
      while (v < n) {
        if (v != u && (sampleFrac >= 1.0 || rng.nextDouble() < sampleFrac)) {
          heap.synchronized { heap.offer(emb.score(u, v), u.toLong * n + v) }
        }
        v += 1
      }
    }
    val top = heaps.flatMap(_.drain()).sortBy(-_._1).take(maxK)
    ks.map { k =>
      val hits = top.iterator.take(k).count { case (_, code) => csr.contains((code / n).toInt, (code % n).toInt) }
      k -> hits.toDouble / k
    }.toMap
  }

  /** Fixed-capacity min-heap of (score, payload) keeping the largest. */
  final class BoundedTopK(capacity: Int) {
    private val pq = new java.util.PriorityQueue[(Double, Long)](
      math.max(capacity, 1), (a: (Double, Long), b: (Double, Long)) => java.lang.Double.compare(a._1, b._1))
    def offer(score: Double, payload: Long): Unit = {
      if (pq.size < capacity) pq.offer((score, payload))
      else if (pq.peek()._1 < score) { pq.poll(); pq.offer((score, payload)) }
    }
    def drain(): Seq[(Double, Long)] = {
      val buf = scala.collection.mutable.ArrayBuffer.empty[(Double, Long)]
      while (!pq.isEmpty) buf += pq.poll()
      buf.toSeq
    }
  }
}
