package repro.core

import scala.collection.mutable

/** DTopL-ICDE (paper §VII): pick a set S of L seed communities maximizing
  * the diversity score D(S) = Σ_v max_{g∈S} cpp(g, v) (Eq. 6). The problem
  * is NP-hard (Lemma 8, Maximum Coverage reduction); D is monotone and
  * submodular, so greedy selection over the top-(nL) candidates achieves
  * an ε·(1−1/e) guarantee (Lemma 10).
  *
  * Three selectors over a candidate set T (the Alg. 3 top-(nL) answers):
  *  - [[greedyWP]]  — Alg. 4: lazy greedy with diversity-score pruning
  *    (Lemma 9): stale upper bounds ΔD_g(S') ≥ ΔD_g(S) live in a max-heap
  *    and are only recomputed when they surface;
  *  - [[greedyWoP]] — naive greedy recomputing every increment each round;
  *  - [[optimal]]   — exhaustive search over all C(|T|, L) subsets.
  */
object DTopL {

  final case class DResult(
      selected: Seq[Community],
      score: Double,
      /** number of ΔD / D evaluations performed (the pruning measure) */
      incrementEvals: Long)

  /** D(S) of Eq. (6), from the candidates' (θ-thresholded) cpp maps. */
  def diversity(sel: Iterable[Community]): Double = {
    val cover = mutable.HashMap[Int, Double]()
    sel.foreach(absorb(cover, _))
    var s = 0.0
    cover.valuesIterator.foreach(s += _)
    s
  }

  /** ΔD_g(S) given the current coverage map of S. */
  private def increment(cover: mutable.HashMap[Int, Double], g: Community): Double = {
    var d = 0.0
    g.cpp.foreach { case (v, p) =>
      val c = cover.getOrElse(v, 0.0)
      if (p > c) d += p - c
    }
    d
  }

  private def absorb(cover: mutable.HashMap[Int, Double], g: Community): Unit =
    g.cpp.foreach { case (v, p) => if (p > cover.getOrElse(v, 0.0)) cover(v) = p }

  /** Paper Algorithm 4 (Greedy_WP): lazy greedy with Lemma-9 pruning. */
  def greedyWP(cands: IndexedSeq[Community], l: Int): DResult = {
    val L = math.min(l, cands.length)
    var evals = 0L
    val cover = mutable.HashMap[Int, Double]()
    val selected = mutable.ArrayBuffer[Community]()
    // heap entries: (upper bound on ΔD, candidate index); g.round per index
    val heap = mutable.PriorityQueue[(Double, Int)]()(Ordering.by(_._1))
    val lastRound = Array.fill(cands.length)(0)
    cands.indices.foreach { i => heap.enqueue((cands(i).sigma, i)) } // ΔD_g(∅) = σ(g)
    var round = 0
    while (selected.length < L && heap.nonEmpty) {
      val (_, i) = heap.dequeue()
      if (lastRound(i) == round) {
        // bound is exact for the current S ⇒ i maximizes ΔD (Lemma 9)
        selected += cands(i)
        absorb(cover, cands(i))
        round += 1
      } else {
        evals += 1
        lastRound(i) = round
        heap.enqueue((increment(cover, cands(i)), i))
      }
    }
    DResult(selected.toSeq, diversity(selected), evals)
  }

  /** Greedy without pruning: recompute every candidate's ΔD each round. */
  def greedyWoP(cands: IndexedSeq[Community], l: Int): DResult = {
    val L = math.min(l, cands.length)
    var evals = 0L
    val cover = mutable.HashMap[Int, Double]()
    val remaining = mutable.ArrayBuffer[Int](cands.indices: _*)
    val selected = mutable.ArrayBuffer[Community]()
    while (selected.length < L && remaining.nonEmpty) {
      var bestI = -1; var bestD = Double.NegativeInfinity; var bestPos = -1
      remaining.indices.foreach { pos =>
        val i = remaining(pos)
        evals += 1
        val d = increment(cover, cands(i))
        if (d > bestD || (d == bestD && (bestI < 0 || i < bestI))) {
          bestD = d; bestI = i; bestPos = pos
        }
      }
      selected += cands(bestI)
      absorb(cover, cands(bestI))
      remaining.remove(bestPos)
    }
    DResult(selected.toSeq, diversity(selected), evals)
  }

  /** Exhaustive optimum over all C(|T|, L) subsets (only feasible for the
    * accuracy study / small T).
    */
  def optimal(cands: IndexedSeq[Community], l: Int): DResult = {
    val L = math.min(l, cands.length)
    var evals = 0L
    var bestScore = Double.NegativeInfinity
    var best: Seq[Community] = Seq.empty
    cands.indices.combinations(L).foreach { idx =>
      evals += 1
      val s = idx.map(cands)
      val d = diversity(s)
      if (d > bestScore) { bestScore = d; best = s.toSeq }
    }
    DResult(best, bestScore, evals)
  }
}
