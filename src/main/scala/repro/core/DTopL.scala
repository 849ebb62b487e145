package repro.core

import repro.influence.MIA.Cpp

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
  *
  * The coverage of S is a dense `Array[Double]` over vertex ids, read and
  * raised through each candidate's [[repro.influence.MIA.Cpp]] arrays. A
  * selector reads each candidate's `cpp` once: a slim answer expands it
  * again on each read, one of Alg. 3's own candidates (`Pipeline.Built.dTopL`)
  * hands over the arrays that scored it.
  */
object DTopL {

  final case class DResult(
      selected: Seq[Community],
      score: Double,
      /** number of ΔD / D evaluations performed (the pruning measure) */
      incrementEvals: Long)

  /** D(S) of Eq. (6), from the candidates' (θ-thresholded) cpp arrays. */
  def diversity(sel: Iterable[Community]): Double = {
    val cpps = sel.map(_.cpp)
    diversity(coverFor(cpps), cpps)
  }

  /** D(S) on a zeroed dense cover, which is zeroed again on return. The
    * sum runs over the communities' cpp ids in order, each vertex counted
    * at its first occurrence (then cleared, so later ones add 0).
    */
  private def diversity(cover: Array[Double], sel: Iterable[Cpp]): Double = {
    sel.foreach(absorb(cover, _))
    var s = 0.0
    sel.foreach { cpp =>
      val ids = cpp.ids
      var i = 0
      while (i < ids.length) { s += cover(ids(i)); cover(ids(i)) = 0.0; i += 1 }
    }
    s
  }

  /** A zeroed dense cover, cover(v) = max cpp of v over the absorbed
    * communities, indexed by every vertex id in `cpps`.
    */
  private def coverFor(cpps: Iterable[Cpp]): Array[Double] = {
    var n = 0
    cpps.foreach(_.ids.foreach(v => if (v >= n) n = v + 1))
    new Array[Double](n)
  }

  /** ΔD_g(S) given the current cover of S. Summed in g's cpp order, so a
    * stale value (computed against a subset of S) is ≥ the current one in
    * floating point too: each term max(0, p − c) only shrinks as c grows.
    */
  private def increment(cover: Array[Double], g: Cpp): Double = {
    val ids = g.ids
    val probs = g.probs
    var d = 0.0
    var i = 0
    while (i < ids.length) {
      val c = cover(ids(i))
      if (probs(i) > c) d += probs(i) - c
      i += 1
    }
    d
  }

  private def absorb(cover: Array[Double], g: Cpp): Unit = {
    val ids = g.ids
    val probs = g.probs
    var i = 0
    while (i < ids.length) {
      if (probs(i) > cover(ids(i))) cover(ids(i)) = probs(i)
      i += 1
    }
  }

  /** Lazy-heap order: the largest bound first, ties to the smallest index. */
  private val ByBound: Ordering[(Double, Int)] = (a, b) => {
    val byBound = java.lang.Double.compare(a._1, b._1)
    if (byBound != 0) byBound else Integer.compare(b._2, a._2)
  }

  /** Paper Algorithm 4 (Greedy_WP): lazy greedy with Lemma-9 pruning. It
    * picks exactly what [[greedyWoP]] picks: a popped exact ΔD is ≥ every
    * other true ΔD (each is ≤ its stale bound), and a tie goes to the
    * smallest index in both.
    */
  def greedyWP(cands: IndexedSeq[Community], l: Int): DResult = {
    val L = math.min(l, cands.length)
    var evals = 0L
    val cpps = cands.map(_.cpp)
    val cover = coverFor(cpps)
    val selected = mutable.ArrayBuffer[Int]()
    // heap entries: (upper bound on ΔD, candidate index); g.round per index
    val heap = mutable.PriorityQueue[(Double, Int)]()(ByBound)
    val lastRound = Array.fill(cands.length)(0)
    cands.indices.foreach { i => heap.enqueue((cands(i).sigma, i)) } // ΔD_g(∅) = σ(g)
    var round = 0
    while (selected.length < L && heap.nonEmpty) {
      val (_, i) = heap.dequeue()
      if (lastRound(i) == round) {
        // bound is exact for the current S ⇒ i maximizes ΔD (Lemma 9)
        selected += i
        absorb(cover, cpps(i))
        round += 1
      } else {
        evals += 1
        lastRound(i) = round
        heap.enqueue((increment(cover, cpps(i)), i))
      }
    }
    result(cands, cpps, selected, evals)
  }

  /** The candidates at `selected`, with D of their cpp arrays. */
  private def result(cands: IndexedSeq[Community], cpps: IndexedSeq[Cpp], selected: Iterable[Int], evals: Long): DResult = {
    val sel = selected.map(cpps)
    DResult(selected.map(cands).toSeq, diversity(coverFor(sel), sel), evals)
  }

  /** Greedy without pruning: recompute every candidate's ΔD each round. */
  def greedyWoP(cands: IndexedSeq[Community], l: Int): DResult = {
    val L = math.min(l, cands.length)
    var evals = 0L
    val cpps = cands.map(_.cpp)
    val cover = coverFor(cpps)
    val remaining = mutable.ArrayBuffer[Int](cands.indices: _*)
    val selected = mutable.ArrayBuffer[Int]()
    while (selected.length < L && remaining.nonEmpty) {
      var bestI = -1; var bestD = Double.NegativeInfinity; var bestPos = -1
      remaining.indices.foreach { pos =>
        val i = remaining(pos)
        evals += 1
        val d = increment(cover, cpps(i))
        if (d > bestD || (d == bestD && (bestI < 0 || i < bestI))) {
          bestD = d; bestI = i; bestPos = pos
        }
      }
      selected += bestI
      absorb(cover, cpps(bestI))
      remaining.remove(bestPos)
    }
    result(cands, cpps, selected, evals)
  }

  /** Exhaustive optimum over all C(|T|, L) subsets (only feasible for the
    * accuracy study / small T).
    */
  def optimal(cands: IndexedSeq[Community], l: Int): DResult = {
    val L = math.min(l, cands.length)
    var evals = 0L
    var bestScore = Double.NegativeInfinity
    var best: Seq[Community] = Seq.empty
    val cpps = cands.map(_.cpp)
    val cover = coverFor(cpps)
    cands.indices.combinations(L).foreach { idx =>
      evals += 1
      val d = diversity(cover, idx.map(cpps))
      if (d > bestScore) { bestScore = d; best = idx.map(cands) }
    }
    DResult(best, bestScore, evals)
  }
}
