package repro.influence

import repro.graph.{GraphData, Workspace}

/** Maximum Influence Arborescence (MIA) propagation model [13] (paper
  * §II-B) and the influential score of Eq. (5).
  *
  * `upp(u,v)` is the maximum over all u→v paths of the product of edge
  * activation probabilities (Eqs. 1–3); `cpp(g,v) = max_{u∈g} upp(u,v)`
  * with `cpp(g,v)=1` for v ∈ g (Eq. 4); the influenced community `g^Inf`
  * is every vertex with `cpp(g,v) ≥ θ` (Def. 3) and
  * `σ(g) = Σ_{v∈g^Inf} cpp(g,v)` (Eq. 5).
  *
  * Max-product paths are computed with a best-first (Dijkstra-style)
  * expansion on probabilities, on this thread's [[repro.graph.Workspace]]
  * (epoch-stamped dense arrays and an array binary heap). Every weight is
  * in (0, 1] and rounding is monotone, so `p·w ≤ p`: the probabilities
  * settle in non-increasing order, the first settlement of a vertex is its
  * exact cpp, and the expansion stops once the best frontier probability
  * drops below θ. The settled sequence is therefore the list of cpp
  * values ≥ θ sorted descending, whatever the seed order or graph layout,
  * and every σ is summed in that order (see [[Cpp]]).
  */
object MIA {

  /** The influenced community g^Inf as parallel arrays in settlement
    * order: `ids(i)` has cpp `probs(i)`, and `probs` is non-increasing.
    */
  final case class Cpp(ids: Array[Int], probs: Array[Double]) {
    def size: Int = ids.length

    /** σ (Eq. 5), summed in settlement order. */
    def sigma: Double = sigmaAt(Double.NegativeInfinity)

    /** σ at a threshold θz at or above the one this map was expanded at:
      * the prefix of `probs` that is ≥ θz, summed in the same order. The
      * vertices with cpp ≥ θz and their cpp values do not depend on the
      * expansion threshold, so this is bit-identical to `sigma` of a fresh
      * expansion at θz.
      */
    def sigmaAt(thetaZ: Double): Double = {
      var s = 0.0
      var i = 0
      while (i < probs.length && probs(i) >= thetaZ) { s += probs(i); i += 1 }
      s
    }
  }

  object Cpp {
    val Empty: Cpp = Cpp(Array.emptyIntArray, Array.emptyDoubleArray)
  }

  /** g^Inf of seed set `seed`: exactly the vertices with cpp ≥ θ (the
    * seeds at 1.0). θ = 0 expands to everything reachable.
    */
  def influencedCpp(g: GraphData, seed: Array[Int], theta: Double): Cpp = {
    if (seed.isEmpty || theta > 1.0) return Cpp.Empty
    val offsets = g.offsets
    val neigh = g.neigh
    val weight = g.weight
    val ws = Workspace.of(g.n)
    val e = ws.nextEpoch()
    ws.heapClear()
    var i = 0
    while (i < seed.length) {
      val s = seed(i)
      if (ws.stamp(s) != e) { ws.stamp(s) = e; ws.best(s) = 1.0; ws.push(1.0, s) }
      i += 1
    }
    var size = 0
    while (ws.heapNonEmpty) {
      val p = ws.topP
      val u = ws.topV
      ws.pop()
      // a stale entry was superseded by a larger probability for u
      if (p == ws.best(u) && ws.settled(u) != e) {
        ws.settled(u) = e
        ws.outIds(size) = u; ws.outProbs(size) = p; size += 1
        var j = offsets(u)
        val end = offsets(u + 1)
        while (j < end) {
          val v = neigh(j)
          val np = p * weight(j)
          if (np >= theta && ws.settled(v) != e && np > (if (ws.stamp(v) == e) ws.best(v) else 0.0)) {
            ws.stamp(v) = e; ws.best(v) = np
            ws.push(np, v)
          }
          j += 1
        }
      }
    }
    Cpp(java.util.Arrays.copyOf(ws.outIds, size), java.util.Arrays.copyOf(ws.outProbs, size))
  }

  /** Influential score σ(g) at threshold θ (Eq. 5). */
  def sigma(g: GraphData, seed: Array[Int], theta: Double): Double =
    influencedCpp(g, seed, theta).sigma
}
