package repro.core

import repro.graph.GraphData
import repro.truss.Truss

/** Extraction of the seed community of a candidate center (paper Def. 2,
  * used at Alg. 3 line 12 and by both baselines).
  *
  * Given center v_q, radius r, support k and query keywords Q, the seed
  * community is the maximal subgraph g ⊆ hop(v_q, r) such that
  *  (1) v_q ∈ g, (2) every vertex is within r hops of v_q *in g*,
  *  (3) g is a k-truss, (4) every vertex matches ≥ 1 query keyword.
  *
  * The maximal k-truss containing v_q is unique (k-trusses are closed
  * under union), so each center yields at most one candidate; removing
  * radius-violating vertices can break trussness and vice versa, so we
  * iterate peel → BFS radius/reachability filter to a fixpoint (each
  * round strictly shrinks the vertex set, so it terminates). The ball's
  * sorted rows keep the global vertex order, so the community comes out
  * as its sorted members, which determine its edges.
  *
  * For k ≥ 3 the center must keep at least one edge in the truss — a
  * community is a group, not an isolated user; for k ≤ 2 (vacuous truss
  * constraint) the community is the keyword-satisfying connected
  * component of radius r around the center.
  */
object SeedExtract {

  /** A seed community: its sorted global vertex ids. Its edge set is the
    * maximal k-truss of G[vertices] (DESIGN "A seed community is its members").
    */
  final case class Seed(vertices: Array[Int])

  /** The keyword-filtered r-hop ball around `center` (Lemma 1 applied
    * exactly, per Def. 2 bullet 4): the vertices of hop(center, r) that
    * match a query keyword, sorted, and their induced sorted rows over
    * local ids (local id j is global vertex j of the returned array).
    */
  def filteredBall(g: GraphData, center: Int, r: Int, query: Array[Int]): (Array[Int], Truss.Rows) = {
    val global = g.hopBall(center, r)._1.filter(g.matchesQuery(_, query)).sorted
    val offsets = new Array[Int](global.length + 1)
    val neigh = Array.newBuilder[Int]
    global.indices.foreach { j =>
      // g's row is sorted and so is `global`: the hits come out in local order
      g.foreachNeighbor(global(j)) { (u, _) =>
        val lu = java.util.Arrays.binarySearch(global, u)
        if (lu >= 0) neigh += lu
      }
      offsets(j + 1) = neigh.length
    }
    (global, Truss.Rows(offsets, neigh.result()))
  }

  /** @return the seed community of `center`, or None if none exists. */
  def extract(g: GraphData, center: Int, r: Int, k: Int, query: Array[Int]): Option[Seed] = {
    if (!g.matchesQuery(center, query)) return None
    val (global, rows) = filteredBall(g, center, r, query)
    val c = java.util.Arrays.binarySearch(global, center)
    val alive = rows.allAlive
    var changed = true
    while (changed) {
      Truss.kTrussPeel(rows, alive, k)
      if (k >= 3 && rows.degree(alive, c) == 0) return None
      // Def. 2 bullet 2 within the current subgraph: a vertex farther than
      // r from the center, or cut off from it, leaves the community
      val d = Truss.bfsDist(rows, alive, c)
      changed = false
      rows.foreachSlot((v, i) => if (d(v) > r && alive(i)) { rows.cut(alive, i); changed = true })
    }
    // at the fixpoint every vertex with edges is within r of the center
    Some(Seed(Array.range(0, rows.n).filter(v => v == c || rows.degree(alive, v) > 0).map(global)))
  }
}
