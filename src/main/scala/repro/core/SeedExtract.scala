package repro.core

import repro.graph.GraphData
import repro.truss.Truss

import scala.collection.mutable

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
  * round strictly shrinks the vertex set, so it terminates).
  *
  * For k ≥ 3 the center must keep at least one edge in the truss — a
  * community is a group, not an isolated user; for k ≤ 2 (vacuous truss
  * constraint) the community is the keyword-satisfying connected
  * component of radius r around the center.
  */
object SeedExtract {

  /** A seed community as a *subgraph*: its (sorted) global vertex ids and
    * its undirected edge set (canonical u < v). The edge set matters: a
    * maximal k-truss is an edge subgraph — the induced graph on its vertex
    * set may contain peeled-away low-support edges that are NOT part of
    * the community.
    */
  final case class Seed(vertices: Array[Int], edges: Array[(Int, Int)])

  /** The keyword-filtered r-hop ball around `center` (Lemma 1 applied
    * exactly, per Def. 2 bullet 4): the vertices of hop(center, r) that
    * match a query keyword, in BFS order — so a matching center has local
    * id 0 — and their induced adjacency over local ids.
    */
  def filteredBall(g: GraphData, center: Int, r: Int, query: Array[Int]): (Array[Int], Truss.Adj) = {
    val global = g.hopBall(center, r)._1.filter(g.matchesQuery(_, query))
    val localOf = new mutable.HashMap[Int, Int]()
    global.zipWithIndex.foreach { case (v, j) => localOf(v) = j }
    val adj: Truss.Adj = Array.fill(global.length)(mutable.HashSet[Int]())
    var j = 0
    while (j < global.length) {
      g.foreachNeighbor(global(j)) { (u, _) =>
        localOf.get(u).foreach { lu => if (lu != j) { adj(j) += lu; adj(lu) += j } }
      }
      j += 1
    }
    (global, adj)
  }

  /** @return the seed community of `center`, or None if none exists. */
  def extract(g: GraphData, center: Int, r: Int, k: Int, query: Array[Int]): Option[Seed] = {
    if (!g.matchesQuery(center, query)) return None
    val (global, adj) = filteredBall(g, center, r, query)
    var changed = true
    while (changed) {
      Truss.kTrussPeel(adj, k)
      if (k >= 3 && adj(0).isEmpty) return None
      // Def. 2 bullet 2 within the current subgraph: a vertex farther than
      // r from the center, or cut off from it, leaves the community
      val d = Truss.bfsDist(adj, 0)
      changed = false
      adj.indices.foreach { v =>
        if (d(v) > r && adj(v).nonEmpty) {
          adj(v).foreach(u => adj(u) -= v)
          adj(v).clear()
          changed = true
        }
      }
    }
    // at the fixpoint every vertex with edges is within r of the center
    val members = adj.indices.filter(v => v == 0 || adj(v).nonEmpty)
    val edges = (for {
      u <- members.iterator
      v <- adj(u).iterator
      if u < v
    } yield {
      val (a, b) = (global(u), global(v))
      if (a < b) (a, b) else (b, a)
    }).toArray.sorted
    Some(Seed(members.map(global).toArray.sorted, edges))
  }
}
