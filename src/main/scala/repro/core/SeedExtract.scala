package repro.core

import repro.graph.{GraphData, Workspace}
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
  *
  * Two balls feed the same fixpoint: the keyword-filtered ball of G
  * ([[extract]], the paper's Alg. 3, both baselines and the benchmark's
  * replay) and the much smaller r-ball in the query's keyword truss K_Q
  * ([[extractInTruss]], Alg. 3's `KeywordTruss` rung). One builder makes both:
  * the BFS [[Workspace.ball]] over G's rows, then [[Truss.Rows.sub]] of the
  * members; the fixpoint's radius cut is the same BFS over the ball's rows.
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
  def filteredBall(g: GraphData, center: Int, r: Int, query: Array[Int]): (Array[Int], Truss.Rows) =
    ballRows(g, center, r, null, g.matchesQuery(_, query))

  /** The r-ball of `center` in the keyword truss K_Q, given as its `alive`
    * mask over G's slots ([[TopLICDE.keywordTruss]]): the vertices within r
    * of `center` over K_Q's edges, sorted, and their rows of K_Q edges.
    */
  def trussBall(g: GraphData, kQ: Array[Boolean], center: Int, r: Int): (Array[Int], Truss.Rows) =
    ballRows(g, center, r, kQ, _ => true)

  /** The one builder of both balls: the BFS to depth r from `center` over
    * G's slots where `walk` holds (every slot when null), on this thread's
    * [[Workspace]]; the ball vertices that pass `member`, sorted; and their
    * sub-rows ([[Truss.Rows.sub]]) of the slots that `walk` holds and that
    * lead to a member.
    */
  private def ballRows(g: GraphData, center: Int, r: Int, walk: Array[Boolean], member: Int => Boolean) = {
    val ws = Workspace.of(g.n)
    val size = ws.ball(g.rows, center, r, walk)
    var m = 0
    var j = 0
    while (j < size) { if (member(ws.outIds(j))) { ws.outIds(m) = ws.outIds(j); m += 1 }; j += 1 }
    val global = java.util.Arrays.copyOf(ws.outIds, m)
    java.util.Arrays.sort(global)
    val e = ws.nextEpoch()
    j = 0
    while (j < m) { ws.stamp(global(j)) = e; j += 1 }
    val neigh = g.neigh
    (global, g.rows.sub(global, ws.local, i => (walk == null || walk(i)) && ws.stamp(neigh(i)) == e)._1)
  }

  /** @return the seed community of `center`, or None if none exists. */
  def extract(g: GraphData, center: Int, r: Int, k: Int, query: Array[Int]): Option[Seed] =
    if (!g.matchesQuery(center, query)) None else fixpoint(filteredBall(g, center, r, query), center, r, k)

  /** [[extract]], started from the center's K_Q ball ([[trussBall]]) instead
    * of its keyword-filtered ball; `kQ` is the K_Q of `query` at `k`. The
    * seed is the same (DESIGN "Keyword truss K_Q"): its edges lie in K_Q and
    * its members within r of the center over them, so the K_Q ball holds
    * it, and the fixpoint from any ball that holds the seed reaches it.
    */
  def extractInTruss(g: GraphData, kQ: Array[Boolean], center: Int, r: Int, k: Int, query: Array[Int]): Option[Seed] =
    if (!g.matchesQuery(center, query)) None else fixpoint(trussBall(g, kQ, center, r), center, r, k)

  /** Peel ⇄ radius to the fixpoint on a ball of `center` (its sorted
    * members and their rows) that holds its seed community. The radius cut
    * is a [[Workspace.ball]] over the alive slots: every alive slot whose
    * source it did not reach is cut, and the seed is the last ball.
    */
  private def fixpoint(ball: (Array[Int], Truss.Rows), center: Int, r: Int, k: Int): Option[Seed] = {
    val (global, rows) = ball
    val c = java.util.Arrays.binarySearch(global, center)
    val alive = rows.allAlive
    val ws = Workspace.of(rows.n)
    var size = 0
    var changed = true
    while (changed) {
      Truss.kTrussPeel(rows, alive, k)
      if (k >= 3 && rows.degree(alive, c) == 0) return None
      // Def. 2 bullet 2 within the current subgraph: a vertex farther than
      // r from the center, or cut off from it, leaves the community
      size = ws.ball(rows, c, r, alive)
      changed = false
      rows.foreachSlot((v, i) => if (alive(i) && !ws.stamped(v)) { rows.cut(alive, i); changed = true })
    }
    // at the fixpoint the ball is every vertex with an edge, and the center
    Some(Seed(java.util.Arrays.copyOf(ws.outIds, size).sorted.map(global)))
  }
}
