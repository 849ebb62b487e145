package repro.core

import repro.graph.GraphData
import repro.truss.Truss

/** The ATindex baseline (paper §VIII-A "Competitors"), built on the
  * state-of-the-art (k,d)-truss community search of Huang & Lakshmanan
  * [22]: offline, index the trussness of every edge/vertex of G; online,
  * filter out vertices whose trussness is below k, extract the r-hop seed
  * community around each surviving (keyword-matching) center, compute ALL
  * the influential scores, and return the best L. It benefits from truss
  * and keyword filtering but has no influence-bound pruning and no
  * best-first index — which is exactly the gap Fig. 2 measures.
  */
object ATindex {

  /** Offline structure: per-vertex trussness (max trussness over incident
    * edges; 0 for isolated vertices).
    */
  final case class Offline(vertexTrussness: Array[Int])

  /** Offline phase: full truss decomposition of G, over G's own sorted
    * CSR rows, [[GraphData.rows]].
    */
  def offline(g: GraphData): Offline = Offline(g.rows.rowMax(Truss.trussness(g.rows, g.rows.allAlive)))

  /** Online phase, exactly as the paper describes the baseline: every
    * center whose trussness reaches k (every center for k ≤ 2, where an
    * isolated vertex is a singleton community) has its keyword-filtered
    * r-hop subgraph extracted and peeled to its maximal k-truss, and every
    * found community is scored: no influence-bound pruning and no
    * de-duplication before scoring. Ranking through [[Community.Best]]
    * gives Algorithm 3's answers, each with its smallest center; only the
    * work differs — that gap is what Fig. 2 measures.
    *
    * @return (answers, number of centers whose ball was extracted/peeled)
    */
  def query(g: GraphData, off: Offline, q: Query): (Seq[Community], Long) = {
    var refined = 0L
    val best = new Community.Best(q.L)
    var v = 0
    while (v < g.n) {
      if (q.k <= 2 || off.vertexTrussness(v) >= q.k) {
        refined += 1
        if (g.matchesQuery(v, q.keywords))
          SeedExtract.extract(g, v, q.r, q.k, q.keywords)
            .foreach(seed => best.offer(Community.scored(g, v, seed.vertices, q.theta)))
        else {
          // the paper's baseline extracts and peels the keyword-filtered
          // ball before it finds that the center itself disqualifies; that
          // cost is part of what Fig. 2 measures
          val rows = SeedExtract.filteredBall(g, v, q.r, q.keywords)._2
          Truss.kTrussPeel(rows, rows.allAlive, q.k)
        }
      }
      v += 1
    }
    (best.answers, refined)
  }
}
