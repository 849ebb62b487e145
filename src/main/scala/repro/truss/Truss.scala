package repro.truss

import scala.collection.mutable

/** Local (in-memory) k-truss machinery.
  *
  * A graph is an adjacency array of hash sets over vertex indices 0 … n−1
  * (symmetric, no self loops). The per-candidate peeling runs on small
  * subgraphs (tens to hundreds of vertices) inside the online phase; the
  * full decomposition ([[trussness]]) runs once per graph for the ATindex
  * baseline's offline phase — hash sets keep memory proportional to |E|.
  *
  * Definitions (paper §II, [16]): the support `sup(e)` of edge e=(u,v) is
  * the number of triangles containing e, i.e. |N(u) ∩ N(v)|; g is a
  * k-truss iff every edge has support ≥ k−2.
  */
object Truss {

  /** Adjacency structure: one mutable neighbour set per vertex. */
  type Adj = Array[mutable.HashSet[Int]]

  /** Pack an undirected edge (canonical u < v) into a Long key. */
  @inline def key(u: Int, v: Int): Long =
    if (u < v) (u.toLong << 32) | v else (v.toLong << 32) | u

  def copy(adj: Adj): Adj = adj.map(_.clone())

  /** Build adjacency sets from an undirected edge list on n vertices. */
  def adjacency(n: Int, edges: Iterable[(Int, Int)]): Adj = {
    val adj: Adj = Array.fill(n)(mutable.HashSet[Int]())
    edges.foreach { case (u, v) => if (u != v) { adj(u) += v; adj(v) += u } }
    adj
  }

  /** Common neighbours of u and v (iterates the smaller set). */
  def commonNeighbors(adj: Adj, u: Int, v: Int): Iterator[Int] = {
    val (small, big) = if (adj(u).size <= adj(v).size) (adj(u), adj(v)) else (adj(v), adj(u))
    small.iterator.filter(big.contains)
  }

  /** Support of every edge (packed u<v keys) in the graph. */
  def supports(adj: Adj): mutable.HashMap[Long, Int] = {
    val sup = mutable.HashMap[Long, Int]()
    var u = 0
    while (u < adj.length) {
      adj(u).foreach { v =>
        if (u < v) sup(key(u, v)) = commonNeighbors(adj, u, v).size
      }
      u += 1
    }
    sup
  }

  /** Peel `adj` *in place* to its maximal k-truss: repeatedly remove edges
    * with support < k−2 and propagate the support decrements. The result
    * is the (unique) union of all k-trusses of the input.
    */
  def kTrussPeel(adj: Adj, k: Int): Unit =
    if (k > 2) peel(adj, supports(adj), k - 2, _ => ()) // every graph is a (≤2)-truss

  /** The one peeling loop: remove every edge whose support is < `need`,
    * propagating the decrements, until every edge left has support ≥ need.
    * `sup` holds the support of exactly the edges still in `adj`; each
    * removed edge leaves both and is passed to `removed`.
    */
  private def peel(adj: Adj, sup: mutable.HashMap[Long, Int], need: Int, removed: Long => Unit): Unit = {
    val queue = mutable.Queue[Long]()
    sup.foreach { case (e, s) => if (s < need) queue += e }
    while (queue.nonEmpty) {
      val e = queue.dequeue()
      if (sup.remove(e).isDefined) {
        removed(e)
        val u = (e >>> 32).toInt; val v = (e & 0xffffffffL).toInt
        val common = commonNeighbors(adj, u, v).toArray
        adj(u) -= v; adj(v) -= u
        common.foreach { w =>
          var i = 0
          val fs = Array(key(u, w), key(v, w))
          while (i < 2) {
            val f = fs(i)
            val s = sup(f) - 1
            sup(f) = s
            if (s == need - 1) queue += f
            i += 1
          }
        }
      }
    }
  }

  /** Vertices connected to `start` through remaining edges (start always
    * included, even if isolated).
    */
  def componentOf(adj: Adj, start: Int): mutable.HashSet[Int] = {
    val seen = mutable.HashSet(start)
    val stack = mutable.ArrayDeque(start)
    while (stack.nonEmpty) {
      val u = stack.removeLast()
      adj(u).foreach { v => if (seen.add(v)) stack.append(v) }
    }
    seen
  }

  /** BFS hop distances from `start` over the current adjacency; unreachable
    * vertices get Int.MaxValue.
    */
  def bfsDist(adj: Adj, start: Int): Array[Int] = {
    val dist = Array.fill(adj.length)(Int.MaxValue)
    dist(start) = 0
    val q = mutable.ArrayDeque(start)
    while (q.nonEmpty) {
      val u = q.removeHead()
      adj(u).foreach { v =>
        if (dist(v) == Int.MaxValue) { dist(v) = dist(u) + 1; q.append(v) }
      }
    }
    dist
  }

  /** Full truss decomposition: trussness(e) = max k such that e belongs to
    * a k-truss (≥ 2 for every edge). Level-by-level peeling (Wang & Cheng,
    * VLDB 2012): the edges removed while peeling the k-truss to the
    * (k+1)-truss have trussness k. Used by the ATindex baseline offline.
    *
    * @return map from packed edge key (u<v) to trussness
    */
  def trussness(adjIn: Adj): mutable.HashMap[Long, Int] = {
    val adj = copy(adjIn)
    val sup = supports(adj)
    val out = mutable.HashMap[Long, Int]()
    var k = 2
    while (sup.nonEmpty) {
      peel(adj, sup, k - 1, e => out(e) = k)
      k += 1
    }
    out
  }

  /** Convenience for tests: does every edge have support ≥ k−2? */
  def isKTruss(adj: Adj, k: Int): Boolean =
    supports(adj).valuesIterator.forall(_ >= k - 2)
}
