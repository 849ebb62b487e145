package repro.truss

import repro.graph.Workspace

/** k-core peeling [23]: the maximal subgraph in which every vertex has
  * degree ≥ k. It is the structural-cohesiveness baseline of the paper's
  * case study (Fig. 5), and the cheap pre-filter of the per-query keyword
  * truss (a k-truss lies inside the (k−1)-core). Runs on the same sorted
  * rows as [[Truss]].
  */
object KCore {

  /** Peel the alive edges *in place* to their maximal k-core (possibly
    * empty). A no-op for k ≤ 1.
    */
  def kCorePeel(rows: Truss.Rows, alive: Array[Boolean], k: Int): Unit =
    kCorePeel(rows, alive, k, Array.tabulate(rows.n)(rows.degree(alive, _)))

  /** [[kCorePeel]] from known degrees: `deg(v)` is v's number of alive
    * edges on entry, and its degree in the k-core on return (0 off it).
    */
  def kCorePeel(rows: Truss.Rows, alive: Array[Boolean], k: Int, deg: Array[Int]): Unit = {
    // a vertex is pushed at most once: when it starts with 0 < deg < k, or
    // when its degree first drops to k − 1
    val stack = new Array[Int](rows.n)
    var top = 0
    var v = 0
    while (v < rows.n) {
      if (deg(v) > 0 && deg(v) < k) { stack(top) = v; top += 1 }
      v += 1
    }
    while (top > 0) {
      top -= 1
      val v = stack(top)
      var i = rows.offsets(v)
      while (i < rows.offsets(v + 1)) {
        if (alive(i)) {
          val u = rows.neigh(i)
          rows.cut(alive, i)
          deg(u) -= 1
          if (deg(u) == k - 1) { stack(top) = u; top += 1 }
        }
        i += 1
      }
      deg(v) = 0
    }
  }

  /** The k-core community around `center`: peel to the maximal k-core and
    * take the connected component containing `center`, as sorted local ids
    * like a seed's members. Empty if the center itself was peeled away.
    */
  def kCoreCommunity(rows: Truss.Rows, center: Int, k: Int): Array[Int] = {
    val alive = rows.allAlive
    kCorePeel(rows, alive, k)
    val ws = Workspace.of(rows.n)
    if (rows.degree(alive, center) == 0) Array.emptyIntArray
    else java.util.Arrays.copyOf(ws.outIds, ws.ball(rows, center, Int.MaxValue, alive)).sorted
  }
}
