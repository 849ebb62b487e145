package repro.truss

/** k-core peeling [23] — the structural-cohesiveness baseline used by the
  * paper's case study (Fig. 5): the maximal subgraph in which every vertex
  * has degree ≥ k. Runs on the same sorted rows as [[Truss]].
  */
object KCore {

  /** Peel the alive edges *in place* to their maximal k-core (possibly
    * empty).
    */
  def kCorePeel(rows: Truss.Rows, alive: Array[Boolean], k: Int): Unit = {
    val deg = Array.tabulate(rows.n)(rows.degree(alive, _))
    val removed = new Array[Boolean](rows.n)
    var stack = (0 until rows.n).filter(deg(_) < k).toList
    while (stack.nonEmpty) {
      val v = stack.head
      stack = stack.tail
      if (!removed(v)) {
        removed(v) = true
        (rows.offsets(v) until rows.offsets(v + 1)).filter(alive(_)).foreach { i =>
          val u = rows.neigh(i)
          rows.cut(alive, i)
          deg(u) -= 1
          if (!removed(u) && deg(u) < k) stack = u :: stack
        }
      }
    }
  }

  /** The k-core community around `center`: peel to the maximal k-core and
    * take the connected component containing `center`, as sorted local ids
    * like a seed's members. Empty if the center itself was peeled away.
    */
  def kCoreCommunity(rows: Truss.Rows, center: Int, k: Int): Array[Int] = {
    val alive = rows.allAlive
    kCorePeel(rows, alive, k)
    if (rows.degree(alive, center) == 0) Array.emptyIntArray
    else Truss.bfsDist(rows, alive, center).zipWithIndex.collect { case (d, v) if d < Int.MaxValue => v }
  }
}
