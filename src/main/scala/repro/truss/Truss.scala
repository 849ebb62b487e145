package repro.truss

/** Local (in-memory) k-truss machinery over sorted CSR rows, [[Truss.Rows]]:
  * the whole graph's are the ones `GraphData` holds, `GraphData.rows`, and each
  * keyword-filtered ball, K_Q ball and K_Q core gets small rows from the one
  * sub-rows builder, [[Truss.Rows.sub]]; hops over rows are counted by the one
  * BFS kernel, `repro.graph.Workspace.ball`. Every undirected edge has two
  * slots, one per row. An edge is removed by clearing both slots in an
  * `alive` array parallel to `neigh`; supports and trussness are arrays
  * parallel to `neigh`, equal on both slots.
  *
  * Definitions (paper §II, [16]): the support `sup(e)` of edge e=(u,v) is
  * |N(u) ∩ N(v)|, found by merging the two sorted rows (Wang & Cheng, VLDB
  * 2012); g is a k-truss iff every edge has support ≥ k−2.
  */
object Truss {

  /** Symmetric adjacency rows over vertices 0 … n−1, without self loops:
    * row v is `neigh(offsets(v) until offsets(v + 1))`, ascending. Built
    * from outside edge rows only by the ingest check, `SocialGraph.checkedRows`.
    */
  final case class Rows(offsets: Array[Int], neigh: Array[Int]) {
    def n: Int = offsets.length - 1

    /** f(v, i) for every slot i of row v, rows in ascending order. */
    @inline def foreachSlot(f: (Int, Int) => Unit): Unit = {
      var v = 0
      while (v < n) {
        var i = offsets(v)
        while (i < offsets(v + 1)) { f(v, i); i += 1 }
        v += 1
      }
    }

    /** rev(i): the slot of the reverse edge of slot i (the vertices that
      * list v are met in the order row v lists them).
      */
    val rev: Array[Int] = {
      val next = offsets.clone()
      val out = new Array[Int](neigh.length)
      foreachSlot { (_, i) => out(i) = next(neigh(i)); next(neigh(i)) += 1 }
      out
    }

    def allAlive: Array[Boolean] = Array.fill(neigh.length)(true)

    /** Remove the edge of slot i (both of its slots). */
    def cut(alive: Array[Boolean], i: Int): Unit = { alive(i) = false; alive(rev(i)) = false }

    /** Number of edges still alive at v. */
    def degree(alive: Array[Boolean], v: Int): Int = {
      var d = 0
      var i = offsets(v)
      while (i < offsets(v + 1)) { if (alive(i)) d += 1; i += 1 }
      d
    }

    /** The sub-rows of the slots i where `keep(i)` holds, over the sorted
      * vertices `global`; every kept slot lies in a row of `global` and
      * leads into it. Local id j is vertex global(j): the ids follow the
      * global order, so each sub-row comes out sorted. `local` is scratch
      * over this rows' vertices, left holding each member's local id.
      * Returns the sub-rows and, per sub-slot, the slot it copies.
      */
    def sub(global: Array[Int], local: Array[Int], keep: Int => Boolean): (Rows, Array[Int]) = {
      var j = 0
      while (j < global.length) { local(global(j)) = j; j += 1 }
      val subOffsets = new Array[Int](global.length + 1)
      j = 0
      while (j < global.length) {
        var c = 0
        var i = offsets(global(j))
        while (i < offsets(global(j) + 1)) { if (keep(i)) c += 1; i += 1 }
        subOffsets(j + 1) = subOffsets(j) + c
        j += 1
      }
      val from = new Array[Int](subOffsets(global.length))
      val subNeigh = new Array[Int](from.length)
      var s = 0
      j = 0
      while (j < global.length) {
        var i = offsets(global(j))
        while (i < offsets(global(j) + 1)) {
          if (keep(i)) { from(s) = i; subNeigh(s) = local(neigh(i)); s += 1 }
          i += 1
        }
        j += 1
      }
      (Rows(subOffsets, subNeigh), from)
    }

    /** Per vertex, the max of `vals` over its row (0 for an empty row). */
    def rowMax(vals: Array[Int]): Array[Int] =
      Array.tabulate(n)(v => (offsets(v) until offsets(v + 1)).foldLeft(0)((m, i) => m max vals(i)))
  }

  /** Calls f(a, b) for every w adjacent to both ends of slot i (u → v)
    * through alive edges: a is the slot of (u, w), b the slot of (v, w).
    */
  @inline private def common(rows: Rows, alive: Array[Boolean], i: Int)(f: (Int, Int) => Unit): Unit = {
    val v = rows.neigh(i)
    val u = rows.neigh(rows.rev(i))
    var a = rows.offsets(u)
    var b = rows.offsets(v)
    while (a < rows.offsets(u + 1) && b < rows.offsets(v + 1)) {
      val x = rows.neigh(a); val y = rows.neigh(b)
      if (x == y && alive(a) && alive(b)) f(a, b)
      if (x <= y) a += 1
      if (y <= x) b += 1
    }
  }

  /** Support of every alive edge, on both of its slots (0 on dead slots). */
  def supports(rows: Rows, alive: Array[Boolean]): Array[Int] = {
    val sup = new Array[Int](rows.neigh.length)
    rows.foreachSlot { (u, i) =>
      if (alive(i) && u < rows.neigh(i)) {
        var c = 0
        common(rows, alive, i)((_, _) => c += 1)
        sup(i) = c; sup(rows.rev(i)) = c
      }
    }
    sup
  }

  /** Peel the alive edges *in place* to their maximal k-truss: repeatedly
    * remove edges with support < k−2 and propagate the support decrements.
    * The result is the (unique) union of all k-trusses of the input.
    */
  def kTrussPeel(rows: Rows, alive: Array[Boolean], k: Int): Unit =
    if (k > 2) peel(rows, alive, supports(rows, alive), k - 2, _ => ()) // every graph is a (≤2)-truss

  /** The one peeling loop: remove every alive edge whose support is < `need`,
    * propagating the decrements, until every edge left has support ≥ need.
    * `sup` holds the support of exactly the alive edges; each removed edge
    * is passed to `removed` as its slot in the lower endpoint's row.
    */
  private def peel(rows: Rows, alive: Array[Boolean], sup: Array[Int], need: Int, removed: Int => Unit): Unit = {
    // an edge is pushed at most once, as its first slot: when it starts
    // below `need`, or when its support first drops to need − 1
    val stack = new Array[Int](rows.neigh.length / 2 + 1)
    var top = 0
    def push(i: Int): Unit = { stack(top) = i; top += 1 }
    def drop(s: Int): Unit = {
      sup(s) -= 1; sup(rows.rev(s)) -= 1
      if (sup(s) == need - 1) push(s min rows.rev(s))
    }
    rows.foreachSlot((u, i) => if (alive(i) && u < rows.neigh(i) && sup(i) < need) push(i))
    while (top > 0) {
      top -= 1
      val i = stack(top)
      rows.cut(alive, i)
      removed(i)
      common(rows, alive, i) { (a, b) => drop(a); drop(b) }
    }
  }

  /** Full truss decomposition of the alive edges, which it peels away:
    * trussness(e) = max k such that e belongs to a k-truss (≥ 2 for every
    * edge, 0 on dead slots), on both slots. Level-by-level peeling (Wang &
    * Cheng, VLDB 2012): the edges removed while peeling the k-truss to the
    * (k+1)-truss have trussness k. Used by the ATindex baseline offline.
    */
  def trussness(rows: Rows, alive: Array[Boolean]): Array[Int] = {
    val sup = supports(rows, alive)
    val out = new Array[Int](rows.neigh.length)
    var left = alive.count(identity) / 2
    var k = 2
    while (left > 0) {
      peel(rows, alive, sup, k - 1, { i => out(i) = k; out(rows.rev(i)) = k; left -= 1 })
      k += 1
    }
    out
  }
}
