package repro.graph

import repro.truss.Truss

/** Per-thread scratch space of the primitive graph kernels: the one BFS
  * kernel ([[ball]] over a [[Truss.Rows]]: the hop ball of [[GraphData.hopBall]],
  * both balls of a seed extraction and its radius cut ([[repro.core.SeedExtract]]),
  * the k-core community of the case study), the compact sub-rows of those
  * balls and of the K_Q core ([[repro.truss.Truss.Rows.sub]]) and the MIA
  * expansion ([[repro.influence.MIA.influencedCpp]]).
  *
  * Every array is dense over vertex ids `0 … capacity−1`. A stamp array
  * holds, per vertex, the epoch of the last call that wrote it, so a call
  * starts by taking a fresh epoch ([[nextEpoch]]) instead of clearing
  * anything: an entry is valid only where its stamp equals the current
  * epoch. Kernels do not nest, so one epoch counter serves all of them,
  * and each kernel copies its result out before it returns.
  *
  * Get one through [[Workspace.of]]; it is never shared between threads.
  */
final class Workspace private (val capacity: Int) {

  /** Epoch of the running call; package-private so that tests can place
    * it next to the wrap without 2^31 calls.
    */
  private[graph] var epoch = 0

  /** Per-vertex stamp: in the ball (BFS), a kept member of an extraction ball, or `best` is valid (MIA). */
  private[repro] val stamp = new Array[Int](capacity)
  /** Per-vertex stamp: settled (MIA). */
  private[repro] val settled = new Array[Int](capacity)
  /** MIA: best probability known so far, valid where `stamp` is current. */
  private[repro] val best = new Array[Double](capacity)
  /** Output buffers, one slot per vertex: BFS order and hop distance, or
    * MIA settlement order and cpp.
    */
  private[repro] val outIds = new Array[Int](capacity)
  private[repro] val outDist = new Array[Int](capacity)
  private[repro] val outProbs = new Array[Double](capacity)
  /** Local ids of compact sub-rows ([[repro.truss.Truss.Rows.sub]]): a
    * K_Q ball vertex's, valid where `stamp` is current, or a K_Q core
    * vertex's while K_Q is peeled.
    */
  private[repro] val local = new Array[Int](capacity)

  // Binary max-heap of (probability, vertex) pairs in two parallel arrays.
  // Entries are never removed early: a popped entry whose probability is
  // no longer its vertex's `best` is stale, and the caller skips it.
  private var heapP = new Array[Double](16)
  private var heapV = new Array[Int](16)
  private var heapSize = 0

  /** Start a call: a stamp equal to the returned epoch was written by it. */
  private[repro] def nextEpoch(): Int = {
    if (epoch == Int.MaxValue) {
      java.util.Arrays.fill(stamp, 0)
      java.util.Arrays.fill(settled, 0)
      epoch = 0
    }
    epoch += 1
    epoch
  }

  /** BFS from `center` to depth `r` over `rows`, through the slots i where
    * `alive(i)` holds (every slot when `alive` is null): it takes a fresh
    * epoch, stamps the ball, leaves it in `outIds` in BFS order with its hop
    * distances in `outDist`, and returns its size.
    */
  private[repro] def ball(rows: Truss.Rows, center: Int, r: Int, alive: Array[Boolean]): Int = {
    val offsets = rows.offsets
    val neigh = rows.neigh
    val e = nextEpoch()
    outIds(0) = center; outDist(0) = 0; stamp(center) = e
    var size = 1
    var head = 0
    while (head < size && outDist(head) < r) {
      val u = outIds(head)
      val du = outDist(head) + 1
      var i = offsets(u)
      val end = offsets(u + 1)
      while (i < end) {
        val v = neigh(i)
        if ((alive == null || alive(i)) && stamp(v) != e) {
          stamp(v) = e; outIds(size) = v; outDist(size) = du; size += 1
        }
        i += 1
      }
      head += 1
    }
    size
  }

  /** True iff the running call stamped `v`: after [[ball]], iff v is in the ball. */
  private[repro] def stamped(v: Int): Boolean = stamp(v) == epoch

  private[repro] def heapClear(): Unit = heapSize = 0
  private[repro] def heapNonEmpty: Boolean = heapSize > 0
  private[repro] def topP: Double = heapP(0)
  private[repro] def topV: Int = heapV(0)

  private[repro] def push(p: Double, v: Int): Unit = {
    if (heapSize == heapP.length) {
      heapP = java.util.Arrays.copyOf(heapP, heapSize * 2)
      heapV = java.util.Arrays.copyOf(heapV, heapSize * 2)
    }
    var i = heapSize
    heapSize += 1
    while (i > 0 && heapP((i - 1) >> 1) < p) {
      val parent = (i - 1) >> 1
      heapP(i) = heapP(parent); heapV(i) = heapV(parent)
      i = parent
    }
    heapP(i) = p; heapV(i) = v
  }

  /** Drop the top entry. */
  private[repro] def pop(): Unit = {
    heapSize -= 1
    val p = heapP(heapSize)
    val v = heapV(heapSize)
    var i = 0
    var done = heapSize == 0
    while (!done) {
      var c = 2 * i + 1
      if (c >= heapSize) done = true
      else {
        if (c + 1 < heapSize && heapP(c + 1) > heapP(c)) c += 1
        if (heapP(c) <= p) done = true
        else { heapP(i) = heapP(c); heapV(i) = heapV(c); i = c }
      }
    }
    if (heapSize > 0) { heapP(i) = p; heapV(i) = v }
  }
}

object Workspace {

  private val local = new ThreadLocal[Workspace] {
    override def initialValue(): Workspace = new Workspace(0)
  }

  /** This thread's workspace, grown to hold vertex ids `0 … n−1`. */
  def of(n: Int): Workspace = {
    val w = local.get()
    if (w.capacity >= n) w
    else {
      val grown = new Workspace(n)
      local.set(grown)
      grown
    }
  }

  /** Replace this thread's workspace by an empty one (tests). */
  private[graph] def drop(): Unit = local.remove()
}
