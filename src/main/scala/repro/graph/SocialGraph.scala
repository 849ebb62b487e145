package repro.graph

import org.apache.spark.sql.{DataFrame, Row}
import repro.keywords.KeywordBV

import scala.collection.mutable

/** Compact in-memory form of a social network (paper Definition 1).
  *
  * The structure is symmetric (an undirected friendship edge), but each
  * direction carries its own activation probability `p(u,v)` (the weight
  * used by the MIA propagation model), so every undirected edge appears
  * twice in the CSR arrays — once per direction, each with its weight.
  *
  * This form is small (a few MB at the scales we run: |V| ≤ 50K) and is
  * broadcast to executors so per-vertex offline pre-computation can run
  * partition-parallel over vertex ranges ("index over graph partitions").
  *
  * @param n        number of vertices, ids are 0 … n−1
  * @param offsets  CSR row offsets, length n+1
  * @param neigh    flattened out-neighbour ids, length offsets(n)
  * @param weight   activation probability p(u → neigh(i)), parallel to `neigh`
  * @param keywords per-vertex sorted keyword sets (exact membership checks)
  * @param kwMask   per-vertex keyword bit vector `v.BV` (pruning filter)
  */
final case class GraphData(
    n: Int,
    offsets: Array[Int],
    neigh: Array[Int],
    weight: Array[Double],
    keywords: Array[Array[Int]],
    kwMask: Array[Long]
) extends Serializable {

  /** Number of undirected edges |E(G)| (each stored twice). */
  def numUndirectedEdges: Long = neigh.length.toLong / 2

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Iterate out-neighbours of `v` (structure is symmetric). */
  @inline def foreachNeighbor(v: Int)(f: (Int, Double) => Unit): Unit = {
    var i = offsets(v)
    val end = offsets(v + 1)
    while (i < end) { f(neigh(i), weight(i)); i += 1 }
  }

  def neighborsOf(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(neigh, offsets(v), offsets(v + 1))

  /** True iff vertex `v` matches at least one query keyword (exact). */
  def matchesQuery(v: Int, query: Array[Int]): Boolean = {
    val w = keywords(v)
    var i = 0
    while (i < query.length) {
      if (java.util.Arrays.binarySearch(w, query(i)) >= 0) return true
      i += 1
    }
    false
  }

  /** Unweighted BFS ball: all vertices within `r` hops of `center`, found
    * on this thread's [[Workspace]] (epoch-stamped visit marks, so there is
    * nothing to reset afterwards).
    *
    * @return (vertices in BFS order, parallel hop distances, non-decreasing)
    */
  def hopBall(center: Int, r: Int): (Array[Int], Array[Int]) = {
    val ws = Workspace.of(n)
    val e = ws.nextEpoch()
    val order = ws.outIds
    val dist = ws.outDist
    order(0) = center; dist(0) = 0; ws.stamp(center) = e
    var size = 1
    var head = 0
    while (head < size && dist(head) < r) {
      val u = order(head)
      val du = dist(head) + 1
      var i = offsets(u)
      val end = offsets(u + 1)
      while (i < end) {
        val v = neigh(i)
        if (ws.stamp(v) != e) { ws.stamp(v) = e; order(size) = v; dist(size) = du; size += 1 }
        i += 1
      }
      head += 1
    }
    (java.util.Arrays.copyOf(order, size), java.util.Arrays.copyOf(dist, size))
  }
}

/** Builders between the DataFrame representation and [[GraphData]]. */
object SocialGraph {

  /** A generated social network as DataFrames.
    *
    * `vertices`: (id: Long, keywords: Array[Int]) — one row per vertex.
    * `edges`:    (src: Long, dst: Long, weight: Double) — one row per
    * *direction*; the structure is symmetric (if (u,v) appears, so does
    * (v,u), generally with a different weight).
    */
  final case class GraphFrames(vertices: DataFrame, edges: DataFrame)

  /** Collect the DataFrame form into the compact CSR form.
    *
    * Only used at driver/broadcast scale (|V| ≤ ~100K); the generators and
    * all whole-graph aggregates stay distributed.
    */
  def toGraphData(gf: GraphFrames): GraphData = {
    val vRows = gf.vertices.select("id", "keywords").collect()
    val n = vRows.length
    val keywords = new Array[Array[Int]](n)
    val kwMask = new Array[Long](n)
    vRows.foreach { r =>
      val id = r.getLong(0)
      require(id >= 0 && id < n, s"vertex row $id: ids must be dense 0..n-1, n = $n")
      require(keywords(id.toInt) == null, s"repeated vertex row $id")
      // boxed, so a null keyword is not unboxed to keyword 0
      val boxed = r.getSeq[Integer](1)
      require(boxed != null, s"vertex row $id has a null keyword array")
      require(!boxed.contains(null), s"vertex row $id has a null keyword")
      keywords(id.toInt) = boxed.map(_.intValue).toArray.sorted
      kwMask(id.toInt) = KeywordBV.hashSet(keywords(id.toInt))
    }
    val eRows: Array[Row] = gf.edges.select("src", "dst", "weight").collect()
    eRows.foreach { r =>
      val (s, d) = (r.getLong(0), r.getLong(1))
      require(s >= 0 && s < n && d >= 0 && d < n, s"edge row ($s, $d) has an end outside 0..n-1, n = $n")
    }
    val deg = new Array[Int](n)
    eRows.foreach(r => deg(r.getLong(0).toInt) += 1)
    val offsets = new Array[Int](n + 1)
    var i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val neigh = new Array[Int](eRows.length)
    val weight = new Array[Double](eRows.length)
    val cursor = offsets.clone()
    eRows.foreach { r =>
      val s = r.getLong(0).toInt
      neigh(cursor(s)) = r.getLong(1).toInt
      weight(cursor(s)) = r.getDouble(2)
      cursor(s) += 1
    }
    // Sort each adjacency row by neighbour id (binary-searchable, stable).
    i = 0
    while (i < n) {
      val from = offsets(i); val until = offsets(i + 1)
      val idx = (from until until).sortBy(neigh)
      val nn = idx.map(neigh).toArray; val ww = idx.map(weight).toArray
      System.arraycopy(nn, 0, neigh, from, nn.length)
      System.arraycopy(ww, 0, weight, from, ww.length)
      i += 1
    }
    // The ingest boundary: the sorted-row truss kernels need a simple
    // symmetric structure, and MIA's best-first expansion needs p in (0, 1].
    i = 0
    while (i < n) {
      var s = offsets(i)
      while (s < offsets(i + 1)) {
        val d = neigh(s)
        require(d != i, s"self loop: edge row ($i, $d)")
        require(s == offsets(i) || neigh(s - 1) != d, s"repeated edge row ($i, $d)")
        require(java.util.Arrays.binarySearch(neigh, offsets(d), offsets(d + 1), i) >= 0,
          s"edge row ($i, $d) has no reverse row ($d, $i)")
        require(weight(s) > 0 && weight(s) <= 1, s"edge row ($i, $d) has weight ${weight(s)} outside (0, 1]")
        s += 1
      }
      i += 1
    }
    GraphData(n, offsets, neigh, weight, keywords, kwMask)
  }

  /** Build a small [[GraphData]] directly from edge/keyword lists (tests).
    *
    * `undirected` pairs are expanded to both directions with the given
    * per-direction weights defaulting to `w`.
    */
  def fromEdges(
      n: Int,
      undirected: Seq[(Int, Int)],
      keywords: Map[Int, Seq[Int]] = Map.empty,
      w: Double = 0.5,
      directedWeights: Map[(Int, Int), Double] = Map.empty
  ): GraphData = {
    val adj = Array.fill(n)(mutable.TreeMap[Int, Double]())
    undirected.foreach { case (u, v) =>
      require(u != v, s"self loop $u")
      adj(u)(v) = directedWeights.getOrElse((u, v), w)
      adj(v)(u) = directedWeights.getOrElse((v, u), w)
    }
    val offsets = new Array[Int](n + 1)
    (0 until n).foreach(i => offsets(i + 1) = offsets(i) + adj(i).size)
    val neigh = new Array[Int](offsets(n))
    val weight = new Array[Double](offsets(n))
    var p = 0
    (0 until n).foreach { i =>
      adj(i).foreach { case (v, wt) => neigh(p) = v; weight(p) = wt; p += 1 }
    }
    val kw = (0 until n).map(i => keywords.getOrElse(i, Seq(0)).toArray.sorted).toArray
    GraphData(n, offsets, neigh, weight, kw, kw.map(ks => KeywordBV.hashSet(ks.toSeq)))
  }
}
