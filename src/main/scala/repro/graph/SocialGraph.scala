package repro.graph

import org.apache.spark.sql.{DataFrame, Row}
import repro.keywords.KeywordBV
import repro.truss.Truss

/** Compact in-memory form of a social network (paper Definition 1).
  *
  * The structure is symmetric (an undirected friendship edge), but each
  * direction carries its own activation probability `p(u,v)` (the weight
  * used by the MIA propagation model), so every undirected edge appears
  * twice in the rows — once per direction, each with its weight.
  *
  * This form is small (a few MB at the scales we run: |V| ≤ 50K) and is
  * broadcast to executors so per-vertex offline pre-computation can run
  * partition-parallel over vertex ranges ("index over graph partitions").
  * It ships whole: no copy rebuilds G's rows or their reverse-slot array.
  *
  * @param rows     G's sorted CSR rows over vertices 0 … n−1, as checked by
  *                 [[SocialGraph.checkedRows]]: the one [[Truss.Rows]] of G
  * @param weight   activation probability p(u → neigh(i)), parallel to `neigh`
  * @param keywords per-vertex sorted keyword sets (exact membership checks)
  * @param kwMask   per-vertex keyword bit vector `v.BV` (pruning filter)
  */
final case class GraphData(
    rows: Truss.Rows,
    weight: Array[Double],
    keywords: Array[Array[Int]],
    kwMask: Array[Long]
) extends Serializable {

  /** Of [[rows]]: n vertices, CSR offsets (length n+1), flattened out-neighbour ids. */
  def n: Int = rows.n
  def offsets: Array[Int] = rows.offsets
  def neigh: Array[Int] = rows.neigh

  /** Number of undirected edges |E(G)| (each stored twice). */
  def numUndirectedEdges: Long = neigh.length.toLong / 2

  /** Iterate out-neighbours of `v` (structure is symmetric). */
  @inline def foreachNeighbor(v: Int)(f: (Int, Double) => Unit): Unit = {
    var i = offsets(v)
    val end = offsets(v + 1)
    while (i < end) { f(neigh(i), weight(i)); i += 1 }
  }

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
    * by [[Workspace.ball]] over [[rows]] on this thread's workspace.
    *
    * @return (vertices in BFS order, parallel hop distances, non-decreasing)
    */
  def hopBall(center: Int, r: Int): (Array[Int], Array[Int]) = {
    val ws = Workspace.of(n)
    val size = ws.ball(rows, center, r, null)
    (java.util.Arrays.copyOf(ws.outIds, size), java.util.Arrays.copyOf(ws.outDist, size))
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

  /** Collect the DataFrame form into the compact CSR form, through
    * [[build]] after the vertex rows are checked.
    *
    * Only used at driver/broadcast scale (|V| ≤ ~100K); the generators and
    * all whole-graph aggregates stay distributed.
    */
  def toGraphData(gf: GraphFrames): GraphData = {
    val vRows = gf.vertices.select("id", "keywords").collect()
    val n = vRows.length
    val keywords = new Array[Array[Int]](n)
    vRows.foreach { r =>
      require(!r.isNullAt(0), s"vertex row ${r.mkString("(", ", ", ")")} has a null id")
      val id = r.getLong(0)
      require(id >= 0 && id < n, s"vertex row $id: ids must be dense 0..n-1, n = $n")
      require(keywords(id.toInt) == null, s"repeated vertex row $id")
      // boxed, so a null keyword is not unboxed to keyword 0
      val boxed = r.getSeq[Integer](1)
      require(boxed != null, s"vertex row $id has a null keyword array")
      require(!boxed.contains(null), s"vertex row $id has a null keyword")
      keywords(id.toInt) = boxed.map(_.intValue).toArray
    }
    val e = collectEdgeRows(gf.edges, "src", "dst", "weight")
    build(keywords, e.map(_.getLong(0)), e.map(_.getLong(1)), e.map(_.getDouble(2)))
  }

  /** Build a small [[GraphData]] directly from edge/keyword lists (tests),
    * through [[build]]: each `undirected` pair becomes one row per
    * direction, weighted by `directedWeights` or else `w`; a vertex without
    * keywords gets {0}.
    */
  def fromEdges(
      n: Int,
      undirected: Seq[(Int, Int)],
      keywords: Map[Int, Seq[Int]] = Map.empty,
      w: Double = 0.5,
      directedWeights: Map[(Int, Int), Double] = Map.empty
  ): GraphData = {
    val rows = undirected.flatMap { case (u, v) => Seq((u, v), (v, u)) }.toArray
    build(Array.tabulate(n)(keywords.getOrElse(_, Seq(0)).toArray),
      rows.map(_._1.toLong), rows.map(_._2.toLong), rows.map(directedWeights.getOrElse(_, w)))
  }

  /** The columns `cols` of every edge row, collected to the driver; a row
    * with a null field is rejected, naming the row.
    */
  def collectEdgeRows(edges: DataFrame, cols: String*): Array[Row] = {
    val rows = edges.select(cols.head, cols.tail: _*).collect()
    rows.foreach(r => require(!r.anyNull, s"edge row ${r.mkString("(", ", ", ")")} has a null field"))
    rows
  }

  /** The structural half of the ingest boundary, and the one builder of
    * [[Truss.Rows]] from outside rows: row j is the directed edge
    * src(j) → dst(j) over vertices 0 … n−1. Each adjacency row is sorted by
    * neighbour id, with no boxing: a counting sort by src, then a primitive
    * sort of (dst << 32 | j) inside each row. Input the sorted-row truss
    * kernels cannot take (not a simple symmetric structure) is rejected,
    * naming the row.
    *
    * @return the rows, and for each slot the input row j it came from
    */
  def checkedRows(n: Int, src: Array[Long], dst: Array[Long]): (Truss.Rows, Array[Int]) = {
    src.indices.foreach { j =>
      require(src(j) >= 0 && src(j) < n && dst(j) >= 0 && dst(j) < n,
        s"edge row (${src(j)}, ${dst(j)}) has an end outside 0..n-1, n = $n")
    }
    val offsets = new Array[Int](n + 1)
    src.foreach(s => offsets(s.toInt + 1) += 1)
    (0 until n).foreach(v => offsets(v + 1) += offsets(v))
    val cursor = offsets.clone()
    val packed = new Array[Long](src.length)
    src.indices.foreach { j => packed(cursor(src(j).toInt)) = (dst(j) << 32) | j; cursor(src(j).toInt) += 1 }
    (0 until n).foreach(v => java.util.Arrays.sort(packed, offsets(v), offsets(v + 1)))
    val neigh = packed.map(p => (p >>> 32).toInt)
    (0 until n).foreach { v =>
      (offsets(v) until offsets(v + 1)).foreach { i =>
        val d = neigh(i)
        require(d != v, s"self loop: edge row ($v, $d)")
        require(i == offsets(v) || neigh(i - 1) != d, s"repeated edge row ($v, $d)")
        require(java.util.Arrays.binarySearch(neigh, offsets(d), offsets(d + 1), v) >= 0,
          s"edge row ($v, $d) has no reverse row ($d, $v)")
      }
    }
    (Truss.Rows(offsets, neigh), packed.map(_.toInt))
  }

  /** The one [[GraphData]] builder: [[checkedRows]] of the edge rows, with
    * weight(j) on row j's slot and keywords(v) the keyword set of vertex v,
    * 0 ≤ v < n = keywords.length. A weight MIA's best-first expansion cannot
    * take (outside (0, 1]) is rejected, naming the row.
    */
  private def build(keywords: Array[Array[Int]], src: Array[Long], dst: Array[Long], weight: Array[Double]): GraphData = {
    val (rows, order) = checkedRows(keywords.length, src, dst)
    val w = order.map(weight)
    rows.foreachSlot { (v, i) =>
      require(w(i) > 0 && w(i) <= 1, s"edge row ($v, ${rows.neigh(i)}) has weight ${w(i)} outside (0, 1]")
    }
    val kw = keywords.map(_.sorted)
    GraphData(rows, w, kw, kw.map(KeywordBV.hashSet(_)))
  }
}
