package repro.truss

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed edge-support computation (triangle counting) over the
  * DataFrame edge representation — an independent reference for the
  * local whole-graph pass that yields the paper's support upper bounds
  * `ub_sup(e)` ([[repro.index.Precompute.incidentMaxSupport]]): the support
  * of an edge in the full data graph G upper-bounds its support in any
  * subgraph g ⊆ G (paper §IV-B discussion).
  */
object Support {

  /** Canonical undirected edge list (src < dst, distinct) from a directed
    * edge DataFrame (src, dst, …).
    */
  def canonicalEdges(edges: DataFrame): DataFrame =
    edges
      .select(least(col("src"), col("dst")).as("src"), greatest(col("src"), col("dst")).as("dst"))
      .where(col("src") =!= col("dst"))
      .distinct()

  /** All triangles (a < b < c) via the standard oriented 3-way self-join on
    * the canonical edge list.
    */
  def triangles(canonical: DataFrame): DataFrame = {
    val e1 = canonical.select(col("src").as("a"), col("dst").as("b"))
    val e2 = canonical.select(col("src").as("b2"), col("dst").as("c"))
    val e3 = canonical.select(col("src").as("a3"), col("dst").as("c3"))
    e1.join(e2, col("b") === col("b2"))
      .join(e3, col("a") === col("a3") && col("c") === col("c3"))
      .select("a", "b", "c")
  }

  /** Per-edge support in G: (src, dst, support) for every canonical edge,
    * zero-support edges included. Each triangle (a,b,c) contributes one to
    * each of its three edges.
    */
  def edgeSupports(edges: DataFrame): DataFrame = {
    val canon = canonicalEdges(edges)
    val tri = triangles(canon)
    val perEdge = tri
      .select(explode(array(
        struct(col("a").as("src"), col("b").as("dst")),
        struct(col("b").as("src"), col("c").as("dst")),
        struct(col("a").as("src"), col("c").as("dst")))).as("e"))
      .select(col("e.src").as("src"), col("e.dst").as("dst"))
      .groupBy("src", "dst")
      .agg(count(lit(1)).as("support"))
    canon
      .join(perEdge, Seq("src", "dst"), "left")
      .select(col("src"), col("dst"), coalesce(col("support"), lit(0L)).as("support"))
  }

  /** Global triangle count of the graph. */
  def triangleCount(edges: DataFrame): Long = triangles(canonicalEdges(edges)).count()
}
