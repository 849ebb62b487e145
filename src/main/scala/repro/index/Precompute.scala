package repro.index

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.graph.{GraphData, SocialGraph}
import repro.index.TreeIndex.{Agg, VertexRef}
import repro.influence.MIA
import repro.truss.Truss

/** Offline pre-computation (paper Algorithm 2).
  *
  * For every vertex v we compute the paper's per-vertex list `v.R`, one
  * [[TreeIndex.VertexRef]] whose arrays hold at r − 1, for r ∈ [1, r_max]:
  *
  *  - `bv`     — keyword bit vector of the r-hop ball, `v.BV_r`;
  *  - `ubSup`  — support upper bound `v.ub_sup_r` (max over ball vertices
  *               of the max whole-graph support of incident edges — a safe
  *               upper bound on the support of any edge of any seed
  *               community inside the ball, see DESIGN.md);
  *  - `sigmas` — influential-score upper bounds σ_z(hop(v,r)) for each
  *               grid threshold θ_z, from ONE threshold-truncated MIA
  *               expansion at θ₁ ([[repro.influence.MIA.Cpp.sigmaAt]]:
  *               bit-identical to a fresh expansion at every θ_z ≥ θ₁,
  *               and ≥ σ(g) of every g inside the ball with no epsilon;
  *               see DESIGN.md "Float order of σ").
  *
  * The per-vertex work runs partition-parallel over vertex ranges with the
  * CSR graph and the incident-support array broadcast ("index over graph
  * partitions"); the incident supports themselves come from one local
  * merge pass over the same CSR's sorted rows, [[repro.truss.Truss.supports]].
  */
object Precompute {

  /** Default influence-threshold grid {θ_1 < … < θ_m} (paper Table III
    * values of θ).
    */
  val DefaultThetaGrid: Array[Double] = Array(0.1, 0.2, 0.3)

  /** Max whole-graph support of the edges incident to each vertex (0 for
    * isolated vertices): [[repro.truss.Truss.supports]] over G's own sorted
    * CSR rows, [[GraphData.rows]], folded per row.
    */
  def incidentMaxSupport(g: GraphData): Array[Int] = incident(g.rows)

  /** [[incidentMaxSupport]] of the (src, dst) rows of `edges`, collected
    * and checked as `SocialGraph.toGraphData` does: a null end, an end
    * outside 0..n-1, a self loop, a repeated row or a missing reverse is
    * rejected, naming the row. `spark` is unused.
    */
  def incidentMaxSupportArray(spark: SparkSession, edges: DataFrame, n: Int): Array[Int] = {
    val e = SocialGraph.collectEdgeRows(edges, "src", "dst")
    incident(SocialGraph.checkedRows(n, e.map(_.getLong(0)), e.map(_.getLong(1)))._1)
  }

  private def incident(rows: Truss.Rows): Array[Int] = rows.rowMax(Truss.supports(rows, rows.allAlive))

  /** `v.R`: the aggregates of vertex `v` for all radii, indexed r − 1 — the
    * per-vertex unit of work (paper Alg. 2 inner loop), also used directly
    * by tests. One BFS ball, one MIA expansion per radius.
    */
  def localVertexRef(
      g: GraphData,
      incSup: Array[Int],
      v: Int,
      rMax: Int,
      thetaGrid: Array[Double]): VertexRef = {
    val (ball, dist) = g.hopBall(v, rMax)
    val agg = Agg(new Array[Long](rMax), new Array[Int](rMax), new Array[Array[Double]](rMax))
    var size = 0
    var bv = 0L
    var ub = 0
    for (r <- 1 to rMax) {
      // BFS order: hop(v, r) is the prefix of the ball with dist ≤ r
      while (size < ball.length && dist(size) <= r) {
        val u = ball(size)
        bv |= g.kwMask(u)
        if (incSup(u) > ub) ub = incSup(u)
        size += 1
      }
      val cpp = MIA.influencedCpp(g, java.util.Arrays.copyOf(ball, size), thetaGrid.head)
      agg.bv(r - 1) = bv
      agg.ubSup(r - 1) = ub
      agg.sigmas(r - 1) = thetaGrid.map(cpp.sigmaAt)
    }
    VertexRef(v, agg)
  }

  /** Run the offline phase as a Spark job over all vertices, one row each.
    * The grid must ascend strictly: σ_z is expanded at its head and looked
    * up by [[repro.core.TopLICDE.thetaZIndex]].
    */
  def run(
      spark: SparkSession,
      bcG: Broadcast[GraphData],
      bcInc: Broadcast[Array[Int]],
      rMax: Int,
      thetaGrid: Array[Double] = DefaultThetaGrid): Dataset[VertexRef] = {
    require(rMax >= 1, s"rMax must be >= 1, got $rMax")
    require(thetaGrid.nonEmpty && thetaGrid.indices.tail.forall(z => thetaGrid(z - 1) < thetaGrid(z)),
      s"thetaGrid must be non-empty and strictly increasing, got [${thetaGrid.mkString(", ")}]")
    import spark.implicits._
    spark.range(0L, bcG.value.n.toLong, 1L, spark.sparkContext.defaultParallelism * 4)
      .mapPartitions { it =>
        val g = bcG.value
        val inc = bcInc.value
        it.map(v => localVertexRef(g, inc, v.toInt, rMax, thetaGrid))
      }
  }

  /** Convenience: full offline phase from a [[GraphData]], returning the
    * collected `v.R` of every vertex, ready for index construction. Both
    * broadcasts are destroyed once the rows are collected.
    */
  def offline(
      spark: SparkSession,
      g: GraphData,
      rMax: Int,
      thetaGrid: Array[Double] = DefaultThetaGrid): Array[VertexRef] = {
    val bcG = spark.sparkContext.broadcast(g)
    val bcInc = spark.sparkContext.broadcast(incidentMaxSupport(g))
    try run(spark, bcG, bcInc, rMax, thetaGrid).collect()
    finally { bcG.destroy(); bcInc.destroy() }
  }
}
