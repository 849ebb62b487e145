package repro.index

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.graph.GraphData
import repro.influence.MIA
import repro.truss.Truss

/** Offline pre-computation (paper Algorithm 2).
  *
  * For every vertex v and radius r ∈ [1, r_max] we compute the aggregates
  * stored in the paper's per-vertex list `v.R`:
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

  /** One row of pre-computed data: the aggregates of `hop(id, r)`. */
  final case class VertexAgg(id: Int, r: Int, bv: Long, ubSup: Int, sigmas: Array[Double])

  /** Max whole-graph support of the edges incident to each vertex (0 for
    * isolated vertices): [[repro.truss.Truss.supports]] over G's own sorted
    * CSR rows, folded per row.
    */
  def incidentMaxSupport(g: GraphData): Array[Int] = incident(Truss.Rows(g.offsets, g.neigh))

  /** [[incidentMaxSupport]] of every (src, dst) row of `edges`, symmetrised,
    * deduplicated and without self loops; `spark` is unused.
    */
  def incidentMaxSupportArray(spark: SparkSession, edges: DataFrame, n: Int): Array[Int] = {
    val pairs = edges.select("src", "dst").collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt))
    incident(Truss.Rows.of(n, pairs))
  }

  private def incident(rows: Truss.Rows): Array[Int] = rows.rowMax(Truss.supports(rows, rows.allAlive))

  /** The aggregates of vertex `v` for all radii — the per-vertex unit of
    * work (paper Alg. 2 inner loop), also used directly by tests.
    */
  def localVertexAggs(
      g: GraphData,
      incSup: Array[Int],
      v: Int,
      rMax: Int,
      thetaGrid: Array[Double]): Seq[VertexAgg] = {
    val (ball, dist) = g.hopBall(v, rMax)
    (1 to rMax).map { r =>
      // BFS order: hop(v, r) is the prefix of the ball with dist ≤ r
      var size = 0
      var bv = 0L
      var ub = 0
      while (size < ball.length && dist(size) <= r) {
        val u = ball(size)
        bv |= g.kwMask(u)
        if (incSup(u) > ub) ub = incSup(u)
        size += 1
      }
      val cpp = MIA.influencedCpp(g, java.util.Arrays.copyOf(ball, size), thetaGrid.head)
      VertexAgg(v, r, bv, ub, thetaGrid.map(cpp.sigmaAt))
    }
  }

  /** Run the offline phase as a Spark job over all vertices. */
  def run(
      spark: SparkSession,
      bcG: Broadcast[GraphData],
      bcInc: Broadcast[Array[Int]],
      rMax: Int,
      thetaGrid: Array[Double] = DefaultThetaGrid): Dataset[VertexAgg] = {
    import spark.implicits._
    spark
      .range(bcG.value.n.toLong)
      .repartition(spark.sparkContext.defaultParallelism * 4)
      .mapPartitions { it =>
        val g = bcG.value
        val inc = bcInc.value
        it.flatMap(v => localVertexAggs(g, inc, v.toInt, rMax, thetaGrid))
      }
  }

  /** Convenience: full offline phase from a [[GraphData]], returning the
    * collected per-vertex aggregates ready for index construction.
    */
  def offline(
      spark: SparkSession,
      g: GraphData,
      rMax: Int,
      thetaGrid: Array[Double] = DefaultThetaGrid): Array[VertexAgg] = {
    val bcG = spark.sparkContext.broadcast(g)
    val bcInc = spark.sparkContext.broadcast(incidentMaxSupport(g))
    run(spark, bcG, bcInc, rMax, thetaGrid).collect()
  }
}
