package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.{GraphData, SocialGraph}
import repro.graph.SocialGraph.GraphFrames
import repro.index.{Precompute, TreeIndex}

/** End-to-end wiring of the two-phase framework (paper Alg. 1): offline
  * pre-computation + index construction, then online query answering.
  * Used by every job and bench.
  */
object Pipeline {

  /** A fully-built offline state, ready to answer online queries. */
  final case class Built(
      g: GraphData,
      index: TreeIndex.Node,
      thetaGrid: Array[Double],
      rMax: Int,
      offlineMillis: Long) {

    /** Answer one TopL-ICDE query (Alg. 3). */
    def topL(q: Query, pruning: Pruning = Pruning.KeywordTruss): TopLResult =
      TopLICDE.run(g, index, thetaGrid, q, pruning)

    /** Answer one DTopL-ICDE query (Alg. 4): top-(nL) via Alg. 3, then
      * lazy-greedy selection, on the g^Inf arrays that scored the top-(nL).
      * The same as `DTopL.greedyWP(topL(q.copy(L = n * q.L)).communities, L)`.
      */
    def dTopL(q: Query, n: Int): DTopL.DResult = {
      require(n >= 1, s"n = $n, must be >= 1")
      require(n.toLong * q.L <= Int.MaxValue, s"n = $n times L = ${q.L} does not fit an Int")
      val (res, cpps) = TopLICDE.search(g, index, thetaGrid, q.copy(L = n * q.L), Pruning.KeywordTruss, keep = true)
      DTopL.greedyWP(res.communities.toIndexedSeq, cpps, q.L)
    }
  }

  /** Run the offline phase: collect the CSR graph (the one read of the
    * edges), local edge supports over its rows + partition-parallel
    * per-vertex aggregates, then index construction. `offlineMillis` covers
    * all of it. No truss decomposition: Alg. 3 peels its keyword truss per
    * query.
    */
  def build(
      spark: SparkSession,
      gf: GraphFrames,
      rMax: Int = 3,
      thetaGrid: Array[Double] = Precompute.DefaultThetaGrid): Built = {
    val t0 = System.nanoTime()
    val g = SocialGraph.toGraphData(gf)
    val index = TreeIndex.build(Precompute.offline(spark, g, rMax, thetaGrid))
    Built(g, index, thetaGrid, rMax, (System.nanoTime() - t0) / 1000000L)
  }
}
