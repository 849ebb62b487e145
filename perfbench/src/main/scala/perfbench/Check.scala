package perfbench

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.core.{BruteForce, DTopL, Query, TopLResult}
import repro.graph.GraphData

/** Answer checks against the index-free brute force, run outside the timed
  * loop. Each returns the mismatch, or None when the answer is right.
  */
object Check {

  val Tolerance = 1e-9

  /** TopL: the σ lists agree within [[Tolerance]], rank by rank. Vertex
    * sets are not compared: tied σ values have no defined order yet.
    */
  def topL(spark: SparkSession, bcG: Broadcast[GraphData], q: Query, got: TopLResult): Option[String] = {
    val have = got.communities.map(_.sigma)
    val want = BruteForce.topL(spark, bcG, q).map(_.sigma)
    if (have.length == want.length && have.zip(want).forall { case (a, b) => math.abs(a - b) <= Tolerance }) None
    else Some(s"σ ${have.mkString(",")} but brute force gives ${want.mkString(",")}")
  }

  /** DTopL: D(S) equals Greedy_WoP's over brute force's top n·L. */
  def dTopL(spark: SparkSession, bcG: Broadcast[GraphData], q: Query, n: Int, got: DTopL.DResult): Option[String] = {
    val cands = BruteForce.topL(spark, bcG, q.copy(L = n * q.L)).toIndexedSeq
    val want = DTopL.greedyWoP(cands, q.L).score
    if (math.abs(got.score - want) <= Tolerance) None
    else Some(s"D(S) ${got.score} but Greedy_WoP over brute force gives $want")
  }
}
