package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.graph.GraphData
import repro.influence.MIA

/** Index-free, pruning-free TopL-ICDE: score EVERY vertex as a candidate
  * center and rank. This is the exact ground truth the pruned algorithm
  * must match (the pruning lemmas are all safe), implemented as a
  * distributed scan over all centers with the broadcast graph.
  */
object BruteForce {

  /** One scored candidate center (no cpp map — kept slim for the shuffle). */
  final case class Cand(center: Int, sigma: Double, vertices: Array[Int])

  /** All valid seed communities, one row per center that yields one. */
  def candidates(spark: SparkSession, bcG: Broadcast[GraphData], q: Query): Dataset[Cand] = {
    import spark.implicits._
    val (kw, k, r, theta) = (q.keywords, q.k, q.r, q.theta)
    spark.range(0L, bcG.value.n.toLong, 1L, spark.sparkContext.defaultParallelism * 4)
      .mapPartitions { it =>
        val g = bcG.value
        it.flatMap { v =>
          SeedExtract.extract(g, v.toInt, r, k, kw).map { seed =>
            Cand(v.toInt, MIA.sigma(g, seed.vertices, theta), seed.vertices)
          }
        }
      }
  }

  /** Exact top-L: collect candidates and rank them through
    * [[Community.Best]] in center order, so a community induced by several
    * centers (the same vertex set) reports its smallest center. An answer
    * expands its g^Inf on the driver's graph when read.
    */
  def topL(spark: SparkSession, bcG: Broadcast[GraphData], q: Query): Seq[Community] = {
    val g = bcG.value
    val best = new Community.Best(q.L)
    candidates(spark, bcG, q).collect().sortBy(_.center)
      .foreach(c => best.offer(Community(c.center, c.vertices, c.sigma, Community.influenced(g, c.vertices, q.theta))))
    best.answers
  }
}
