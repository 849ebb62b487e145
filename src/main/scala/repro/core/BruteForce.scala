package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.graph.GraphData
import repro.influence.MIA

import scala.collection.mutable

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
    spark
      .range(bcG.value.n.toLong)
      .repartition(spark.sparkContext.defaultParallelism * 4)
      .mapPartitions { it =>
        val g = bcG.value
        it.flatMap { v =>
          SeedExtract.extract(g, v.toInt, r, k, kw).map { seed =>
            Cand(v.toInt, MIA.sigma(g, seed.vertices, theta), seed.vertices)
          }
        }
      }
  }

  /** Exact top-L: collect candidates, deduplicate by vertex set (several
    * centers can induce the same community), keep the L highest σ.
    */
  def topL(spark: SparkSession, bcG: Broadcast[GraphData], q: Query): Seq[Community] = {
    val all = candidates(spark, bcG, q).collect()
    val bySig = mutable.LinkedHashMap[String, Cand]()
    all.sortBy(c => (-c.sigma, c.center)).foreach { c =>
      bySig.getOrElseUpdate(Community.key(c.vertices), c)
    }
    bySig.values.take(q.L).toSeq.map(c => Community.scored(bcG.value, c.center, c.vertices, q.theta))
  }
}
