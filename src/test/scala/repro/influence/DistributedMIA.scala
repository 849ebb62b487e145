package repro.influence

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Distributed MIA propagation as iterative DataFrame message passing.
  *
  * Bellman–Ford-style max-product relaxation: each round every vertex
  * takes the max of its current cpp and `cpp(src) · p(src → v)` over
  * in-edges, truncated at θ. Because all weights are < 1, values along a
  * path strictly decrease, so the iteration reaches the exact MIA fixpoint
  * in at most ⌈log θ / log w_max⌉ rounds.
  *
  * A test-side reference that cross-validates [[MIA]] (the per-candidate
  * local expansion).
  */
object DistributedMIA {

  /** @param edges (src, dst, weight) directed edge list
    * @param seed  seed-community vertex ids (cpp = 1)
    * @param theta truncation threshold; must be > 0 so rounds are bounded
    * @return (id, cpp) for exactly the vertices with cpp ≥ θ
    */
  def influencedCpp(
      spark: SparkSession,
      edges: DataFrame,
      seed: Seq[Int],
      theta: Double): DataFrame = {
    require(theta > 0.0, "distributed propagation needs θ > 0 to bound rounds")
    import spark.implicits._
    val e = edges.select(col("src"), col("dst"), col("weight")).cache()
    var state = seed.map(v => (v.toLong, 1.0)).toDF("id", "cpp").cache()
    var improved = 1L
    while (improved > 0) {
      val msgs = e
        .join(state.withColumnRenamed("id", "src"), "src")
        .select(col("dst").as("id"), (col("cpp") * col("weight")).as("m"))
        .where(col("m") >= theta)
        .groupBy("id")
        .agg(max(col("m")).as("m"))
      val next = state
        .join(msgs, Seq("id"), "full")
        .select(col("id"), greatest(coalesce(col("cpp"), lit(0.0)), coalesce(col("m"), lit(0.0))).as("cpp"))
        .cache()
      improved = next
        .join(state.withColumnRenamed("cpp", "old"), Seq("id"), "left")
        .where(col("old").isNull || col("cpp") > col("old") + 1e-15)
        .count()
      state.unpersist()
      state = next
    }
    state
  }

  /** σ(seed) at θ via the distributed propagation. */
  def sigma(spark: SparkSession, edges: DataFrame, seed: Seq[Int], theta: Double): Double =
    influencedCpp(spark, edges, seed, theta).agg(sum(col("cpp"))).collect()(0).getDouble(0)
}
