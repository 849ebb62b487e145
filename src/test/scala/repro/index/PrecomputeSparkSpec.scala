package repro.index

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.graph.{GraphGen, SocialGraph}
import repro.truss.Support

/** The distributed offline phase (Spark mapPartitions over broadcast
  * graph) must equal the driver-local per-vertex computation, and both
  * local incident-support arrays (over the CSR rows, and over checked raw
  * edge rows) must equal the one from the Spark triangle join.
  */
class PrecomputeSparkSpec extends SparkSpec {

  private lazy val gf = GraphGen.nws(spark, 220, seed = 17L)
  private lazy val gd = SocialGraph.toGraphData(gf)

  /** Per-vertex max of [[Support.edgeSupports]] (0 for isolated). */
  private def joinIncSup(edges: DataFrame, n: Int): Seq[Int] = {
    val inc = new Array[Int](n)
    Support.edgeSupports(edges)
      .select(explode(array(col("src"), col("dst"))).as("id"), col("support"))
      .groupBy("id").agg(max(col("support")))
      .collect().foreach(r => inc(r.getLong(0).toInt) = r.getLong(1).toInt)
    inc.toSeq
  }

  test("incidentMaxSupportArray equals the local reference") {
    val local = Precompute.incidentMaxSupportArray(spark, gf.edges, gd.n)
    assert(local.toSeq == joinIncSup(gf.edges, gd.n))
    // the build's own path: supports over the collected CSR's rows
    assert(Precompute.incidentMaxSupport(gd).toSeq == joinIncSup(gf.edges, gd.n))
    // raw rows go through the ingest check: the triangle {0, 1, 2} and the
    // edge (2, 3), one row per direction, on 5 vertices, are accepted ...
    import spark.implicits._
    val raw = Seq((0L, 1L), (1L, 2L), (2L, 0L), (2L, 3L)).flatMap { case (u, v) => Seq((u, v), (v, u)) }.toDF("src", "dst")
    assert(Precompute.incidentMaxSupportArray(spark, raw, 5).toSeq == Seq(1, 1, 1, 0, 0))
    assert(joinIncSup(raw, 5) == Seq(1, 1, 1, 0, 0))
    // ... and each bad row after the pair (0, 1), (1, 0) on 3 vertices is
    // rejected, naming the row
    def rejects(bad: (Option[Long], Option[Long]), what: String, row: String): Unit = {
      val rows = Seq((Option(0L), Option(1L)), (Option(1L), Option(0L)), bad).toDF("src", "dst")
      val m = intercept[IllegalArgumentException](Precompute.incidentMaxSupportArray(spark, rows, 3)).getMessage
      assert(m.contains(what) && m.contains(row), m)
    }
    rejects((Some(0L), Some(-1L)), "outside 0..n-1", "(0, -1)")
    rejects((Some(0L), Some(3L)), "outside 0..n-1", "(0, 3)")
    rejects((Some(2L), None), "null field", "(2, null)")
    rejects((Some(2L), Some(2L)), "self loop", "(2, 2)")
    rejects((Some(0L), Some(1L)), "repeated", "(0, 1)")
    rejects((Some(1L), Some(2L)), "no reverse row (2, 1)", "(1, 2)")
  }

  test("distributed run equals local per-vertex aggregates (all radii, all θ_z)") {
    val inc = Precompute.incidentMaxSupportArray(spark, gf.edges, gd.n)
    val bcG = spark.sparkContext.broadcast(gd)
    val bcInc = spark.sparkContext.broadcast(inc)
    val dist = Precompute.run(spark, bcG, bcInc, 2, Precompute.DefaultThetaGrid)
      .collect().map(a => a.id -> a.agg).toMap
    assert(dist.size == gd.n)
    (0 until gd.n).foreach { v =>
      val want = Precompute.localVertexRef(gd, inc, v, 2, Precompute.DefaultThetaGrid)
      val got = dist(want.id)
      assert(got.rMax == 2 && want.agg.rMax == 2)
      (0 until 2).foreach { i =>
        assert(got.bv(i) == want.agg.bv(i))
        assert(got.ubSup(i) == want.agg.ubSup(i))
        got.sigmas(i).zip(want.agg.sigmas(i)).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
      }
    }
  }

  test("offline() output feeds TreeIndex.build without gaps") {
    val rows = Precompute.offline(spark, gd, 2)
    val idx = TreeIndex.build(rows)
    assert(TreeIndex.vertices(idx).size == gd.n)
    assert(idx.agg.rMax == 2)
  }

  test("run rejects an unsorted or empty θ grid and rMax < 1, naming the bad value") {
    // an unsorted grid would expand σ at its head (0.2) and store it under
    // the 0.1 column, an unsafe bound for a query at θ = 0.15
    Seq(Array(0.2, 0.1), Array(0.1, 0.1), Array.empty[Double]).foreach { grid =>
      val e = intercept[IllegalArgumentException](Precompute.offline(spark, gd, 2, grid))
      assert(e.getMessage.contains("thetaGrid") && e.getMessage.contains(grid.mkString(", ")), e.getMessage)
    }
    val e = intercept[IllegalArgumentException](Precompute.offline(spark, gd, 0))
    assert(e.getMessage.contains("rMax") && e.getMessage.contains("0"), e.getMessage)
  }
}
