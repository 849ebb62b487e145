package repro.influence

import repro.graph.{GraphGen, SocialGraph}
import repro.{SparkSpec, TestGraphs}

/** Distributed max-product propagation vs the local Dijkstra-style MIA. */
class DistributedMIASpec extends SparkSpec {

  private lazy val gf = GraphGen.nws(spark, 150, seed = 21L)
  private lazy val gd = SocialGraph.toGraphData(gf)

  test("distributed cpp equals local cpp for a singleton seed") {
    val local = TestGraphs.cppMap(MIA.influencedCpp(gd, Array(7), 0.2))
    val dist = DistributedMIA.influencedCpp(spark, gf.edges, Seq(7), 0.2)
      .collect().map(r => r.getLong(0).toInt -> r.getDouble(1)).toMap
    assert(dist.keySet == local.keySet)
    local.foreach { case (v, p) => assert(math.abs(dist(v) - p) < 1e-9, s"cpp($v)") }
  }

  test("distributed cpp equals local cpp for a multi-vertex seed at every grid θ") {
    val seed = Seq(3, 50, 99)
    Seq(0.1, 0.2, 0.3).foreach { theta =>
      val local = TestGraphs.cppMap(MIA.influencedCpp(gd, seed.toArray, theta))
      val dist = DistributedMIA.influencedCpp(spark, gf.edges, seed, theta)
        .collect().map(r => r.getLong(0).toInt -> r.getDouble(1)).toMap
      assert(dist.keySet == local.keySet, s"θ=$theta")
      local.foreach { case (v, p) => assert(math.abs(dist(v) - p) < 1e-9) }
    }
  }

  test("distributed σ equals local σ") {
    val seed = Seq(1, 2, 3)
    val local = MIA.sigma(gd, seed.toArray, 0.2)
    val dist = DistributedMIA.sigma(spark, gf.edges, seed, 0.2)
    assert(math.abs(local - dist) < 1e-9)
  }

  test("θ = 0 is rejected (unbounded rounds)") {
    intercept[IllegalArgumentException] {
      DistributedMIA.influencedCpp(spark, gf.edges, Seq(0), 0.0)
    }
  }
}
