package repro.graph

import org.apache.spark.sql.functions._
import repro.index.Precompute
import repro.{SparkSpec, TestGraphs}

/** The distributed message-passing hop aggregates must equal the local
  * per-vertex BFS aggregates of the offline phase — two independent
  * implementations of the same Alg.-2 quantities.
  */
class HopAggSpec extends SparkSpec {

  private lazy val gf = GraphGen.nws(spark, 200, seed = 9L)
  private lazy val gd = SocialGraph.toGraphData(gf)

  private def vertexState = {
    import spark.implicits._
    val inc = TestGraphs.localIncSup(gd)
    (0 until gd.n).map(v => (v.toLong, gd.kwMask(v), inc(v).toLong)).toDF("id", "bv", "inc")
  }

  test("distributed BV_r / ubsup_r equal the local Precompute aggregates for r=1..3") {
    val inc = TestGraphs.localIncSup(gd)
    val local = (0 until gd.n).map(v => v -> Precompute.localVertexRef(gd, inc, v, 3, Precompute.DefaultThetaGrid).agg)
      .flatMap { case (v, a) => (1 to 3).map(r => (v, r) -> ((a.bv(r - 1), a.ubSup(r - 1)))) }.toMap
    val dist = HopAgg.aggregate(spark, vertexState, gf.edges, 3).collect()
    assert(dist.length == gd.n * 3)
    dist.foreach { row =>
      val key = (row.getLong(0).toInt, row.getInt(1))
      val (bv, ub) = local(key)
      assert(row.getLong(2) == bv, s"bv mismatch at $key")
      assert(row.getLong(3) == ub.toLong, s"ubsup mismatch at $key")
    }
  }

  test("r=1 aggregate is self OR neighbours") {
    val dist = HopAgg.aggregate(spark, vertexState, gf.edges, 1)
      .collect().map(r => r.getLong(0).toInt -> r.getLong(2)).toMap
    (0 until gd.n).foreach { v =>
      var expect = gd.kwMask(v)
      gd.foreachNeighbor(v) { (u, _) => expect |= gd.kwMask(u) }
      assert(dist(v) == expect)
    }
  }

  test("aggregates on an isolated-vertex graph stay at the vertex's own state") {
    import spark.implicits._
    val vs = Seq((0L, 5L, 2L), (1L, 9L, 7L)).toDF("id", "bv", "inc")
    val es = Seq.empty[(Long, Long)].toDF("src", "dst")
    val out = HopAgg.aggregate(spark, vs, es, 2).collect()
      .map(r => (r.getLong(0), r.getInt(1)) -> ((r.getLong(2), r.getLong(3)))).toMap
    assert(out((0L, 1)) == ((5L, 2L)) && out((0L, 2)) == ((5L, 2L)))
    assert(out((1L, 2)) == ((9L, 7L)))
  }

  test("monotone: r=2 bit vectors dominate r=1") {
    val out = HopAgg.aggregate(spark, vertexState, gf.edges, 2).collect()
    val byVertex = out.groupBy(_.getLong(0))
    byVertex.values.foreach { rows =>
      val m = rows.map(r => r.getInt(1) -> r.getLong(2)).toMap
      assert((m(1) | m(2)) == m(2))
    }
  }
}
