package repro.truss

import org.apache.spark.sql.functions._
import repro.graph.{GraphGen, SocialGraph}
import repro.{Oracle, SparkSpec, TestGraphs}

/** Distributed triangle counting / edge supports vs the local reference
  * and the DuckDB oracle.
  */
class SupportSparkSpec extends SparkSpec {

  private lazy val gf = GraphGen.nws(spark, 250, seed = 3L)
  private lazy val gd = SocialGraph.toGraphData(gf)

  test("canonicalEdges halves the directed edge list") {
    assert(Support.canonicalEdges(gf.edges).count() * 2 == gf.edges.count())
  }

  test("distributed edge supports equal the local Truss.supports") {
    val rows = gd.rows
    val local = TestGraphs.bySlot(rows, Truss.supports(rows, rows.allAlive)).filter { case ((u, v), _) => u < v }
    val dist = Support.edgeSupports(gf.edges).collect()
      .map(r => (r.getLong(0).toInt, r.getLong(1).toInt) -> r.getLong(2).toInt)
      .toMap
    assert(dist.keySet == local.keySet)
    local.foreach { case (e, s) => assert(dist(e) == s, s"edge $e") }
  }

  test("triangle count equals local triple enumeration on a small graph") {
    val small = GraphGen.nws(spark, 80, seed = 11L)
    val g = SocialGraph.toGraphData(small)
    val adj = TestGraphs.adjOf(g)
    var tri = 0L
    for { a <- 0 until g.n; b <- adj(a); if a < b; c <- adj(b); if b < c && adj(a).contains(c) } tri += 1
    assert(Support.triangleCount(small.edges) == tri)
  }

  test("oracle: edge supports match DuckDB 3-way self-join") {
    val canon = Support.canonicalEdges(gf.edges)
    val sup = Support.edgeSupports(gf.edges)
    Oracle.assertEquivalent(
      sup,
      """WITH tri AS (
        |  SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
        |  FROM edges e1
        |  JOIN edges e2 ON e1.dst = e2.src
        |  JOIN edges e3 ON e1.src = e3.src AND e2.dst = e3.dst
        |), per AS (
        |  SELECT src, dst, CAST(count(*) AS BIGINT) AS cnt FROM (
        |    SELECT a AS src, b AS dst FROM tri
        |    UNION ALL SELECT b, c FROM tri
        |    UNION ALL SELECT a, c FROM tri
        |  ) GROUP BY src, dst
        |)
        |SELECT e.src AS src, e.dst AS dst, CAST(COALESCE(per.cnt, 0) AS BIGINT) AS support
        |FROM edges e LEFT JOIN per ON e.src = per.src AND e.dst = per.dst
        |""".stripMargin,
      "edges" -> canon)
  }

  test("oracle: triangle count matches DuckDB") {
    val canon = Support.canonicalEdges(gf.edges)
    val cnt = Support.triangles(canon).agg(count(lit(1)).as("tri"))
    Oracle.assertEquivalent(
      cnt,
      """SELECT CAST(count(*) AS BIGINT) AS tri
        |FROM edges e1
        |JOIN edges e2 ON e1.dst = e2.src
        |JOIN edges e3 ON e1.src = e3.src AND e2.dst = e3.dst
        |""".stripMargin,
      "edges" -> canon)
  }

  test("supports of a generated clique-overlap graph are consistent with trussness") {
    val d = GraphGen.dblpLike(spark, 400, seed = 5L)
    val g = SocialGraph.toGraphData(d)
    val rows = g.rows
    val sup = Truss.supports(rows, rows.allAlive)
    val tn = Truss.trussness(rows, rows.allAlive)
    // trussness(e) <= sup(e) + 2 always
    tn.indices.foreach(i => assert(tn(i) <= sup(i) + 2))
  }

  test("supports and trussness equal the references slot by slot on a generated NWS graph") {
    val rows = gd.rows
    val adj = TestGraphs.adjOf(gd)
    assert(TestGraphs.bySlot(rows, Truss.supports(rows, rows.allAlive)) == TestGraphs.bothWays(TestGraphs.refSupports(adj)))
    assert(TestGraphs.bySlot(rows, Truss.trussness(rows, rows.allAlive)) == TestGraphs.bothWays(TestGraphs.refTrussness(adj)))
  }

  test("zero-support edges present in the output (left join keeps them)") {
    val star = SocialGraph.fromEdges(5, Seq((0, 1), (0, 2), (0, 3), (0, 4)))
    import spark.implicits._
    val edges = (0 until 5).flatMap { v =>
      TestGraphs.row(star, v).map(u => (v.toLong, u.toLong, 0.5))
    }.toDF("src", "dst", "weight")
    val sup = Support.edgeSupports(edges).collect()
    assert(sup.length == 4)
    sup.foreach(r => assert(r.getLong(2) == 0L))
  }
}
