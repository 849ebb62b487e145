package repro.core

import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.graph.{GraphData, GraphGen, SocialGraph}
import repro.index.{Precompute, TreeIndex}
import repro.{MiniChecks, Oracle, SparkSpec, TestGraphs}

/** Distributed brute-force scan vs local enumeration, the full pipeline on
  * a generated graph, and DuckDB oracle checks of the ranking dataflow.
  */
class BruteForceSparkSpec extends SparkSpec with MiniChecks {

  private lazy val gf = GraphGen.nws(spark, 300, GraphGen.KwDist.Uniform, 3, 20, seed = 13L)
  private lazy val gd = SocialGraph.toGraphData(gf)
  private lazy val bcG = spark.sparkContext.broadcast(gd)
  private val q = Query(Array(0, 1, 2, 3, 4), k = 4, r = 2, theta = 0.2, L = 5)

  test("distributed candidate scan equals local center enumeration") {
    val dist = BruteForce.candidates(spark, bcG, q).collect()
      .map(c => c.center -> c.sigma).toMap
    var localCount = 0
    (0 until gd.n).foreach { v =>
      SeedExtract.extract(gd, v, q.r, q.k, q.keywords).foreach { seed =>
        localCount += 1
        val sigma = repro.influence.MIA.sigma(gd, seed.vertices, q.theta)
        assert(math.abs(dist(v) - sigma) < 1e-9, s"center $v")
      }
    }
    assert(dist.size == localCount)
  }

  test("BruteForce.topL equals refTopLSigmas") {
    val got = BruteForce.topL(spark, bcG, q)
    TestGraphs.assertSameAnswers(TestGraphs.ranked(got), TestGraphs.refTopL(gd, q))
  }

  test("full pipeline (Spark offline + index + Alg. 3) equals distributed brute force") {
    val built = Pipeline.build(spark, gf, rMax = 2)
    val res = built.topL(q)
    val want = BruteForce.topL(spark, bcG, q)
    TestGraphs.assertSameAnswers(TestGraphs.ranked(res.communities), TestGraphs.ranked(want))
  }

  /** Alg. 3 (local index), ATindex, BruteForce and refTopL on `g`. */
  private def everyPath(g: GraphData, q: Query, fanout: Int = 4): Seq[(String, Seq[(Double, Seq[Int])])] = {
    val bc = spark.sparkContext.broadcast(g)
    try Seq(
      "Alg. 3" -> TestGraphs.ranked(
        TopLICDE.run(g, TestGraphs.localIndex(g, 2, fanout), Precompute.DefaultThetaGrid, q).communities),
      "ATindex" -> TestGraphs.ranked(ATindex.query(g, ATindex.offline(g), q)._1),
      "BruteForce" -> TestGraphs.ranked(BruteForce.topL(spark, bc, q)),
      "refTopL" -> TestGraphs.refTopL(g, q))
    finally bc.destroy()
  }

  test("tied σ: every path ranks {4..7} before {10..13}") {
    val g = TestGraphs.twoK4Tie()
    val (a, b) = (Seq(4, 5, 6, 7), Seq(10, 11, 12, 13))
    Seq(1 -> Seq(a), 2 -> Seq(a, b)).foreach { case (l, want) =>
      everyPath(g, Query(Array(0), 3, 1, 0.2, l)).foreach { case (path, got) =>
        assert(got == want.map(4.0 -> _), s"$path at L = $l")
      }
    }
  }

  test("property: tied cliques get the same answers on every path") {
    val copy = Gen.zip(Gen.chooseNum(3, 5), Gen.chooseNum(0, 4), Gen.oneOf(true, false))
    val gen = Gen.zip(Gen.listOfN(4, copy), Gen.chooseNum(1, 5), Gen.chooseNum(1, 2),
      Gen.oneOf(0.1, 0.2, 0.3), Gen.oneOf(2, 16))
    forAllN(gen, n = 25) { case (spec, l, r, theta, fanout) =>
      // lay the copies out left to right, each after a random gap
      val copies = spec.scanLeft((0, 0, false)) { case ((o, m, p), (m2, gap, p2)) =>
        (o + m + (if (p) 1 else 0) + gap, m2, p2)
      }.tail
      val (o, m, p) = copies.last
      val g = TestGraphs.cliques(o + m + (if (p) 1 else 0) + 2, copies)
      val paths = everyPath(g, Query(Array(0), 3, r, theta, l), fanout)
      paths.foreach { case (path, got) =>
        TestGraphs.assertSameAnswers(got, paths.last._2, path)
      }
    }
  }

  test("oracle: top-L ranking of the candidate table matches DuckDB") {
    import spark.implicits._
    val cands = BruteForce.candidates(spark, bcG, q)
      .select(col("center"), round(col("sigma"), 6).as("sigma"))
    val sparkTop = cands.orderBy(col("sigma").desc, col("center")).limit(q.L)
    Oracle.assertEquivalent(
      sparkTop,
      s"""SELECT CAST(center AS INT) AS center, CAST(sigma AS DOUBLE) AS sigma
         |FROM cands ORDER BY CAST(sigma AS DOUBLE) DESC, CAST(center AS INT) LIMIT ${q.L}
         |""".stripMargin,
      "cands" -> cands)
  }

  test("oracle: keyword-eligible center count matches DuckDB") {
    import spark.implicits._
    val vkw = gf.vertices.select(col("id"), explode(col("keywords")).as("kw"))
    val qkw = q.keywords.toSeq.toDF("kw")
    val eligible = vkw.join(qkw, "kw").select("id").distinct()
      .agg(count(lit(1)).as("eligible"))
    Oracle.assertEquivalent(
      eligible,
      "SELECT CAST(count(DISTINCT v.id) AS BIGINT) AS eligible FROM vkw v JOIN qkw q ON v.kw = q.kw",
      "vkw" -> vkw, "qkw" -> qkw)
  }

  test("index answers are identical across rMax used (r <= rMax invariance)") {
    val inc = Precompute.incidentMaxSupportArray(spark, gf.edges, gd.n)
    val bcInc = spark.sparkContext.broadcast(inc)
    val rows2 = Precompute.run(spark, bcG, bcInc, 2).collect()
    val rows3 = Precompute.run(spark, bcG, bcInc, 3).collect()
    val i2 = TreeIndex.build(rows2)
    val i3 = TreeIndex.build(rows3)
    val a = TopLICDE.run(gd, i2, Precompute.DefaultThetaGrid, q).communities.map(_.sigma)
    val b = TopLICDE.run(gd, i3, Precompute.DefaultThetaGrid, q).communities.map(_.sigma)
    assert(a.size == b.size)
    a.zip(b).foreach { case (x, y) => assert(math.abs(x - y) < 1e-9) }
  }

  test("DTopL over pipeline: greedy matches WoP score and beats no-diversity top-L") {
    val built = Pipeline.build(spark, gf, rMax = 2)
    val cands = built.topL(q.copy(L = 3 * q.L)).communities.toIndexedSeq
    if (cands.size > q.L) {
      val wp = DTopL.greedyWP(cands, q.L)
      val wop = DTopL.greedyWoP(cands, q.L)
      assert(math.abs(wp.score - wop.score) < 1e-9)
      val plainTopL = DTopL.diversity(cands.take(q.L))
      assert(wp.score >= plainTopL - 1e-9, "diversified set at least as good as plain top-L")
    }
  }
}
