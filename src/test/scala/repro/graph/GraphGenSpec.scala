package repro.graph

import org.apache.spark.sql.functions._
import repro.graph.GraphGen.KwDist
import repro.{Oracle, SparkSpec, TestGraphs}

/** Generators: structure, determinism, weights, keyword distributions —
  * with DuckDB oracle checks on the relational aggregates.
  */
class GraphGenSpec extends SparkSpec {

  private lazy val uni = GraphGen.nws(spark, 300, KwDist.Uniform, kwPerVertex = 3, sigma = 20, seed = 1L)

  test("NWS: every vertex present with a non-empty keyword set") {
    val vs = uni.vertices.collect()
    assert(vs.length == 300)
    vs.foreach(r => assert(r.getSeq[Int](1).nonEmpty))
  }

  test("NWS: edge list is symmetric (both directions present)") {
    val fwd = uni.edges.select("src", "dst")
    val bwd = uni.edges.select(col("dst").as("src"), col("src").as("dst"))
    assert(fwd.except(bwd).count() == 0)
    assert(bwd.except(fwd).count() == 0)
  }

  test("NWS: no self loops, no duplicate directed edges") {
    assert(uni.edges.where(col("src") === col("dst")).count() == 0)
    assert(uni.edges.groupBy("src", "dst").count().where(col("count") > 1).count() == 0)
  }

  test("NWS: ring edges guarantee m-regular backbone (degree >= m on most vertices)") {
    val degs = uni.edges.groupBy("src").count().select("count").collect().map(_.getLong(0))
    assert(degs.forall(_ >= 6), "NWS keeps all ring edges, so min degree >= m")
    val avg = degs.sum.toDouble / degs.length
    assert(avg > 6.0 && avg < 8.5, s"avg degree $avg should be m + 2·(m/2)·μ ≈ 7")
  }

  test("NWS: weights lie in [0.5, 0.6) as in the paper") {
    val mm = uni.edges.agg(min("weight"), max("weight")).collect()(0)
    assert(mm.getDouble(0) >= 0.5 && mm.getDouble(1) < 0.6)
  }

  test("NWS: per-direction weights differ (directed activation probabilities)") {
    val joined = uni.edges.as("a").join(uni.edges.as("b"),
      col("a.src") === col("b.dst") && col("a.dst") === col("b.src"))
    val diff = joined.where(abs(col("a.weight") - col("b.weight")) > 1e-12).count()
    assert(diff > joined.count() / 2)
  }

  test("NWS generation is deterministic in (n, seed)") {
    val a = GraphGen.nws(spark, 120, KwDist.Zipf, seed = 5L)
    val b = GraphGen.nws(spark, 120, KwDist.Zipf, seed = 5L)
    assert(a.edges.orderBy("src", "dst").collect().toSeq == b.edges.orderBy("src", "dst").collect().toSeq)
    assert(a.vertices.orderBy("id").collect().toSeq == b.vertices.orderBy("id").collect().toSeq)
    val c = GraphGen.nws(spark, 120, KwDist.Zipf, seed = 6L)
    assert(a.edges.orderBy("src", "dst").collect().toSeq != c.edges.orderBy("src", "dst").collect().toSeq)
  }

  test("keyword domains respected: all keywords within [0, Σ)") {
    GraphGen.KwDist.all.foreach { d =>
      val vs = GraphGen.keywordVertices(spark, 200, d, 3, 20, 2L)
      val ks = vs.select(explode(col("keywords")).as("k")).collect().map(_.getInt(0))
      assert(ks.forall(k => k >= 0 && k < 20), s"domain violation under $d")
    }
  }

  test("Zipf keywords are skewed toward small ids, Uniform flat, Gaussian centered") {
    def hist(d: KwDist): Map[Int, Long] =
      GraphGen.keywordVertices(spark, 2000, d, 3, 20, 3L)
        .select(explode(col("keywords")).as("k")).groupBy("k").count()
        .collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    val z = hist(KwDist.Zipf)
    assert(z.getOrElse(0, 0L) > 4L * z.getOrElse(10, 1L), "Zipf head should dominate")
    val u = hist(KwDist.Uniform)
    val uMax = u.values.max.toDouble; val uMin = u.values.min.toDouble
    assert(uMax / uMin < 2.0, "Uniform should be flat-ish")
    val gau = hist(KwDist.Gaussian)
    assert(gau.getOrElse(10, 0L) > 3L * math.max(gau.getOrElse(0, 0L), 1L), "Gaussian mass at Σ/2")
  }

  test("DBLP-like is denser in triangles than Amazon-like (substitution property)") {
    val d = GraphGen.dblpLike(spark, 1500, seed = 7L)
    val a = GraphGen.amazonLike(spark, 1500, seed = 7L)
    val dTri = repro.truss.Support.triangleCount(d.edges)
    val aTri = repro.truss.Support.triangleCount(a.edges)
    val dE = d.edges.count() / 2.0
    val aE = a.edges.count() / 2.0
    assert(dTri.toDouble / dE > aTri.toDouble / aE,
      s"triangles/edge DBLP-like=${dTri / dE} Amazon-like=${aTri / aE}")
  }

  test("DBLP-like |E|/|V| near 3.3, Amazon-like near 2.8 (Table II densities)") {
    val d = GraphGen.dblpLike(spark, 3000, seed = 9L)
    val a = GraphGen.amazonLike(spark, 3000, seed = 9L)
    val dRatio = d.edges.count() / 2.0 / 3000
    val aRatio = a.edges.count() / 2.0 / 3000
    assert(dRatio > 2.3 && dRatio < 4.3, s"DBLP-like density $dRatio")
    assert(aRatio > 1.9 && aRatio < 3.7, s"Amazon-like density $aRatio")
  }

  test("oracle: per-vertex out-degree matches DuckDB") {
    val deg = uni.edges.groupBy("src").agg(count(lit(1)).as("deg"))
    Oracle.assertEquivalent(
      deg,
      "SELECT src, CAST(count(*) AS BIGINT) AS deg FROM edges GROUP BY src",
      "edges" -> uni.edges)
  }

  test("oracle: directed edge count and distinct-vertex count match DuckDB") {
    val agg = uni.edges.agg(
      count(lit(1)).as("m"),
      countDistinct(col("src")).as("nsrc"))
    Oracle.assertEquivalent(
      agg,
      "SELECT CAST(count(*) AS BIGINT) AS m, CAST(count(DISTINCT src) AS BIGINT) AS nsrc FROM edges",
      "edges" -> uni.edges)
  }

  test("oracle: keyword histogram matches DuckDB") {
    val kw = uni.vertices.select(col("id"), explode(col("keywords")).as("kw"))
    val h = kw.groupBy("kw").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      h,
      "SELECT kw, CAST(count(*) AS BIGINT) AS cnt FROM vkw GROUP BY kw",
      "vkw" -> kw)
  }

  test("toGraphData round-trips counts and CSR symmetry") {
    val g = SocialGraph.toGraphData(uni)
    assert(g.n == 300)
    assert(g.neigh.length == uni.edges.count())
    (0 until g.n).foreach { v =>
      g.foreachNeighbor(v) { (u, _) => assert(TestGraphs.row(g, u).contains(v)) }
    }
  }

  test("toGraphData preserves directed weights") {
    val g = SocialGraph.toGraphData(uni)
    val sample = uni.edges.limit(50).collect()
    sample.foreach { row =>
      val s = row.getLong(0).toInt; val d = row.getLong(1).toInt; val w = row.getDouble(2)
      var found = false
      g.foreachNeighbor(s) { (u, wt) => if (u == d) { found = true; assert(math.abs(wt - w) < 1e-12) } }
      assert(found)
    }
  }

  /** toGraphData of the vertex rows (id, keywords) and the (src, dst,
    * weight) rows, None standing for a null; the error message if it
    * rejects them.
    */
  private def ingestRows(
      vertices: Seq[(Option[Long], Option[Seq[Option[Int]]])],
      rows: Seq[(Option[Long], Option[Long], Option[Double])]): Either[String, GraphData] = {
    import spark.implicits._
    val gf = SocialGraph.GraphFrames(vertices.toDF("id", "keywords"), rows.toDF("src", "dst", "weight"))
    try Right(SocialGraph.toGraphData(gf))
    catch { case e: IllegalArgumentException => Left(e.getMessage) }
  }

  private def nonNull(rows: Seq[(Long, Long, Double)]): Seq[(Option[Long], Option[Long], Option[Double])] =
    rows.map { case (s, d, w) => (Some(s), Some(d), Some(w)) }

  private val kw0 = Some(Seq(Some(0)))

  /** [[ingestRows]] of the vertex ids `ids`, each with keyword {0}. */
  private def ingest(ids: Seq[Long], rows: (Long, Long, Double)*): Either[String, GraphData] =
    ingestRows(ids.map(id => (Some(id), kw0)), nonNull(rows))

  private def ingest(rows: (Long, Long, Double)*): Either[String, GraphData] = ingest(Seq(0L, 1L, 2L), rows: _*)

  private val pair = Seq((0L, 1L, 0.5), (1L, 0L, 0.5))

  test("toGraphData rejects a self loop, naming the row") {
    val err = ingest(pair :+ ((2L, 2L, 0.5)): _*)
    assert(err.left.exists(m => m.contains("self loop") && m.contains("(2, 2)")), err)
  }

  test("toGraphData rejects a repeated (src, dst) row, naming the row") {
    val err = ingest(pair :+ ((0L, 1L, 0.5)): _*)
    assert(err.left.exists(m => m.contains("repeated") && m.contains("(0, 1)")), err)
  }

  test("toGraphData rejects a row whose reverse is missing, naming the row") {
    val err = ingest(pair :+ ((1L, 2L, 0.5)): _*)
    assert(err.left.exists(m => m.contains("no reverse") && m.contains("(1, 2)")), err)
  }

  test("toGraphData rejects a weight outside (0, 1], naming the row") {
    Seq(0.0, -0.1, 1.5, Double.NaN).foreach { w =>
      val err = ingest((0L, 1L, 0.5), (1L, 0L, w))
      assert(err.left.exists(m => m.contains("outside (0, 1]") && m.contains("(1, 0)")), s"w=$w: $err")
    }
    assert(ingest((0L, 1L, 1.0), (1L, 0L, 1e-9)).isRight, "1 and tiny positive weights are valid")
  }

  test("toGraphData rejects an edge row with an end outside 0..n-1, naming the row") {
    Seq((1L, 3L), (3L, 1L), (-1L, 0L), (0L, -1L)).foreach { case (a, b) =>
      val err = ingest(pair ++ Seq((a, b, 0.5), (b, a, 0.5)): _*)
      assert(err.left.exists(m => m.contains("outside 0..n-1") && m.contains(s"($a, $b)")), s"($a, $b): $err")
    }
  }

  test("toGraphData rejects a repeated vertex id, naming the row") {
    val err = ingest(Seq(0L, 1L, 1L), pair: _*)
    assert(err.left.exists(m => m.contains("repeated vertex row 1")), err)
  }

  test("toGraphData rejects a null keyword, naming the vertex row") {
    val err = ingestRows(Seq((Some(0L), Some(Seq(None, Some(3)))), (Some(1L), kw0)), nonNull(pair))
    assert(err.left.exists(m => m.contains("vertex row 0") && m.contains("null keyword")), err)
  }

  test("toGraphData rejects a null keyword array, naming the vertex row") {
    val err = ingestRows(Seq((Some(0L), kw0), (Some(1L), None)), nonNull(pair))
    assert(err.left.exists(m => m.contains("vertex row 1") && m.contains("null keyword array")), err)
  }

  test("toGraphData rejects a null vertex id, naming the row") {
    val err = ingestRows(Seq((Some(0L), kw0), (None, kw0)), nonNull(pair))
    assert(err.left.exists(m => m.contains("vertex row (null, ") && m.contains("null id")), err)
  }

  test("toGraphData rejects a null edge end or weight, naming the row") {
    Seq((None, Some(0L), Some(0.5)) -> "(null, 0, 0.5)", (Some(1L), None, Some(0.5)) -> "(1, null, 0.5)",
      (Some(1L), Some(0L), None) -> "(1, 0, null)").foreach { case (row, named) =>
      val err = ingestRows(Seq((Some(0L), kw0), (Some(1L), kw0)), nonNull(pair.take(1)) :+ row)
      assert(err.left.exists(m => m.contains(s"edge row $named") && m.contains("null field")), s"$row: $err")
    }
  }

  /** The five arrays of g, for exact comparison. */
  private def arrays(g: GraphData): Seq[Seq[Any]] =
    Seq(g.offsets.toSeq, g.neigh.toSeq, g.weight.toSeq, g.keywords.toSeq.map(_.toSeq), g.kwMask.toSeq)

  test("property: toGraphData does not depend on partitioning or row order, and matches a map reference") {
    Seq(uni, GraphGen.amazonLike(spark, 600, seed = 5L)).foreach { gf =>
      val g = SocialGraph.toGraphData(gf)
      def shuffled(df: org.apache.spark.sql.DataFrame, seed: Long) =
        spark.createDataFrame(spark.sparkContext.parallelize(
          new scala.util.Random(seed).shuffle(df.collect().toSeq), 5), df.schema)
      Seq(gf.copy(edges = gf.edges.repartition(7)), gf.copy(vertices = gf.vertices.repartition(3)),
        SocialGraph.GraphFrames(shuffled(gf.vertices, 11L), shuffled(gf.edges, 12L))).foreach { other =>
        assert(arrays(SocialGraph.toGraphData(other)) == arrays(g))
      }
      // reference: every (src, dst) → weight row present, nothing else, rows ascending
      val want = gf.edges.select("src", "dst", "weight").collect()
        .map(r => (r.getLong(0).toInt, r.getLong(1).toInt) -> r.getDouble(2)).toMap
      val got = (0 until g.n).flatMap { v =>
        val row = TestGraphs.row(g, v)
        assert(row.toSeq == row.sorted.toSeq, s"row $v ascending")
        (g.offsets(v) until g.offsets(v + 1)).map(i => (v, g.neigh(i)) -> g.weight(i))
      }
      assert(got.length == want.size && got.toMap == want)
      val kws = gf.vertices.collect().map(r => r.getLong(0).toInt -> r.getSeq[Int](1).sorted).toMap
      (0 until g.n).foreach { v =>
        assert(g.keywords(v).toSeq == kws(v) && g.kwMask(v) == repro.keywords.KeywordBV.hashSet(kws(v)))
      }
    }
  }
}
