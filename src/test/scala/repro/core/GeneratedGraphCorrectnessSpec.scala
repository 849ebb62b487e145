package repro.core

import repro.graph.GraphGen
import repro.graph.GraphGen.KwDist
import repro.graph.{GraphData, SocialGraph}
import repro.influence.MIA
import repro.{SparkSpec, TestGraphs}

/** End-to-end exactness of the full pipeline (Spark offline + tree index +
  * Algorithm 3) against ground truth on EVERY generator family — the
  * clique-overlap graphs exercise truss structure (shared cliques, many
  * duplicate communities) that random ER graphs do not.
  */
class GeneratedGraphCorrectnessSpec extends SparkSpec {

  private def check(name: String, gf: SocialGraph.GraphFrames, qs: Seq[Query]): Unit = {
    val built = Pipeline.build(spark, gf, rMax = 2)
    val off = ATindex.offline(built.g)
    qs.foreach { q =>
      val want = TestGraphs.refTopL(built.g, q)
      TestGraphs.assertSameAnswers(TestGraphs.ranked(built.topL(q).communities), want, s"$name/$q")
      val (at, _) = ATindex.query(built.g, off, q)
      TestGraphs.assertSameAnswers(TestGraphs.ranked(at), want, s"$name/$q ATindex")
    }
  }

  private val queries = Seq(
    Query(Array(0, 1, 2, 3, 4), 4, 2, 0.2, 5),
    Query(Array(0, 5, 9), 3, 2, 0.1, 3),
    Query(Array(2, 7), 3, 1, 0.3, 8))

  test("pipeline == ground truth on DBLP-like (clique-overlap, dense triangles)") {
    check("dblp", GraphGen.dblpLike(spark, 600, seed = 3L), queries)
  }

  test("pipeline == ground truth on Amazon-like (sparser cliques)") {
    check("amazon", GraphGen.amazonLike(spark, 600, seed = 5L), queries)
  }

  test("pipeline == ground truth on NWS Uniform") {
    check("uni", GraphGen.nws(spark, 600, KwDist.Uniform, seed = 7L), queries)
  }

  test("pipeline == ground truth on NWS Gaussian") {
    check("gau", GraphGen.nws(spark, 600, KwDist.Gaussian, seed = 9L), queries)
  }

  test("pipeline == ground truth on NWS Zipf") {
    check("zipf", GraphGen.nws(spark, 600, KwDist.Zipf, seed = 11L), queries)
  }

  test("dTopL over a generated graph: WP == WoP and within (1-1/e) of Optimal") {
    val built = Pipeline.build(spark, GraphGen.dblpLike(spark, 600, seed = 13L), rMax = 2)
    val q = Query(Array(0, 1, 2, 3, 4), 3, 2, 0.2, 3)
    val cands = built.topL(q.copy(L = 12)).communities.toIndexedSeq
    if (cands.size >= 4) {
      val wp = DTopL.greedyWP(cands, q.L)
      val wop = DTopL.greedyWoP(cands, q.L)
      val opt = DTopL.optimal(cands, q.L)
      assert(math.abs(wp.score - wop.score) < 1e-9)
      assert(wp.score >= (1 - 1 / math.E) * opt.score - 1e-9)
      assert(wp.score <= opt.score + 1e-9)
    }
  }

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  /** Each answer's `cpp`, expanded again on read, is a fresh
    * `MIA.influencedCpp` of its members, bit for bit, and σ is its sum.
    */
  private def assertRecomputes(g: GraphData, q: Query, cs: Seq[Community], clue: String): Unit =
    cs.foreach { c =>
      val got = c.cpp
      val want = MIA.influencedCpp(g, c.vertices, q.theta)
      assert(got.ids.sameElements(want.ids), s"$clue: ids of $c")
      assert(got.probs.map(bits).sameElements(want.probs.map(bits)), s"$clue: probs of $c")
      assert(bits(c.sigma) == bits(got.sigma), s"$clue: σ of $c")
    }

  test("answers recompute g^Inf bit for bit; dTopL is greedyWP over topL's n·L answers") {
    Seq("dblp" -> GraphGen.dblpLike(spark, 600, seed = 3L), "amazon" -> GraphGen.amazonLike(spark, 600, seed = 5L))
      .foreach { case (name, gf) =>
        val built = Pipeline.build(spark, gf, rMax = 2)
        val g = built.g
        val off = ATindex.offline(g)
        val bcG = spark.sparkContext.broadcast(g)
        try queries.foreach { q =>
          val clue = s"$name/$q"
          assertRecomputes(g, q, built.topL(q).communities, s"$clue Alg. 3")
          assertRecomputes(g, q, ATindex.query(g, off, q)._1, s"$clue ATindex")
          assertRecomputes(g, q, BruteForce.topL(spark, bcG, q), s"$clue BruteForce")
          Seq(1, 2, 4).foreach { n =>
            val got = built.dTopL(q, n)
            val want = DTopL.greedyWP(built.topL(q.copy(L = n * q.L)).communities.toIndexedSeq, q.L)
            def picks(d: DTopL.DResult) = d.selected.map(c => (c.center, c.vertices.toSeq, bits(c.sigma)))
            assert(picks(got) == picks(want), s"$clue n=$n selection")
            assert(bits(got.score) == bits(want.score), s"$clue n=$n D(S)")
            assert(got.incrementEvals == want.incrementEvals, s"$clue n=$n evaluations")
            assertRecomputes(g, q, got.selected, s"$clue n=$n dTopL")
          }
        } finally bcG.destroy()
      }
  }
}
