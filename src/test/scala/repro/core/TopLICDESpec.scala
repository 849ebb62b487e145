package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphData, SocialGraph}
import repro.index.Precompute
import repro.keywords.KeywordBV
import repro.{MiniChecks, TestGraphs}

import scala.util.Random

/** End-to-end correctness of the pruned, index-driven Algorithm 3: it must
  * return exactly the brute-force ground truth (all pruning lemmas are
  * safe) on every rung of the pruning ladder, graph, and parameter setting.
  */
class TopLICDESpec extends AnyFunSuite with MiniChecks {

  private val grid = Precompute.DefaultThetaGrid

  private def sigmas(res: TopLResult): Seq[Double] = res.communities.map(_.sigma)

  private def answers(res: TopLResult): Seq[(Double, Seq[Int])] = TestGraphs.ranked(res.communities)

  test("thetaZIndex picks the largest grid value <= θ") {
    assert(TopLICDE.thetaZIndex(grid, 0.2) == 1)
    assert(TopLICDE.thetaZIndex(grid, 0.25) == 1)
    assert(TopLICDE.thetaZIndex(grid, 0.3) == 2)
    assert(TopLICDE.thetaZIndex(grid, 0.95) == 2)
    assert(TopLICDE.thetaZIndex(grid, 0.1) == 0)
    assert(TopLICDE.thetaZIndex(grid, 0.05) == -1)
  }

  test("thetaZIndex is exact: one ulp below a grid value picks the value below") {
    assert(TopLICDE.thetaZIndex(grid, Math.nextDown(0.3)) == 1)
    assert(TopLICDE.thetaZIndex(grid, Math.nextDown(0.1)) == -1)
  }

  test("θ one ulp below a grid value: the top-1 matches refTopL") {
    // A = {0,1,2} reaches 3 at cpp 1.0 and 4, 5 at cpp θ, so σ(A) = 4 + 2θ;
    // B = {6..9} reaches 10 at 0.5, so σ(B) = 4.5. The 0.3 column of A's
    // balls leaves 4 and 5 out (4.0 < σ(B)): as a bound it would prune A.
    val t = Math.nextDown(0.3)
    val k4 = for { u <- 6 to 9; v <- (u + 1) to 9 } yield (u, v)
    val g = SocialGraph.fromEdges(11,
      Seq((0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5), (6, 10)) ++ k4,
      keywords = Seq(3, 4, 5, 10).map(_ -> Seq(1)).toMap,
      w = 0.05,
      directedWeights = Map((0, 3) -> 1.0, (3, 4) -> t, (3, 5) -> t, (6, 10) -> 0.5))
    val q = Query(Array(0), 3, 1, t, 1)
    val want = TestGraphs.refTopL(g, q)
    assert(want.map(_._2) == Seq(Seq(0, 1, 2)))
    for { rMax <- 1 to 2; fanout <- Seq(2, 4, 32) }
      TestGraphs.assertSameAnswers(answers(TopLICDE.run(g, TestGraphs.localIndex(g, rMax, fanout), grid, q)), want)
  }

  test("property: a community equal to its own ball has bound = σ and is found, not pruned") {
    // disjoint cliques: for r = 1 each is its members' ball and their seed
    // community, so the vertex-level bound at a grid θ is exactly σ; equal
    // sizes tie, and strict pruning must keep the tied copy
    forAllN3(Gen.chooseNum(3, 6), Gen.chooseNum(1, 60), Gen.oneOf(grid.toSeq), n = 40) { (m, seed, theta) =>
      val rnd = new Random(seed.toLong)
      val sizes = Seq(m, m, 3 + rnd.nextInt(4))
      val offsets = sizes.scanLeft(rnd.nextInt(3)) { case (o, s) => o + s + rnd.nextInt(3) }
      val g = TestGraphs.cliques(offsets.last, sizes.indices.map(i => (offsets(i), sizes(i), false)))
      val idx = TestGraphs.localIndex(g, 1, fanout = 2 + rnd.nextInt(4))
      val zi = TopLICDE.thetaZIndex(grid, theta)
      repro.index.TreeIndex.vertices(idx).foreach { v =>
        SeedExtract.extract(g, v.id, 1, 3, Array(0)).foreach { seed =>
          assert(v.agg.sigmas(0)(zi) == repro.influence.MIA.sigma(g, seed.vertices, theta), s"center ${v.id}")
        }
      }
      val q = Query(Array(0), 3, 1, theta, 1 + rnd.nextInt(3))
      TestGraphs.assertSameAnswers(answers(TopLICDE.run(g, idx, grid, q)), TestGraphs.refTopL(g, q))
    }
  }

  test("answers are sorted by σ descending") {
    val g = TestGraphs.random(30, 0.25, sigma = 4, seed = 5L)
    val res = TopLICDE.run(g, TestGraphs.localIndex(g, 2), grid, Query(Array(0, 1), 3, 2, 0.2, 4))
    val s = sigmas(res)
    assert(s == s.sortBy(-(_: Double)))
  }

  test("property: equals brute force across random graphs and parameters") {
    val gen = Gen.zip(
      Gen.chooseNum(8, 40),        // n
      Gen.chooseNum(1, 60),        // seed
      Gen.chooseNum(3, 5),         // k
      Gen.chooseNum(1, 2),         // r
      Gen.oneOf(0.1, 0.2, 0.3),    // θ
      Gen.chooseNum(1, 5))         // L
    forAllN(gen, n = 100) { case (n, seed, k, r, theta, l) =>
      val g = TestGraphs.random(n, 0.3, sigma = 5, kwPerVertex = 2, seed = seed.toLong)
      val q = Query(Array(0, 1, 2), k, r, theta, l)
      val want = TestGraphs.refTopL(g, q)
      val got = answers(TopLICDE.run(g, TestGraphs.localIndex(g, 2), grid, q))
      TestGraphs.assertSameAnswers(got, want)
    }
  }

  test("property: every pruning subset returns identical answers (ablation safety)") {
    forAllN2(Gen.chooseNum(8, 30), Gen.chooseNum(1, 40), n = 40) { (n, seed) =>
      val g = TestGraphs.random(n, 0.3, sigma = 5, seed = seed.toLong)
      val idx = TestGraphs.localIndex(g, 2)
      val q = Query(Array(0, 1), 3, 2, 0.2, 3)
      val want = TestGraphs.refTopL(g, q)
      Pruning.ladder.foreach { p =>
        TestGraphs.assertSameAnswers(answers(TopLICDE.run(g, idx, grid, q, p)), want, p.label)
      }
    }
  }

  test("θ below the precomputed grid disables score pruning but stays exact") {
    forAllN2(Gen.chooseNum(8, 25), Gen.chooseNum(1, 30), n = 30) { (n, seed) =>
      val g = TestGraphs.random(n, 0.3, sigma = 5, seed = seed.toLong)
      val q = Query(Array(0, 1), 3, 2, 0.05, 3)
      val want = TestGraphs.refTopL(g, q)
      TestGraphs.assertSameAnswers(answers(TopLICDE.run(g, TestGraphs.localIndex(g, 2), grid, q)), want)
    }
  }

  test("θ strictly between grid points stays exact (bound from θ_z below)") {
    forAllN2(Gen.chooseNum(8, 25), Gen.chooseNum(1, 30), n = 30) { (n, seed) =>
      val g = TestGraphs.random(n, 0.3, sigma = 5, seed = seed.toLong)
      val q = Query(Array(0, 1), 3, 2, 0.27, 3)
      val want = TestGraphs.refTopL(g, q)
      TestGraphs.assertSameAnswers(answers(TopLICDE.run(g, TestGraphs.localIndex(g, 2), grid, q)), want)
    }
  }

  test("no matching keyword anywhere: empty answer, everything pruned") {
    val g = TestGraphs.random(25, 0.3, sigma = 4, seed = 3L)
    val res = TopLICDE.run(g, TestGraphs.localIndex(g, 2), grid, Query(Array(99), 3, 2, 0.2, 3))
    assert(res.communities.isEmpty)
    assert(res.stats.refined == 0)
    assert(res.stats.entriesKeywordPruned + res.stats.vertexKeywordPruned > 0)
  }

  test("k larger than any truss: empty answer via support pruning") {
    val g = TestGraphs.random(20, 0.15, sigma = 4, seed = 9L) // sparse, few triangles
    val res = TopLICDE.run(g, TestGraphs.localIndex(g, 2), grid, Query(Array(0, 1, 2, 3), 30, 2, 0.2, 3))
    assert(res.communities.isEmpty)
    assert(res.stats.entriesSupportPruned + res.stats.vertexSupportPruned > 0)
  }

  test("L larger than the number of communities returns all of them") {
    val g = TestGraphs.random(20, 0.3, sigma = 3, seed = 11L)
    val q = Query(Array(0, 1, 2), 3, 2, 0.2, 1000)
    val want = TestGraphs.refTopL(g, q)
    TestGraphs.assertSameAnswers(answers(TopLICDE.run(g, TestGraphs.localIndex(g, 2), grid, q)), want)
  }

  test("duplicate communities (same vertex set from different centers) are deduplicated") {
    val g = TestGraphs.clique(6) // every center induces the same community
    val res = TopLICDE.run(g, TestGraphs.localIndex(g, 2), grid, Query(Array(0), 4, 2, 0.2, 5))
    assert(res.communities.size == 1)
    assert(res.stats.duplicates == 5)
  }

  test("pruning statistics: more pruning never refines more candidates") {
    forAllN2(Gen.chooseNum(10, 30), Gen.chooseNum(1, 30), n = 30) { (n, seed) =>
      val g = TestGraphs.random(n, 0.3, sigma = 5, seed = seed.toLong)
      val idx = TestGraphs.localIndex(g, 2)
      val q = Query(Array(0, 1), 3, 2, 0.2, 2)
      val stats = Pruning.ladder.map(TopLICDE.run(g, idx, grid, q, _).stats)
      stats.foreach(s => assert(s.totalPruned + s.refined == g.n))
      stats.sliding(2).foreach { case Seq(lower, upper) => assert(upper.refined <= lower.refined) }
    }
  }

  test("score pruning engages on graphs with many communities") {
    val g = TestGraphs.random(60, 0.2, sigma = 3, kwPerVertex = 2, seed = 21L)
    val idx = TestGraphs.localIndex(g, 2)
    val q = Query(Array(0, 1, 2), 3, 2, 0.2, 1)
    val res = TopLICDE.run(g, idx, grid, q, Pruning.Score)
    // with L = 1 and θ on the grid, the σ_z bound is tight enough to cut work
    val noScore = TopLICDE.run(g, idx, grid, q, Pruning.Support)
    assert(res.stats.refined <= noScore.stats.refined)
  }

  test("query r beyond the index r_max is rejected") {
    val g = TestGraphs.random(15, 0.3, seed = 2L)
    intercept[IllegalArgumentException] {
      TopLICDE.run(g, TestGraphs.localIndex(g, 2), grid, Query(Array(0), 3, 3, 0.2, 2))
    }
  }

  test("fanout does not affect answers") {
    forAllN2(Gen.chooseNum(10, 30), Gen.chooseNum(1, 20), n = 20) { (n, seed) =>
      val g = TestGraphs.random(n, 0.3, sigma = 5, seed = seed.toLong)
      val q = Query(Array(0, 1), 3, 2, 0.2, 3)
      val a = answers(TopLICDE.run(g, TestGraphs.localIndex(g, 2, fanout = 2), grid, q))
      val b = answers(TopLICDE.run(g, TestGraphs.localIndex(g, 2, fanout = 16), grid, q))
      TestGraphs.assertSameAnswers(a, b)
    }
  }

  test("property: keywordTruss is refKTruss of G[V_Q], slot by slot") {
    val gen = Gen.zip(
      Gen.chooseNum(4, 30),        // n
      Gen.chooseNum(1, 200),       // seed
      Gen.chooseNum(2, 5),         // k
      Gen.chooseNum(1, 4))         // |Q|
    var (kept, peeled) = (0, 0)
    forAllN(gen, n = 80) { case (n, seed, k, qSize) =>
      val rnd = new Random(seed.toLong)
      val g = TestGraphs.random(n, 0.2 + 0.4 * rnd.nextDouble(), sigma = 5, kwPerVertex = 2, seed = seed.toLong)
      val q = Query(rnd.shuffle((0 until 5).toList).take(qSize).toArray, k, 1, 0.2, 1)
      val inVQ = (0 until g.n).map(g.matchesQuery(_, q.keywords))
      val gVQ: TestGraphs.Adj = TestGraphs.adjOf(g).zip(inVQ).map { case (ns, in) => if (in) ns.filter(inVQ) else ns.empty }
      val want = TestGraphs.refKTruss(gVQ, k)
      val kQ = TopLICDE.keywordTruss(g, q)
      val rows = g.rows
      rows.foreachSlot { (u, i) =>
        val v = rows.neigh(i)
        assert(kQ(i) == want(u).contains(v), s"slot ($u, $v), k = $k")
        if (kQ(i)) kept += 1 else if (gVQ(u).contains(v)) peeled += 1
      }
    }
    assert(kept > 0 && peeled > 0, s"kept $kept, peeled $peeled: a side never ran")
  }

  test("K_Q keeps a k-clique whose members have exactly k-1 matching neighbours") {
    // the clique 0 … k−1 matches Q; each member also has a neighbour off
    // V_Q, so its degree in G is k but in G[V_Q] only k − 1: K_Q is the
    // (k−1)-core of G[V_Q], and a core taken at k would lose it
    (3 to 5).foreach { k =>
      val clique = for { u <- 0 until k; v <- (u + 1) until k } yield (u, v)
      val g = SocialGraph.fromEdges(2 * k, clique ++ (0 until k).map(v => (v, k + v)),
        keywords = (0 until 2 * k).map(v => v -> Seq(if (v < k) 0 else 1)).toMap)
      val q = Query(Array(0), k, 1, 0.2, 1)
      val kQ = TopLICDE.keywordTruss(g, q)
      g.rows.foreachSlot((u, i) => assert(kQ(i) == (u < k && g.neigh(i) < k), s"slot ($u, ${g.neigh(i)}), k = $k"))
      val want = TestGraphs.refTopL(g, q)
      assert(want.map(_._2) == Seq(0 until k))
      TestGraphs.assertSameAnswers(answers(TopLICDE.run(g, TestGraphs.localIndex(g, 1), grid, q)), want)
    }
  }

  /** A keyword ≠ 0 on the bit of keyword 0: it passes every bit-vector
    * test of Q = {0} and fails the exact match.
    */
  private val twin = Iterator.from(1).find(KeywordBV.bitOf(_) == KeywordBV.bitOf(0)).get

  /** Alg. 3 on `g` at Q = {0} gates every center: each passes the bit-vector,
    * support and score tests, and K_Q is empty.
    */
  private def assertAllGated(g: GraphData, k: Int): Unit = {
    val q = Query(Array(0), k, 1, 0.2, 2)
    assert(!TopLICDE.keywordTruss(g, q).contains(true), s"K_Q is empty, k = $k")
    val res = TopLICDE.run(g, TestGraphs.localIndex(g, 1), grid, q)
    assert(res.stats.vertexTrussPruned == g.n && res.stats.refined == 0, s"k = $k")
    assert(res.communities.isEmpty)
    TestGraphs.assertSameAnswers(answers(res), TestGraphs.refTopL(g, q))
  }

  test("V_Q empty: every center is gated, and the answer is empty") {
    // K5 where every keyword shares keyword 0's bit but none is 0
    val g = SocialGraph.fromEdges(5, for { u <- 0 until 5; v <- (u + 1) until 5 } yield (u, v),
      keywords = (0 until 5).map(_ -> Seq(twin)).toMap)
    (3 to 4).foreach(assertAllGated(g, _))
  }

  test("(k-1)-core of G[V_Q] empty: every center is gated, and the answer is empty") {
    // V_Q = {0, 1, 2, 3} is a path, so its 2-core is empty; the hubs 4, 5, 6
    // (keyword twin) join each other and every path vertex, so each path
    // edge has support 3 in G
    val hubs = Seq(4, 5, 6)
    val edges = Seq((0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6)) ++ hubs.flatMap(h => (0 until 4).map(_ -> h))
    val g = SocialGraph.fromEdges(7, edges,
      keywords = (0 until 7).map(v => v -> Seq(if (v < 4) 0 else twin)).toMap)
    (3 to 4).foreach(assertAllGated(g, _))
  }

  test("property: a center with no K_Q edge has no seed community") {
    val gen = Gen.zip(
      Gen.chooseNum(8, 40),        // n
      Gen.chooseNum(1, 200),       // seed
      Gen.chooseNum(3, 5),         // k
      Gen.chooseNum(1, 3),         // r
      Gen.chooseNum(1, 4))         // |Q|
    var fired = 0
    forAllN(gen, n = 80) { case (n, seed, k, r, qSize) =>
      val rnd = new Random(seed.toLong)
      val g = TestGraphs.random(n, 0.2 + 0.3 * rnd.nextDouble(), sigma = 5, kwPerVertex = 2, seed = seed.toLong)
      val q = Query(rnd.shuffle((0 until 5).toList).take(qSize).toArray, k, r, 0.2, 1)
      val kQ = TopLICDE.keywordTruss(g, q)
      (0 until g.n).filterNot(g.rows.degree(kQ, _) > 0).foreach { v =>
        // the gate fires on it: v matches Q and keeps an edge in G[V_Q]
        if (g.matchesQuery(v, q.keywords) && TestGraphs.row(g, v).exists(g.matchesQuery(_, q.keywords))) fired += 1
        assert(TestGraphs.refSeed(g, v, r, k, q.keywords).isEmpty, s"center $v has no K_Q edge but has a community")
      }
    }
    assert(fired > 0, "the K_Q gate never cut an edge of G[V_Q] from a matching center")
  }

  test("the K_Q gate is vacuous for k <= 2") {
    // vertex 2 is isolated: no K_Q edge, but a singleton community at k = 2
    val g = SocialGraph.fromEdges(3, Seq((0, 1)))
    val q = Query(Array(0), 2, 1, 0.2, 3)
    val res = TopLICDE.run(g, TestGraphs.localIndex(g, 1), grid, q, Pruning.KeywordTruss)
    assert(res.stats.vertexTrussPruned == 0)
    assert(answers(res).map(_._2).contains(Seq(2)))
    TestGraphs.assertSameAnswers(answers(res), TestGraphs.refTopL(g, q))
  }

  test("property: KeywordTruss vs Score changes only refined and noCommunity, each by vertexTrussPruned") {
    def others(s: PruneStats): Seq[Long] = Seq(s.entriesKeywordPruned, s.entriesSupportPruned,
      s.entriesScorePruned, s.vertexKeywordPruned, s.vertexSupportPruned, s.vertexScorePruned,
      s.heapTerminated, s.duplicates)
    def reported(res: TopLResult): Seq[(Int, Seq[Int], Double)] =
      res.communities.map(c => (c.center, c.vertices.toSeq, c.sigma))
    val gen = Gen.zip(
      Gen.chooseNum(1, 60),        // seed
      Gen.oneOf(false, true),      // tied cliques or a random graph
      Gen.chooseNum(2, 5),         // k
      Gen.chooseNum(1, 2),         // r
      Gen.oneOf(grid.toSeq :+ 0.25),
      Gen.chooseNum(1, 4))         // L
    var skipped = 0L
    forAllN(gen, n = 120) { case (seed, tied, k, r, theta, l) =>
      val rnd = new Random(seed.toLong)
      val g =
        if (tied) {
          val m = 3 + rnd.nextInt(3)
          TestGraphs.cliques(4 * m + 2, Seq((0, m, true), (m + 1, m, false), (2 * m + 2, 2 + rnd.nextInt(m), false)))
        } else TestGraphs.random(8 + rnd.nextInt(25), 0.3, sigma = 5, seed = seed.toLong)
      val idx = TestGraphs.localIndex(g, 2, fanout = 2 + rnd.nextInt(4))
      val q = Query(Array(0, 1), k, r, theta, l)
      val on = TopLICDE.run(g, idx, grid, q, Pruning.KeywordTruss)
      val off = TopLICDE.run(g, idx, grid, q, Pruning.Score)
      Seq(on, off).foreach(res => assert(res.stats.totalPruned + res.stats.refined == g.n))
      assert(reported(on) == reported(off))
      assert(others(on.stats) == others(off.stats))
      val cut = on.stats.vertexTrussPruned
      assert(off.stats.vertexTrussPruned == 0)
      assert(off.stats.refined - on.stats.refined == cut)
      assert(off.stats.noCommunity - on.stats.noCommunity == cut)
      skipped += cut
    }
    assert(skipped > 0, "the K_Q gate never fired")
  }
}
