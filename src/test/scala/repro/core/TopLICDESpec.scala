package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.index.Precompute
import repro.{MiniChecks, TestGraphs}

/** End-to-end correctness of the pruned, index-driven Algorithm 3: it must
  * return exactly the brute-force ground truth (all pruning lemmas are
  * safe) for every pruning configuration, graph, and parameter setting.
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
    val configs = Seq(
      PruningConfig(false, false, false),
      PruningConfig(true, false, false),
      PruningConfig(true, true, false),
      PruningConfig(true, true, true),
      PruningConfig(false, false, true),
      PruningConfig(false, true, false))
    forAllN2(Gen.chooseNum(8, 30), Gen.chooseNum(1, 40), n = 40) { (n, seed) =>
      val g = TestGraphs.random(n, 0.3, sigma = 5, seed = seed.toLong)
      val idx = TestGraphs.localIndex(g, 2)
      val q = Query(Array(0, 1), 3, 2, 0.2, 3)
      val want = TestGraphs.refTopL(g, q)
      configs.foreach { cfg =>
        TestGraphs.assertSameAnswers(answers(TopLICDE.run(g, idx, grid, q, cfg)), want, cfg.toString)
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
      val none = TopLICDE.run(g, idx, grid, q, PruningConfig(false, false, false))
      val all = TopLICDE.run(g, idx, grid, q, PruningConfig(true, true, true))
      assert(all.stats.refined <= none.stats.refined)
      assert(none.stats.totalPruned == 0)
    }
  }

  test("score pruning engages on graphs with many communities") {
    val g = TestGraphs.random(60, 0.2, sigma = 3, kwPerVertex = 2, seed = 21L)
    val idx = TestGraphs.localIndex(g, 2)
    val q = Query(Array(0, 1, 2), 3, 2, 0.2, 1)
    val res = TopLICDE.run(g, idx, grid, q)
    // with L = 1 and θ on the grid, the σ_z bound is tight enough to cut work
    val noScore = TopLICDE.run(g, idx, grid, q, PruningConfig(true, true, false))
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
}
