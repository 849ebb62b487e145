package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.graph.SocialGraph
import repro.index.{Precompute, TreeIndex}
import repro.influence.MIA
import repro.truss.{KCore, Truss}

/** Degenerate and boundary inputs across the stack. */
class EdgeCasesSpec extends AnyFunSuite {

  private val grid = Precompute.DefaultThetaGrid

  test("truss: supports/peel/trussness on an edgeless graph") {
    val rows = SocialGraph.fromEdges(4, Nil).rows
    assert(Truss.supports(rows, rows.allAlive).isEmpty)
    Truss.kTrussPeel(rows, rows.allAlive, 4)
    assert(Truss.trussness(rows, rows.allAlive).isEmpty)
  }

  test("truss: single edge has support 0, trussness 2") {
    val rows = SocialGraph.fromEdges(2, Seq((0, 1))).rows
    assert(Truss.supports(rows, rows.allAlive).toSeq == Seq(0, 0))
    assert(Truss.trussness(rows, rows.allAlive).toSeq == Seq(2, 2))
  }

  test("kcore: k = 0 and k = 1 keep all edges") {
    val rows = TestGraphs.bowtie().rows
    Seq(0, 1).foreach { k =>
      val alive = rows.allAlive
      KCore.kCorePeel(rows, alive, k)
      assert(TestGraphs.edgeSet(TestGraphs.adjOf(rows, alive)).size == 6)
    }
  }

  test("MIA: threshold boundary is inclusive (cpp >= θ, Def. 3)") {
    // path 0→1 with weight exactly 0.5; θ = 0.5 must keep vertex 1
    val g = SocialGraph.fromEdges(2, Seq((0, 1)), w = 0.5)
    val cpp = MIA.influencedCpp(g, Array(0), 0.5)
    assert(TestGraphs.cppMap(cpp).keySet == Set(0, 1))
  }

  test("MIA: disconnected vertex influences only itself") {
    val g = SocialGraph.fromEdges(3, Seq((1, 2)))
    val cpp = MIA.influencedCpp(g, Array(0), 0.1)
    assert(TestGraphs.cppMap(cpp).keySet == Set(0))
    assert(cpp.sigma == 1.0)
  }

  test("seed extraction with duplicate query keywords") {
    val g = TestGraphs.clique(4)
    val a = SeedExtract.extract(g, 0, 1, 3, Array(0, 0, 0))
    val b = SeedExtract.extract(g, 0, 1, 3, Array(0))
    assert(a.get.vertices.toSeq == b.get.vertices.toSeq)
  }

  test("seed extraction with r far beyond the diameter equals full-graph truss") {
    val g = TestGraphs.clique(5)
    val s = SeedExtract.extract(g, 0, 100, 4, Array(0))
    assert(s.get.vertices.toSeq == Seq(0, 1, 2, 3, 4))
  }

  test("single-vertex graph: precompute, index, and query run (k<=2 singleton)") {
    val g = SocialGraph.fromEdges(1, Nil, keywords = Map(0 -> Seq(0)))
    val idx = TreeIndex.build(Array(Precompute.localVertexRef(g, Array(0), 0, 2, grid)))
    val res = TopLICDE.run(g, idx, grid, Query(Array(0), 2, 1, 0.2, 1))
    assert(res.communities.map(_.vertices.toSeq) == Seq(Seq(0)))
    assert(res.communities.head.sigma == 1.0)
    // k >= 3: no community on an edgeless graph
    assert(TopLICDE.run(g, idx, grid, Query(Array(0), 3, 1, 0.2, 1)).communities.isEmpty)
  }

  test("bad query parameters are rejected by name and value") {
    def message(f: => Any): String = intercept[IllegalArgumentException](f).getMessage
    assert(message(Query(Array(0), 1, 1, 0.2, 1)).contains("k = 1"))
    assert(message(Query(Array(0), 3, 0, 0.2, 1)).contains("r = 0"))
    assert(message(Query(Array(0), 3, 1, 0.2, 0)).contains("L = 0"))
    assert(message(Query(Array(0), 3, 1, 1.0, 1)).contains("θ = 1.0"))
    val g = SocialGraph.fromEdges(1, Nil)
    val idx = TreeIndex.build(Array(Precompute.localVertexRef(g, Array(0), 0, 1, grid)))
    val built = Pipeline.Built(g, idx, grid, 1, 0L)
    assert(message(built.dTopL(Query(Array(0), 3, 1, 0.2, 1), 0)).contains("n = 0"))
    // 3 · 1431655766 = 2^32 + 2: unchecked, the top-n·L step would run with L = 2
    assert(message(built.dTopL(Query(Array(0), 2, 1, 0.2, 3), 1431655766)).contains("n = 1431655766"))
  }

  test("DTopL selectors with L = 0 return empty") {
    val cpp = MIA.Cpp(Array(0), Array(1.0))
    val c = Community(0, Array(0), cpp.sigma, () => cpp)
    assert(DTopL.greedyWP(IndexedSeq(c), 0).selected.isEmpty)
    assert(DTopL.greedyWoP(IndexedSeq(c), 0).selected.isEmpty)
    assert(DTopL.optimal(IndexedSeq(c), 0).selected.isEmpty)
  }

  test("TreeIndex.combine of a single aggregate is the identity") {
    val agg = TreeIndex.Agg(Array(5L), Array(3), Array(Array(1.0, 0.5)))
    val c = TreeIndex.combine(Seq(agg))
    assert(c.bv.toSeq == agg.bv.toSeq && c.ubSup.toSeq == agg.ubSup.toSeq)
    assert(c.sigmas(0).toSeq == agg.sigmas(0).toSeq)
  }

  test("influential-score pruning disabled below the θ grid (thetaZIndex = -1)") {
    assert(TopLICDE.thetaZIndex(grid, 0.0) == -1)
    assert(TopLICDE.thetaZIndex(Array.empty[Double], 0.5) == -1)
  }

  test("PruneStats.totalPruned sums every counter") {
    val s = new PruneStats
    s.entriesKeywordPruned = 1; s.entriesSupportPruned = 2; s.entriesScorePruned = 3
    s.vertexKeywordPruned = 4; s.vertexSupportPruned = 5; s.vertexScorePruned = 6
    s.vertexTrussPruned = 7; s.heapTerminated = 8
    assert(s.totalPruned == 36)
  }

  test("GraphData.hopBall on a ring wraps both directions") {
    val n = 6
    val g = SocialGraph.fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))
    val (ball, dist) = g.hopBall(0, 2)
    assert(ball.toSet == Set(0, 1, 2, 4, 5))
    assert(dist.max == 2)
  }

  test("Community.key distinguishes different vertex sets only") {
    val g = TestGraphs.clique(5)
    val a = Community.scored(g, 0, Array(1, 2, 3), 0.2)
    val b = Community.scored(g, 9, Array(1, 2, 3), 0.2)
    val c = Community.scored(g, 0, Array(1, 2, 4), 0.2)
    assert(Community.key(a.vertices) == Community.key(b.vertices))
    assert(Community.key(a.vertices) != Community.key(c.vertices))
  }
}
