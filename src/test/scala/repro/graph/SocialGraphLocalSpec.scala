package repro.graph

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Query, SeedExtract, TopLICDE}
import repro.influence.MIA
import repro.{MiniChecks, TestGraphs}

/** GraphData invariants and local BFS vs reference. */
class SocialGraphLocalSpec extends AnyFunSuite with MiniChecks {

  test("fromEdges builds symmetric structure with per-direction weights") {
    val g = SocialGraph.fromEdges(3, Seq((0, 1), (1, 2)),
      directedWeights = Map((0, 1) -> 0.55, (1, 0) -> 0.51, (1, 2) -> 0.59, (2, 1) -> 0.52))
    var w01 = 0.0; var w10 = 0.0
    g.foreachNeighbor(0) { (u, w) => if (u == 1) w01 = w }
    g.foreachNeighbor(1) { (u, w) => if (u == 0) w10 = w }
    assert(w01 == 0.55 && w10 == 0.51)
    assert(g.numUndirectedEdges == 2)
  }

  test("fromEdges rejects bad rows, naming the row") {
    def rejects(g: => Any, what: String, row: String): Unit = {
      val m = intercept[IllegalArgumentException](g).getMessage
      assert(m.contains(what) && m.contains(row), m)
    }
    rejects(SocialGraph.fromEdges(2, Seq((1, 1))), "self loop", "(1, 1)")
    rejects(SocialGraph.fromEdges(3, Seq((0, 1), (1, 2), (0, 1))), "repeated", "(0, 1)")
    rejects(SocialGraph.fromEdges(3, Seq((0, 1), (1, 0))), "repeated", "(0, 1)") // one pair, both ways
    rejects(SocialGraph.checkedRows(3, Array(0L, 1L, 2L), Array(1L, 0L, 1L)), "no reverse row (1, 2)", "(2, 1)")
    Seq(0.0, 1.5).foreach { w =>
      rejects(SocialGraph.fromEdges(3, Seq((0, 1), (1, 2)), directedWeights = Map((2, 1) -> w)), "outside (0, 1]", "(2, 1)")
    }
    rejects(SocialGraph.fromEdges(3, Seq((0, 1), (1, 3))), "outside 0..n-1", "(1, 3)")
    rejects(SocialGraph.fromEdges(3, Seq((0, 1), (1, -1))), "outside 0..n-1", "(1, -1)")
  }

  test("adjacency rows are sorted") {
    forAllN2(Gen.chooseNum(3, 20), Gen.chooseNum(1, 20), n = 30) { (n, seed) =>
      val g = TestGraphs.random(n, 0.4, seed = seed.toLong)
      (0 until n).foreach { v =>
        val row = TestGraphs.row(g, v)
        assert(row.toSeq == row.sorted.toSeq, "adjacency sorted")
      }
    }
  }

  /** `g` after Java serialisation and back: the copy a broadcast hands an executor. */
  private def shipped(g: GraphData): GraphData = {
    val bytes = new java.io.ByteArrayOutputStream
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(g)
    out.close()
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[GraphData]
  }

  test("a serialised copy of G holds G's rows and gives G's answers") {
    val cases = Seq(TestGraphs.random(30, 0.3, seed = 5L) -> Array(0, 1, 2, 3), TestGraphs.twoK4Tie() -> Array(0))
    cases.foreach { case (g, keywords) =>
      val c = shipped(g)
      assert(!(c.rows eq g.rows))
      assert(c.rows.offsets.sameElements(g.rows.offsets) && c.rows.neigh.sameElements(g.rows.neigh))
      assert(c.rows.rev.sameElements(g.rows.rev))
      assert(c.weight.sameElements(g.weight) && c.kwMask.sameElements(g.kwMask))
      def members(s: Option[SeedExtract.Seed]) = s.map(_.vertices.toSeq)
      for (k <- 2 to 4; r <- 1 to 2) {
        val q = Query(keywords, k, r, 0.2, 1)
        val kQ = TopLICDE.keywordTruss(c, q)
        assert(kQ.sameElements(TopLICDE.keywordTruss(g, q)), s"K_Q, k = $k")
        (0 until g.n).foreach { v =>
          assert(members(SeedExtract.extract(c, v, r, k, keywords)) == members(SeedExtract.extract(g, v, r, k, keywords)))
          assert(members(SeedExtract.extractInTruss(c, kQ, v, r, k, keywords)) ==
            members(SeedExtract.extractInTruss(g, kQ, v, r, k, keywords)))
        }
      }
      (0 until g.n).foreach { v =>
        val (ball, dist) = c.hopBall(v, 2)
        val (want, wantDist) = g.hopBall(v, 2)
        assert(ball.sameElements(want) && dist.sameElements(wantDist), s"hopBall($v, 2)")
        val cpp = MIA.influencedCpp(c, Array(v), 0.2)
        val wantCpp = MIA.influencedCpp(g, Array(v), 0.2)
        assert(cpp.ids.sameElements(wantCpp.ids) && cpp.probs.sameElements(wantCpp.probs), s"cpp($v)")
      }
    }
  }

  test("property: hopBall matches reference BFS distances for r = 0..3") {
    forAllN2(Gen.chooseNum(3, 25), Gen.chooseNum(1, 30), n = 40) { (n, seed) =>
      val g = TestGraphs.random(n, 0.25, seed = seed.toLong)
      (0 until n).foreach { v =>
        val ref = TestGraphs.refDist(g, v)
        (0 to 3).foreach { r =>
          val (ball, dist) = g.hopBall(v, r)
          val want = ref.filter(_._2 <= r)
          assert(ball.toSet == want.keySet, s"ball($v,$r)")
          ball.zip(dist).foreach { case (u, d) => assert(d == ref(u)) }
        }
      }
    }
  }

  test("hopBall(v, 0) is just the center") {
    val g = TestGraphs.bowtie()
    val (ball, dist) = g.hopBall(2, 0)
    assert(ball.toSeq == Seq(2) && dist.toSeq == Seq(0))
  }

  test("matchesQuery is exact set intersection") {
    forAllN3(Gen.chooseNum(3, 12), Gen.chooseNum(1, 20), Gen.listOf(Gen.chooseNum(0, 10)), n = 40) {
      (n, seed, q) =>
        val g = TestGraphs.random(n, 0.3, sigma = 8, kwPerVertex = 3, seed = seed.toLong)
        val query = q.toArray
        (0 until n).foreach { v =>
          val want = g.keywords(v).toSet.intersect(query.toSet).nonEmpty
          assert(g.matchesQuery(v, query) == want)
        }
    }
  }

  test("kwMask covers exactly the vertex keywords' bits") {
    forAllN2(Gen.chooseNum(2, 15), Gen.chooseNum(1, 20), n = 20) { (n, seed) =>
      val g = TestGraphs.random(n, 0.3, seed = seed.toLong)
      (0 until n).foreach { v =>
        assert(g.kwMask(v) == repro.keywords.KeywordBV.hashSet(g.keywords(v).toSeq))
      }
    }
  }

  test("Query validates its parameters") {
    intercept[IllegalArgumentException](Query(Array(0), 2, 1, 1.0, 1))   // θ = 1
    intercept[IllegalArgumentException](Query(Array(0), 2, 1, -0.1, 1))  // θ < 0
    intercept[IllegalArgumentException](Query(Array(0), 2, 1, 0.2, 0))   // L = 0
    intercept[IllegalArgumentException](Query(Array(0), 2, 0, 0.2, 1))   // r = 0
    intercept[IllegalArgumentException](Query(Array(0), 1, 1, 0.2, 1))   // k = 1
  }

  test("Query bit vector hashes its keywords") {
    val q = Query(Array(1, 2, 3), 3, 2, 0.2, 5)
    assert(q.queryBv == repro.keywords.KeywordBV.hashSet(Seq(1, 2, 3)))
  }
}
