package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.{MiniChecks, TestGraphs}

/** The ATindex baseline must be *exact* (it only lacks influence-bound
  * pruning, not correctness), so it is validated against the same ground
  * truth as Algorithm 3.
  */
class ATindexSpec extends AnyFunSuite with MiniChecks {

  test("vertex trussness: K5 vertices have trussness 5, pendant 2") {
    val g = TestGraphs.bowtie()
    val off = ATindex.offline(g)
    assert(off.vertexTrussness(4) == 2)
    assert(off.vertexTrussness(1) == 3 && off.vertexTrussness(2) == 3)
    val k5 = TestGraphs.clique(5)
    assert(ATindex.offline(k5).vertexTrussness.toSeq == Seq.fill(5)(5))
  }

  test("isolated vertices get trussness 0") {
    val g = repro.graph.SocialGraph.fromEdges(3, Seq((0, 1)))
    assert(ATindex.offline(g).vertexTrussness(2) == 0)
    // at k = 2 the trussness filter is vacuous: isolated vertex 2 is a
    // singleton seed community, as brute force finds
    val q = Query(Array(0), 2, 1, 0.2, 2)
    val (got, _) = ATindex.query(g, ATindex.offline(g), q)
    assert(got.map(_.vertices.toList) == Seq(List(0, 1), List(2)))
    TestGraphs.assertSameAnswers(TestGraphs.ranked(got), TestGraphs.refTopL(g, q))
  }

  test("property: ATindex equals brute-force ground truth") {
    val gen = Gen.zip(Gen.chooseNum(8, 35), Gen.chooseNum(1, 50), Gen.chooseNum(2, 5),
      Gen.chooseNum(1, 2), Gen.oneOf(0.1, 0.2, 0.3), Gen.chooseNum(1, 4))
    forAllN(gen, n = 60) { case (n, seed, k, r, theta, l) =>
      val g = TestGraphs.random(n, 0.3, sigma = 5, kwPerVertex = 2, seed = seed.toLong)
      val q = Query(Array(0, 1, 2), k, r, theta, l)
      val (got, _) = ATindex.query(g, ATindex.offline(g), q)
      TestGraphs.assertSameAnswers(TestGraphs.ranked(got), TestGraphs.refTopL(g, q))
    }
  }

  test("trussness filter skips centers that cannot host a k-truss") {
    forAllN2(Gen.chooseNum(10, 30), Gen.chooseNum(1, 30), n = 30) { (n, seed) =>
      val g = TestGraphs.random(n, 0.25, sigma = 3, seed = seed.toLong)
      val off = ATindex.offline(g)
      val q = Query(Array(0, 1, 2), 4, 2, 0.2, 3)
      val (_, refined) = ATindex.query(g, off, q)
      val eligible = (0 until n).count(v => off.vertexTrussness(v) >= 4)
      assert(refined == eligible)
      assert(refined <= n)
    }
  }
}
