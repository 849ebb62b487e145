package repro.index

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.index.TreeIndex.{Agg, Inner, Leaf, Node, VertexRef}
import repro.{MiniChecks, TestGraphs}

import scala.concurrent.duration._
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.util.{Failure, Try}

/** Tree-index construction invariants (paper §V-B). */
class TreeIndexSpec extends AnyFunSuite with MiniChecks {

  private def rowsFor(n: Int, seed: Long, rMax: Int = 2): Array[VertexRef] = {
    val g = TestGraphs.random(n, 0.3, seed = seed)
    val inc = TestGraphs.localIncSup(g)
    Array.tabulate(g.n)(Precompute.localVertexRef(g, inc, _, rMax, Precompute.DefaultThetaGrid))
  }

  private def checkAggs(node: Node): Unit = node match {
    case Leaf(agg, vs) =>
      val c = TreeIndex.combine(vs.map(_.agg))
      assert(agg.bv.sameElements(c.bv))
      assert(agg.ubSup.sameElements(c.ubSup))
      agg.sigmas.zip(c.sigmas).foreach { case (a, b) => assert(a.sameElements(b)) }
    case Inner(agg, cs) =>
      val c = TreeIndex.combine(cs.map(_.agg))
      assert(agg.bv.sameElements(c.bv))
      assert(agg.ubSup.sameElements(c.ubSup))
      agg.sigmas.zip(c.sigmas).foreach { case (a, b) => assert(a.sameElements(b)) }
      cs.foreach(checkAggs)
  }

  test("every vertex appears exactly once in the index") {
    val rows = rowsFor(60, 3L)
    val idx = TreeIndex.build(rows, fanout = 4)
    val ids = TreeIndex.vertices(idx).map(_.id).toSeq
    assert(ids.sorted == (0 until 60))
  }

  test("aggregates are the OR/max of children at every level") {
    val rows = rowsFor(80, 5L)
    checkAggs(TreeIndex.build(rows, fanout = 4))
  }

  test("root aggregate dominates every vertex aggregate") {
    val rows = rowsFor(50, 7L)
    val idx = TreeIndex.build(rows, fanout = 8)
    TreeIndex.vertices(idx).foreach { v =>
      (0 until v.agg.rMax).foreach { r =>
        assert((idx.agg.bv(r) | v.agg.bv(r)) == idx.agg.bv(r))
        assert(idx.agg.ubSup(r) >= v.agg.ubSup(r))
        v.agg.sigmas(r).zip(idx.agg.sigmas(r)).foreach { case (s, rs) => assert(rs >= s) }
      }
    }
  }

  test("height is logarithmic in fanout") {
    val rows = rowsFor(100, 9L)
    assert(TreeIndex.height(TreeIndex.build(rows, fanout = 100)) == 1)
    val h4 = TreeIndex.height(TreeIndex.build(rows, fanout = 4))
    assert(h4 >= 3 && h4 <= 6)
  }

  test("single-vertex graph builds a one-leaf index") {
    val rows = rowsFor(1, 11L)
    val idx = TreeIndex.build(rows)
    assert(idx.isInstanceOf[Leaf])
    assert(TreeIndex.vertices(idx).size == 1)
  }

  test("build rejects vertices with missing radii") {
    val rows = rowsFor(10, 13L)
    intercept[IllegalArgumentException] {
      TreeIndex.build(rows.map {
        case VertexRef(3, a) => VertexRef(3, Agg(a.bv.take(1), a.ubSup.take(1), a.sigmas.take(1)))
        case v => v
      })
    }
  }

  test("build rejects fanout < 2 by name, and terminates") {
    val rows = rowsFor(10, 17L)
    Seq(1, 0, -1).foreach { fanout =>
      // bounded: a fanout-1 build that regroups forever fails the wait
      val built = Future(Try(TreeIndex.build(rows, fanout)))(ExecutionContext.global)
      Await.result(built, 10.seconds) match {
        case Failure(e: IllegalArgumentException) => assert(e.getMessage.contains("fanout"), e.getMessage)
        case other => fail(s"fanout $fanout: $other")
      }
    }
    assert(TreeIndex.vertices(TreeIndex.build(rows, fanout = 2)).size == 10)
  }

  test("property: index over random graphs keeps all per-radius bounds consistent") {
    forAllN2(Gen.chooseNum(5, 60), Gen.chooseNum(1, 20), n = 20) { (n, seed) =>
      val rows = rowsFor(n, seed.toLong)
      checkAggs(TreeIndex.build(rows, fanout = 3))
    }
  }
}
