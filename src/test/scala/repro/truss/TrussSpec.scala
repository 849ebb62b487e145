package repro.truss

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.SocialGraph
import repro.{MiniChecks, TestGraphs}

import scala.util.Random

/** k-truss peeling / trussness decomposition on sorted rows vs the naive
  * neighbour-set references in [[TestGraphs]].
  */
class TrussSpec extends AnyFunSuite with MiniChecks {

  private def randomEdges(n: Int, p: Double, seed: Long): Seq[(Int, Int)] = {
    val rnd = new Random(seed)
    for { u <- 0 until n; v <- (u + 1) until n if rnd.nextDouble() < p } yield (u, v)
  }

  private def randomRows(n: Int, p: Double, seed: Long): Truss.Rows = SocialGraph.fromEdges(n, randomEdges(n, p, seed)).rows

  /** The alive edges of `rows` after a k-truss peel. */
  private def peeled(rows: Truss.Rows, k: Int): Set[(Int, Int)] = {
    val alive = rows.allAlive
    Truss.kTrussPeel(rows, alive, k)
    TestGraphs.edgeSet(TestGraphs.adjOf(rows, alive))
  }

  /** The support of edge (u, v), read from its slot in u's row. */
  private def at(rows: Truss.Rows, vals: Array[Int], u: Int, v: Int): Int =
    vals(java.util.Arrays.binarySearch(rows.neigh, rows.offsets(u), rows.offsets(u + 1), v))

  test("supports on the bowtie graph") {
    val rows = TestGraphs.bowtie().rows
    val sup = Truss.supports(rows, rows.allAlive)
    assert(at(rows, sup, 1, 2) == 2) // (1,2) in triangles {0,1,2} and {1,2,3}
    assert(at(rows, sup, 2, 1) == 2)
    assert(at(rows, sup, 0, 1) == 1)
    assert(at(rows, sup, 3, 4) == 0)
  }

  test("supports of K5: every edge in 3 triangles") {
    val rows = TestGraphs.clique(5).rows
    assert(Truss.supports(rows, rows.allAlive).toSet == Set(3))
  }

  test("K_n is an n-truss but not an (n+1)-truss") {
    (3 to 7).foreach { n =>
      val rows = TestGraphs.clique(n).rows
      assert(TestGraphs.isKTruss(TestGraphs.adjOf(rows, rows.allAlive), n))
      assert(peeled(rows, n).size == n * (n - 1) / 2)
      assert(peeled(rows, n + 1).isEmpty)
    }
  }

  test("4-truss peel of bowtie removes everything (max support 2 < 2? no — keeps nothing)") {
    // bowtie edges have supports {0,1,1,1,1,2}; 4-truss needs support >= 2
    // on EVERY edge of the remaining subgraph: after removing support-1
    // edges, the rest collapses.
    assert(peeled(TestGraphs.bowtie().rows, 4).isEmpty)
  }

  test("3-truss peel of bowtie keeps both triangles, drops the pendant") {
    assert(peeled(TestGraphs.bowtie().rows, 3) == Set((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
  }

  test("property: peel equals naive fixpoint reference on random graphs") {
    forAllN3(Gen.chooseNum(4, 18), Gen.chooseNum(1, 8), Gen.chooseNum(3, 6), n = 80) { (n, seed, k) =>
      val rows = randomRows(n, 0.4, seed.toLong)
      val ref = TestGraphs.refKTruss(TestGraphs.adjOf(rows, rows.allAlive), k)
      assert(peeled(rows, k) == TestGraphs.edgeSet(ref))
    }
  }

  test("property: peel result is always a k-truss") {
    forAllN3(Gen.chooseNum(4, 20), Gen.chooseNum(1, 10), Gen.chooseNum(3, 6), n = 60) { (n, seed, k) =>
      val rows = randomRows(n, 0.45, seed.toLong)
      val alive = rows.allAlive
      Truss.kTrussPeel(rows, alive, k)
      assert(TestGraphs.isKTruss(TestGraphs.adjOf(rows, alive), k))
    }
  }

  test("peel with k <= 2 is a no-op") {
    val rows = TestGraphs.bowtie().rows
    assert(peeled(rows, 2) == TestGraphs.edgeSet(TestGraphs.adjOf(rows, rows.allAlive)))
  }

  test("trussness of K5 is 5 on every edge") {
    val rows = TestGraphs.clique(5).rows
    assert(Truss.trussness(rows, rows.allAlive).toSet == Set(5))
  }

  test("trussness of bowtie: triangles 3, pendant 2") {
    val rows = TestGraphs.bowtie().rows
    val tn = Truss.trussness(rows, rows.allAlive)
    assert(at(rows, tn, 3, 4) == 2 && at(rows, tn, 4, 3) == 2)
    assert(at(rows, tn, 0, 1) == 3)
    assert(at(rows, tn, 1, 2) == 3)
  }

  test("property: trussness(e) >= k iff e survives k-truss peel") {
    forAllN2(Gen.chooseNum(5, 16), Gen.chooseNum(1, 10), n = 50) { (n, seed) =>
      val rows = randomRows(n, 0.45, seed.toLong)
      val adj = TestGraphs.adjOf(rows, rows.allAlive)
      val tn = TestGraphs.bySlot(rows, Truss.trussness(rows, rows.allAlive))
      (3 to 6).foreach { k =>
        val byTrussness = tn.iterator.collect { case ((u, v), t) if u < v && t >= k => (u, v) }.toSet
        // both share one peel loop: check it against the from-scratch reference too
        val byRef = TestGraphs.edgeSet(TestGraphs.refKTruss(adj, k))
        assert(peeled(rows, k) == byTrussness, s"k=$k")
        assert(byRef == byTrussness, s"k=$k vs reference")
      }
    }
  }

  test("property: supports equal refSupports slot by slot on random graphs") {
    forAllN2(Gen.chooseNum(4, 24), Gen.chooseNum(1, 40), n = 60) { (n, seed) =>
      val rows = randomRows(n, 0.4, seed.toLong)
      val want = TestGraphs.bothWays(TestGraphs.refSupports(TestGraphs.adjOf(rows, rows.allAlive)))
      assert(TestGraphs.bySlot(rows, Truss.supports(rows, rows.allAlive)) == want)
    }
  }

  test("property: trussness equals refTrussness slot by slot on random graphs") {
    forAllN2(Gen.chooseNum(4, 24), Gen.chooseNum(1, 40), n = 60) { (n, seed) =>
      val rows = randomRows(n, 0.45, seed.toLong)
      val want = TestGraphs.bothWays(TestGraphs.refTrussness(TestGraphs.adjOf(rows, rows.allAlive)))
      assert(TestGraphs.bySlot(rows, Truss.trussness(rows, rows.allAlive)) == want)
    }
  }

  test("checkedRows sorts each row, with the right rev and input order") {
    // rows j = 0..3: (2, 1), (1, 0), (0, 1), (1, 2)
    val (rows, order) = SocialGraph.checkedRows(3, Array(2L, 1L, 0L, 1L), Array(1L, 0L, 1L, 2L))
    assert(rows.offsets.toSeq == Seq(0, 1, 3, 4))
    assert(rows.neigh.toSeq == Seq(1, 0, 2, 1))
    assert(rows.rev.toSeq == Seq(1, 0, 3, 2))
    assert(order.toSeq == Seq(2, 1, 3, 0))
  }

  test("supports match brute-force common-neighbour counts") {
    forAllN2(Gen.chooseNum(4, 15), Gen.chooseNum(1, 10), n = 40) { (n, seed) =>
      val rows = randomRows(n, 0.5, seed.toLong)
      val adj = TestGraphs.adjOf(rows, rows.allAlive)
      val sup = Truss.supports(rows, rows.allAlive)
      for { u <- 0 until n; v <- adj(u) } {
        val brute = (0 until n).count(w => adj(u).contains(w) && adj(v).contains(w))
        assert(at(rows, sup, u, v) == brute)
      }
    }
  }

  test("property: rev(i) is the slot of the reverse edge") {
    forAllN2(Gen.chooseNum(1, 20), Gen.chooseNum(1, 20), n = 40) { (n, seed) =>
      val rows = randomRows(n, 0.4, seed.toLong)
      (0 until n).foreach { u =>
        (rows.offsets(u) until rows.offsets(u + 1)).foreach { i =>
          val j = rows.rev(i)
          assert(rows.neigh(j) == u && rows.offsets(rows.neigh(i)) <= j && j < rows.offsets(rows.neigh(i) + 1))
        }
      }
    }
  }
}
