package repro.truss

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.{MiniChecks, TestGraphs}

import scala.util.Random

/** k-truss peeling / trussness decomposition vs naive references. */
class TrussSpec extends AnyFunSuite with MiniChecks {

  private def randomAdj(n: Int, p: Double, seed: Long): Truss.Adj = {
    val rnd = new Random(seed)
    val edges = for {
      u <- 0 until n; v <- (u + 1) until n if rnd.nextDouble() < p
    } yield (u, v)
    Truss.adjacency(n, edges)
  }

  test("supports on the bowtie graph") {
    val adj = TestGraphs.adjOf(TestGraphs.bowtie())
    val sup = Truss.supports(adj)
    assert(sup(Truss.key(1, 2)) == 2) // (1,2) in triangles {0,1,2} and {1,2,3}
    assert(sup(Truss.key(0, 1)) == 1)
    assert(sup(Truss.key(3, 4)) == 0)
  }

  test("supports of K5: every edge in 3 triangles") {
    val adj = TestGraphs.adjOf(TestGraphs.clique(5))
    assert(Truss.supports(adj).values.toSet == Set(3))
  }

  test("K_n is an n-truss but not an (n+1)-truss") {
    (3 to 7).foreach { n =>
      val adj = TestGraphs.adjOf(TestGraphs.clique(n))
      assert(Truss.isKTruss(adj, n))
      val peeled = Truss.copy(adj)
      Truss.kTrussPeel(peeled, n + 1)
      assert(TestGraphs.edgeSet(peeled).isEmpty)
    }
  }

  test("4-truss peel of bowtie removes everything (max support 2 < 2? no — keeps nothing)") {
    // bowtie edges have supports {0,1,1,1,1,2}; 4-truss needs support >= 2
    // on EVERY edge of the remaining subgraph: after removing support-1
    // edges, the rest collapses.
    val adj = TestGraphs.adjOf(TestGraphs.bowtie())
    Truss.kTrussPeel(adj, 4)
    assert(TestGraphs.edgeSet(adj).isEmpty)
  }

  test("3-truss peel of bowtie keeps both triangles, drops the pendant") {
    val adj = TestGraphs.adjOf(TestGraphs.bowtie())
    Truss.kTrussPeel(adj, 3)
    assert(TestGraphs.edgeSet(adj) == Set((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
  }

  test("property: peel equals naive fixpoint reference on random graphs") {
    forAllN3(Gen.chooseNum(4, 18), Gen.chooseNum(1, 8), Gen.chooseNum(3, 6), n = 80) { (n, seed, k) =>
      val adj = randomAdj(n, 0.4, seed.toLong)
      val ref = TestGraphs.refKTruss(adj, k)
      val got = Truss.copy(adj)
      Truss.kTrussPeel(got, k)
      assert(TestGraphs.edgeSet(got) == TestGraphs.edgeSet(ref))
    }
  }

  test("property: peel result is always a k-truss") {
    forAllN3(Gen.chooseNum(4, 20), Gen.chooseNum(1, 10), Gen.chooseNum(3, 6), n = 60) { (n, seed, k) =>
      val adj = randomAdj(n, 0.45, seed.toLong)
      Truss.kTrussPeel(adj, k)
      assert(Truss.isKTruss(adj, k))
    }
  }

  test("peel with k <= 2 is a no-op") {
    val adj = TestGraphs.adjOf(TestGraphs.bowtie())
    val before = TestGraphs.edgeSet(adj)
    Truss.kTrussPeel(adj, 2)
    assert(TestGraphs.edgeSet(adj) == before)
  }

  test("trussness of K5 is 5 on every edge") {
    val adj = TestGraphs.adjOf(TestGraphs.clique(5))
    assert(Truss.trussness(adj).values.toSet == Set(5))
  }

  test("trussness of bowtie: triangles 3, pendant 2") {
    val adj = TestGraphs.adjOf(TestGraphs.bowtie())
    val tn = Truss.trussness(adj)
    assert(tn(Truss.key(3, 4)) == 2)
    assert(tn(Truss.key(0, 1)) == 3)
    assert(tn(Truss.key(1, 2)) == 3)
  }

  test("property: trussness(e) >= k iff e survives k-truss peel") {
    forAllN2(Gen.chooseNum(5, 16), Gen.chooseNum(1, 10), n = 50) { (n, seed) =>
      val adj = randomAdj(n, 0.45, seed.toLong)
      val tn = Truss.trussness(adj)
      (3 to 6).foreach { k =>
        val peeled = Truss.copy(adj)
        Truss.kTrussPeel(peeled, k)
        val surviving = TestGraphs.edgeSet(peeled).map { case (u, v) => Truss.key(u, v) }
        val byTrussness = tn.filter(_._2 >= k).keySet
        // both share one peel loop: check it against the from-scratch reference too
        val byRef = TestGraphs.edgeSet(TestGraphs.refKTruss(adj, k)).map { case (u, v) => Truss.key(u, v) }
        assert(surviving == byTrussness, s"k=$k")
        assert(byRef == byTrussness, s"k=$k vs reference")
      }
    }
  }

  test("componentOf on a disconnected graph") {
    val adj = Truss.adjacency(6, Seq((0, 1), (1, 2), (3, 4)))
    assert(Truss.componentOf(adj, 0).toSet == Set(0, 1, 2))
    assert(Truss.componentOf(adj, 3).toSet == Set(3, 4))
    assert(Truss.componentOf(adj, 5).toSet == Set(5))
  }

  test("bfsDist on a path graph") {
    val adj = Truss.adjacency(5, Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    assert(Truss.bfsDist(adj, 0).toSeq == Seq(0, 1, 2, 3, 4))
  }

  test("bfsDist marks unreachable as MaxValue") {
    val adj = Truss.adjacency(4, Seq((0, 1)))
    val d = Truss.bfsDist(adj, 0)
    assert(d(2) == Int.MaxValue && d(3) == Int.MaxValue)
  }

  test("adjacency drops self loops and is symmetric") {
    val adj = Truss.adjacency(3, Seq((0, 0), (0, 1), (1, 2)))
    assert(!adj(0).contains(0))
    assert(adj(0).contains(1) && adj(1).contains(0))
  }

  test("commonNeighbors counts match brute force") {
    forAllN2(Gen.chooseNum(4, 15), Gen.chooseNum(1, 10), n = 40) { (n, seed) =>
      val adj = randomAdj(n, 0.5, seed.toLong)
      for { u <- 0 until n; v <- 0 until n if u < v } {
        val brute = (0 until n).count(w => adj(u).contains(w) && adj(v).contains(w))
        assert(Truss.commonNeighbors(adj, u, v).size == brute)
      }
    }
  }
}
