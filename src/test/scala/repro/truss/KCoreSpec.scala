package repro.truss

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.SocialGraph
import repro.{MiniChecks, TestGraphs}

import scala.util.Random

/** k-core peeling on sorted rows vs a naive neighbour-set fixpoint
  * reference, from the full graph and from the partial masks that the
  * keyword truss K_Q starts from.
  */
class KCoreSpec extends AnyFunSuite with MiniChecks {

  private def refKCore(adjIn: TestGraphs.Adj, k: Int): TestGraphs.Adj = {
    val adj = adjIn.map(_.clone())
    var changed = true
    while (changed) {
      changed = false
      adj.indices.foreach { v =>
        if (adj(v).nonEmpty && adj(v).size < k) {
          adj(v).foreach(u => adj(u) -= v)
          adj(v).clear()
          changed = true
        }
      }
    }
    adj
  }

  /** The alive edges left by a k-core peel of `rows`, as neighbour sets. */
  private def cored(rows: Truss.Rows, k: Int): TestGraphs.Adj = {
    val alive = rows.allAlive
    KCore.kCorePeel(rows, alive, k)
    TestGraphs.adjOf(rows, alive)
  }

  private def randomRows(n: Int, seed: Int): Truss.Rows = {
    val rnd = new Random(seed.toLong)
    SocialGraph.fromEdges(n, for { u <- 0 until n; v <- (u + 1) until n if rnd.nextDouble() < 0.4 } yield (u, v)).rows
  }

  test("K5 is a 4-core, not a 5-core") {
    val rows = TestGraphs.clique(5).rows
    assert(TestGraphs.edgeSet(cored(rows, 4)).size == 10)
    assert(TestGraphs.edgeSet(cored(rows, 5)).isEmpty)
  }

  test("pendant vertex peeled at k=2") {
    val adj = cored(TestGraphs.bowtie().rows, 2)
    assert(adj(4).isEmpty)
    assert(adj(0).nonEmpty)
  }

  test("property: peel equals naive fixpoint on random graphs") {
    forAllN3(Gen.chooseNum(4, 18), Gen.chooseNum(1, 10), Gen.chooseNum(2, 5), n = 60) { (n, seed, k) =>
      val rows = randomRows(n, seed)
      val want = refKCore(TestGraphs.adjOf(rows, rows.allAlive), k)
      assert(TestGraphs.edgeSet(cored(rows, k)) == TestGraphs.edgeSet(want))
    }
  }

  test("property: every surviving vertex keeps degree >= k") {
    forAllN3(Gen.chooseNum(4, 20), Gen.chooseNum(1, 10), Gen.chooseNum(2, 5), n = 40) { (n, seed, k) =>
      val adj = cored(randomRows(n, seed), k)
      adj.indices.foreach(v => assert(adj(v).isEmpty || adj(v).size >= k))
    }
  }

  /** A random partial mask over `rows`, as G[V_Q] is: each edge alive with
    * probability `p`, on both of its slots.
    */
  private def partialMask(rows: Truss.Rows, p: Double, seed: Int): Array[Boolean] = {
    val rnd = new Random(seed.toLong * 31 + 7)
    val alive = new Array[Boolean](rows.neigh.length)
    rows.foreachSlot((u, i) => if (u < rows.neigh(i) && rnd.nextDouble() < p) { alive(i) = true; alive(rows.rev(i)) = true })
    alive
  }

  test("property: peel from a partial mask equals naive fixpoint, with core degrees") {
    val gen = Gen.zip(
      Gen.chooseNum(4, 20),        // n
      Gen.chooseNum(1, 40),        // seed
      Gen.chooseNum(0, 5),         // k
      Gen.chooseNum(1, 9))         // tenths of edges alive
    var (kept, peeled) = (0, 0)
    forAllN(gen, n = 120) { case (n, seed, k, p) =>
      val rows = randomRows(n, seed)
      val alive = partialMask(rows, p / 10.0, seed)
      val before = TestGraphs.edgeSet(TestGraphs.adjOf(rows, alive)).size
      val want = refKCore(TestGraphs.adjOf(rows, alive), k)
      val deg = Array.tabulate(rows.n)(rows.degree(alive, _))
      KCore.kCorePeel(rows, alive, k, deg)
      val got = TestGraphs.edgeSet(TestGraphs.adjOf(rows, alive))
      assert(got == TestGraphs.edgeSet(want), s"k = $k")
      assert(deg.toSeq == want.map(_.size).toSeq, "deg is each vertex's degree in the core")
      kept += got.size; peeled += before - got.size
    }
    assert(kept > 0 && peeled > 0, s"kept $kept, peeled $peeled: a side never ran")
  }

  test("an empty mask stays empty at every k") {
    val rows = TestGraphs.clique(5).rows
    (0 to 5).foreach { k =>
      val alive = new Array[Boolean](rows.neigh.length)
      val deg = new Array[Int](rows.n)
      KCore.kCorePeel(rows, alive, k, deg)
      assert(!alive.contains(true) && deg.forall(_ == 0), s"k = $k")
    }
  }

  test("k <= 1 leaves a partial mask and its degrees as they are") {
    forAllN2(Gen.chooseNum(4, 16), Gen.chooseNum(1, 20), n = 20) { (n, seed) =>
      val rows = randomRows(n, seed)
      Seq(-1, 0, 1).foreach { k =>
        val alive = partialMask(rows, 0.5, seed)
        val mask = alive.clone()
        val deg = Array.tabulate(rows.n)(rows.degree(alive, _))
        val degrees = deg.clone()
        KCore.kCorePeel(rows, alive, k, deg)
        assert(alive.sameElements(mask) && deg.sameElements(degrees), s"k = $k")
      }
    }
  }

  test("kCoreCommunity returns the center's component of the k-core") {
    // two K4s joined by a path through vertex 8: the path vertex has degree
    // 2, so the 3-core splits into the two K4s and the community of a
    // vertex is its own K4.
    val k4a = for { u <- 0 until 4; v <- (u + 1) until 4 } yield (u, v)
    val k4b = for { u <- 4 until 8; v <- (u + 1) until 8 } yield (u, v)
    val rows = repro.graph.SocialGraph.fromEdges(9, k4a ++ k4b ++ Seq((0, 8), (8, 4))).rows
    assert(KCore.kCoreCommunity(rows, 1, 3).toSeq == Seq(0, 1, 2, 3))
    assert(KCore.kCoreCommunity(rows, 5, 3).toSeq == Seq(4, 5, 6, 7))
  }

  test("property: kCoreCommunity equals the center's component of refKCore on random graphs") {
    var (found, empty) = (0, 0)
    forAllN3(Gen.chooseNum(4, 18), Gen.chooseNum(1, 30), Gen.chooseNum(1, 5), n = 60) { (n, seed, k) =>
      val rows = randomRows(n, seed)
      val core = refKCore(TestGraphs.adjOf(rows, rows.allAlive), k)
      (0 until n).foreach { c =>
        val want = if (core(c).isEmpty) Seq.empty else TestGraphs.bfs(c, core(_)).keys.toSeq.sorted
        assert(KCore.kCoreCommunity(rows, c, k).toSeq == want, s"center $c, k = $k")
        if (want.isEmpty) empty += 1 else found += 1
      }
    }
    assert(found > 0 && empty > 0, s"$found communities, $empty empty: a side never ran")
  }

  test("kCoreCommunity empty when center peeled") {
    assert(KCore.kCoreCommunity(TestGraphs.bowtie().rows, 4, 2).isEmpty)
  }
}
