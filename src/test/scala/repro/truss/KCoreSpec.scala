package repro.truss

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.SocialGraph
import repro.{MiniChecks, TestGraphs}

import scala.util.Random

/** k-core peeling on sorted rows vs a naive neighbour-set fixpoint reference. */
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

  test("kCoreCommunity empty when center peeled") {
    assert(KCore.kCoreCommunity(TestGraphs.bowtie().rows, 4, 2).isEmpty)
  }
}
