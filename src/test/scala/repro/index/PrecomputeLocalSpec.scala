package repro.index

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.core.SeedExtract
import repro.graph.SocialGraph
import repro.influence.MIA
import repro.keywords.KeywordBV
import repro.truss.Truss
import repro.{MiniChecks, TestGraphs}

/** Validity of the per-vertex offline aggregates (paper Alg. 2) — these
  * are what make the pruning lemmas *safe*, so each bound is checked
  * against exhaustively computed truth on small random graphs.
  */
class PrecomputeLocalSpec extends AnyFunSuite with MiniChecks {

  private val grid = Precompute.DefaultThetaGrid

  test("BV_r is the OR of ball members' bit vectors") {
    forAllN2(Gen.chooseNum(5, 20), Gen.chooseNum(1, 30), n = 40) { (n, seed) =>
      val g = TestGraphs.random(n, 0.3, seed = seed.toLong)
      val inc = TestGraphs.localIncSup(g)
      (0 until n).foreach { v =>
        val dist = TestGraphs.refDist(g, v)
        val agg = Precompute.localVertexRef(g, inc, v, 3, grid).agg
        (1 to 3).foreach { r =>
          val expected = dist.collect { case (u, d) if d <= r => g.kwMask(u) }
            .foldLeft(0L)(_ | _)
          assert(agg.bv(r - 1) == expected, s"BV_r mismatch v=$v r=$r")
        }
      }
    }
  }

  test("keyword pruning via BV_r is safe: a matching community is never filtered") {
    forAllN2(Gen.chooseNum(6, 18), Gen.chooseNum(1, 30), n = 40) { (n, seed) =>
      val g = TestGraphs.random(n, 0.35, sigma = 5, seed = seed.toLong)
      val inc = TestGraphs.localIncSup(g)
      val query = Array(0, 1)
      val qbv = KeywordBV.hashSet(query.toSeq)
      (0 until n).foreach { v =>
        val agg = Precompute.localVertexRef(g, inc, v, 2, grid).agg
        (1 to 2).foreach { r =>
          SeedExtract.extract(g, v, r, 3, query).foreach { _ =>
            assert(KeywordBV.mayIntersect(agg.bv(r - 1), qbv),
              s"BV pruning would kill a real community at v=$v r=$r")
          }
        }
      }
    }
  }

  test("ub_sup_r upper-bounds the support of every edge of every seed community in the ball") {
    forAllN2(Gen.chooseNum(6, 16), Gen.chooseNum(1, 40), n = 60) { (n, seed) =>
      val g = TestGraphs.random(n, 0.4, seed = seed.toLong)
      val inc = TestGraphs.localIncSup(g)
      (0 until n).foreach { v =>
        val agg = Precompute.localVertexRef(g, inc, v, 2, grid).agg
        (1 to 2).foreach { r =>
          // any seed community within the ball: its edges' supports (in the
          // community!) are <= their supports in G <= ub_sup_r
          SeedExtract.extract(g, v, r, 3, Array(0, 1, 2, 3, 4)).foreach { community =>
            val members = community.vertices
            val local = members.zipWithIndex.toMap
            val edges = TestGraphs.seedEdges(g, members, 3)
            val rows = SocialGraph.fromEdges(members.length, edges.map { case (u, w) => (local(u), local(w)) }).rows
            Truss.supports(rows, rows.allAlive).foreach(s => assert(s <= agg.ubSup(r - 1)))
          }
        }
      }
    }
  }

  test("σ_z(hop(v,r)) upper-bounds σ(g) for every seed community g in the ball (Lemma 4 basis)") {
    forAllN2(Gen.chooseNum(6, 16), Gen.chooseNum(1, 40), n = 50) { (n, seed) =>
      val g = TestGraphs.random(n, 0.4, seed = seed.toLong)
      val inc = TestGraphs.localIncSup(g)
      val query = Array(0, 1)
      (0 until n).foreach { v =>
        val agg = Precompute.localVertexRef(g, inc, v, 2, grid).agg
        (1 to 2).foreach { r =>
          SeedExtract.extract(g, v, r, 3, query).foreach { community =>
            grid.zipWithIndex.foreach { case (tz, z) =>
              val actual = MIA.sigma(g, community.vertices, tz)
              assert(agg.sigmas(r - 1)(z) >= actual,
                s"σ bound violated: v=$v r=$r θ_z=$tz bound=${agg.sigmas(r - 1)(z)} actual=$actual")
            }
          }
        }
      }
    }
  }

  test("σ_z equals σ of the full ball as seed (definition of the bound)") {
    forAllN2(Gen.chooseNum(5, 14), Gen.chooseNum(1, 30), n = 30) { (n, seed) =>
      val g = TestGraphs.random(n, 0.35, seed = seed.toLong)
      val inc = TestGraphs.localIncSup(g)
      (0 until n).foreach { v =>
        val dist = TestGraphs.refDist(g, v)
        val agg = Precompute.localVertexRef(g, inc, v, 2, grid).agg
        (1 to 2).foreach { r =>
          val ball = dist.collect { case (u, d) if d <= r => u }.toArray
          grid.zipWithIndex.foreach { case (tz, z) =>
            assert(agg.sigmas(r - 1)(z) == MIA.sigma(g, ball, tz))
          }
        }
      }
    }
  }

  test("σ_z grid is antitone in z") {
    forAllN2(Gen.chooseNum(5, 20), Gen.chooseNum(1, 20), n = 20) { (n, seed) =>
      val g = TestGraphs.random(n, 0.3, seed = seed.toLong)
      val inc = TestGraphs.localIncSup(g)
      (0 until n).foreach { v =>
        Precompute.localVertexRef(g, inc, v, 3, grid).agg.sigmas.foreach { sigmas =>
          sigmas.sliding(2).foreach(p => if (p.length == 2) assert(p(0) >= p(1)))
        }
      }
    }
  }

  test("aggregates are monotone in r (bigger ball, bigger bounds)") {
    forAllN2(Gen.chooseNum(5, 20), Gen.chooseNum(1, 20), n = 20) { (n, seed) =>
      val g = TestGraphs.random(n, 0.3, seed = seed.toLong)
      val inc = TestGraphs.localIncSup(g)
      (0 until n).foreach { v =>
        val agg = Precompute.localVertexRef(g, inc, v, 3, grid).agg
        assert(agg.rMax == 3)
        (1 until 3).foreach { i =>
          // radius i (index i − 1) against radius i + 1 (index i)
          assert((agg.bv(i - 1) | agg.bv(i)) == agg.bv(i))
          assert(agg.ubSup(i) >= agg.ubSup(i - 1))
          agg.sigmas(i - 1).zip(agg.sigmas(i)).foreach { case (x, y) => assert(y >= x) }
        }
      }
    }
  }
}
