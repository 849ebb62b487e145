package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.{MiniChecks, TestGraphs}

import scala.util.Random

/** DTopL-ICDE selectors: lazy greedy (Alg. 4) vs naive greedy vs optimal,
  * plus the monotonicity/submodularity properties Lemma 9 relies on.
  */
class DTopLSpec extends AnyFunSuite with MiniChecks {

  /** Synthetic candidates with random cpp maps over a universe of users;
    * σ is the cpp sum, as `Community.scored` sets it, and `influenced`
    * returns the hand-made arrays.
    */
  private def candidates(m: Int, universe: Int, seed: Long): IndexedSeq[Community] = {
    val rnd = new Random(seed)
    (0 until m).map { i =>
      val nCov = 1 + rnd.nextInt(universe)
      community(i, (0 until nCov).map(_ => rnd.nextInt(universe) -> (0.2 + 0.8 * rnd.nextDouble())).toMap)
    }
  }

  private def community(center: Int, cpp: Map[Int, Double]): Community = {
    val c = TestGraphs.cppOf(cpp)
    Community(center, Array(center), c.sigma, () => c)
  }

  private def centers(r: DTopL.DResult): Seq[Int] = r.selected.map(_.center)

  test("diversity of a single community equals its σ") {
    candidates(5, 20, 1L).foreach { c =>
      assert(math.abs(DTopL.diversity(Seq(c)) - c.sigma) < 1e-12)
    }
  }

  test("diversity of disjoint communities is the sum of σ") {
    val a = community(0, Map(1 -> 0.4, 2 -> 0.5))
    val b = community(1, Map(3 -> 0.3, 4 -> 0.4))
    assert(math.abs(DTopL.diversity(Seq(a, b)) - 1.6) < 1e-12)
  }

  test("overlap counted once with the max cpp (Eq. 6)") {
    val a = community(0, Map(1 -> 0.4, 2 -> 0.5))
    val b = community(1, Map(1 -> 0.6, 3 -> 0.2))
    assert(math.abs(DTopL.diversity(Seq(a, b)) - (0.6 + 0.5 + 0.2)) < 1e-12)
  }

  test("property: D is monotone (S' ⊆ S ⇒ D(S') <= D(S))") {
    forAllN2(Gen.chooseNum(3, 10), Gen.chooseNum(1, 50), n = 50) { (m, seed) =>
      val cs = candidates(m, 30, seed.toLong)
      val rnd = new Random(seed.toLong + 1)
      val subset = cs.filter(_ => rnd.nextBoolean())
      assert(DTopL.diversity(subset) <= DTopL.diversity(cs) + 1e-12)
    }
  }

  test("property: D is submodular (ΔD_g(S') >= ΔD_g(S) for S' ⊆ S)") {
    forAllN2(Gen.chooseNum(4, 10), Gen.chooseNum(1, 50), n = 50) { (m, seed) =>
      val cs = candidates(m, 30, seed.toLong)
      val g = cs.last
      val s = cs.init
      val sPrime = s.take(s.length / 2)
      val d1 = DTopL.diversity(sPrime :+ g) - DTopL.diversity(sPrime)
      val d2 = DTopL.diversity(s :+ g) - DTopL.diversity(s)
      assert(d1 >= d2 - 1e-9)
    }
  }

  test("property: Greedy_WP and Greedy_WoP pick identical sets and scores") {
    forAllN3(Gen.chooseNum(3, 15), Gen.chooseNum(1, 60), Gen.chooseNum(1, 6), n = 80) { (m, seed, l) =>
      val cs = candidates(m, 25, seed.toLong)
      val wp = DTopL.greedyWP(cs, l)
      val wop = DTopL.greedyWoP(cs, l)
      assert(math.abs(wp.score - wop.score) < 1e-9,
        s"WP=${wp.score} WoP=${wop.score}")
      assert(centers(wp) == centers(wop), s"WP=${centers(wp)} WoP=${centers(wop)}")
    }
  }

  test("tied candidates: Greedy_WP picks what Greedy_WoP picks, smallest index first") {
    // duplicated candidates share one cpp array, so every ΔD ties within a
    // group: the pick order must follow the candidate index
    forAllN3(Gen.chooseNum(2, 6), Gen.chooseNum(1, 40), Gen.chooseNum(1, 8), n = 60) { (m, seed, l) =>
      val base = candidates(m, 12, seed.toLong)
      val rnd = new Random(seed.toLong + 7)
      val cs = (0 until 3 * m).map(j => base(rnd.nextInt(m)).copy(center = j))
      val wp = DTopL.greedyWP(cs, l)
      val wop = DTopL.greedyWoP(cs, l)
      assert(centers(wp) == centers(wop), s"WP=${centers(wp)} WoP=${centers(wop)}")
      assert(wp.score == wop.score)
    }
  }

  test("property: Greedy_WP does at most as many ΔD evaluations as Greedy_WoP") {
    forAllN3(Gen.chooseNum(4, 20), Gen.chooseNum(1, 40), Gen.chooseNum(2, 6), n = 40) { (m, seed, l) =>
      val cs = candidates(m, 25, seed.toLong)
      assert(DTopL.greedyWP(cs, l).incrementEvals <= DTopL.greedyWoP(cs, l).incrementEvals)
    }
  }

  test("property: greedy achieves >= (1 - 1/e) of the optimum (Lemma 10 core)") {
    val bound = 1.0 - 1.0 / math.E
    forAllN3(Gen.chooseNum(4, 10), Gen.chooseNum(1, 60), Gen.chooseNum(2, 4), n = 60) { (m, seed, l) =>
      val cs = candidates(m, 20, seed.toLong)
      val greedy = DTopL.greedyWP(cs, l).score
      val opt = DTopL.optimal(cs, l).score
      assert(greedy >= bound * opt - 1e-9, s"greedy=$greedy opt=$opt")
    }
  }

  test("optimal evaluates exactly C(m, L) subsets") {
    val cs = candidates(6, 15, 3L)
    assert(DTopL.optimal(cs, 3).incrementEvals == 20)
  }

  test("L >= |T| returns all candidates in every selector") {
    val cs = candidates(4, 10, 9L)
    Seq(DTopL.greedyWP(cs, 10), DTopL.greedyWoP(cs, 10), DTopL.optimal(cs, 10)).foreach { r =>
      assert(r.selected.size == 4)
      assert(math.abs(r.score - DTopL.diversity(cs)) < 1e-9)
    }
  }

  test("first greedy pick is the highest-σ candidate (ΔD_g(∅) = σ)") {
    forAllN2(Gen.chooseNum(3, 12), Gen.chooseNum(1, 40), n = 40) { (m, seed) =>
      val cs = candidates(m, 20, seed.toLong)
      val first = DTopL.greedyWP(cs, 1).selected.head
      assert(math.abs(first.sigma - cs.map(_.sigma).max) < 1e-12)
    }
  }

  test("empty candidate set yields empty result") {
    val r = DTopL.greedyWP(IndexedSeq.empty, 3)
    assert(r.selected.isEmpty && r.score == 0.0)
  }
}
