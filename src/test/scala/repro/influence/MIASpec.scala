package repro.influence

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.SocialGraph
import repro.{MiniChecks, TestGraphs}

/** MIA model (upp/cpp/σ) vs exhaustive path enumeration. */
class MIASpec extends AnyFunSuite with MiniChecks {

  private val eps = 1e-12

  test("upp on a directed path multiplies weights (Eq. 1)") {
    val g = SocialGraph.fromEdges(3, Seq((0, 1), (1, 2)),
      directedWeights = Map((0, 1) -> 0.5, (1, 2) -> 0.6, (1, 0) -> 0.9, (2, 1) -> 0.9))
    val upp = TestGraphs.upp(g, 0)
    assert(math.abs(upp(1) - 0.5) < eps)
    assert(math.abs(upp(2) - 0.3) < eps)
  }

  test("upp picks the maximum-probability path (Eq. 2), not the shortest") {
    // direct edge 0→2 with 0.25; two-hop 0→1→2 with 0.6*0.6 = 0.36
    val g = SocialGraph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)),
      directedWeights = Map((0, 1) -> 0.6, (1, 2) -> 0.6, (0, 2) -> 0.25,
        (1, 0) -> 0.1, (2, 1) -> 0.1, (2, 0) -> 0.1))
    assert(math.abs(TestGraphs.upp(g, 0)(2) - 0.36) < eps)
  }

  test("upp is exact vs exhaustive path enumeration on random graphs") {
    forAllN2(Gen.chooseNum(3, 9), Gen.chooseNum(1, 30), n = 60) { (n, seed) =>
      val g = TestGraphs.random(n, 0.5, seed = seed.toLong)
      (0 until n).foreach { s =>
        val ref = TestGraphs.refUpp(g, s)
        val got = TestGraphs.upp(g, s)
        assert(got.keySet == ref.keySet, s"source $s reach mismatch")
        ref.foreach { case (v, p) => assert(math.abs(got(v) - p) < 1e-9, s"upp($s,$v)") }
      }
    }
  }

  test("cpp of seed members is exactly 1 (Eq. 4)") {
    forAllN2(Gen.chooseNum(4, 10), Gen.chooseNum(1, 20), n = 30) { (n, seed) =>
      val g = TestGraphs.random(n, 0.4, seed = seed.toLong)
      val seedSet = Array(0, 1 % n, 2 % n).distinct
      val cpp = TestGraphs.cppMap(MIA.influencedCpp(g, seedSet, 0.2))
      seedSet.foreach(s => assert(cpp(s) == 1.0))
    }
  }

  test("cpp(g,v) = max over seed members of upp(u,v)") {
    forAllN2(Gen.chooseNum(4, 9), Gen.chooseNum(1, 30), n = 40) { (n, seed) =>
      val g = TestGraphs.random(n, 0.5, seed = seed.toLong)
      val seedSet = Array(0, n / 2).distinct
      val cpp = TestGraphs.cppMap(MIA.influencedCpp(g, seedSet, 0.0))
      val upps = seedSet.map(TestGraphs.refUpp(g, _))
      (0 until n).foreach { v =>
        val expected = if (seedSet.contains(v)) 1.0
        else upps.map(_.getOrElse(v, 0.0)).max
        if (expected > 0.0)
          assert(math.abs(cpp.getOrElse(v, 0.0) - expected) < 1e-9, s"cpp(·,$v)")
        else assert(!cpp.contains(v))
      }
    }
  }

  test("influencedCpp honours the threshold: every cpp >= θ, none missing above θ") {
    forAllN3(Gen.chooseNum(4, 10), Gen.chooseNum(1, 20), Gen.oneOf(0.1, 0.2, 0.3), n = 40) {
      (n, seed, theta) =>
        val g = TestGraphs.random(n, 0.5, seed = seed.toLong)
        val cpp0 = TestGraphs.cppMap(MIA.influencedCpp(g, Array(0), 0.0)) // untruncated ground truth
        val cppT = TestGraphs.cppMap(MIA.influencedCpp(g, Array(0), theta))
        cppT.values.foreach(p => assert(p >= theta))
        cpp0.foreach { case (v, p) =>
          if (p >= theta) assert(math.abs(cppT(v) - p) < 1e-12, s"missing/wrong $v")
          else assert(!cppT.contains(v))
        }
    }
  }

  test("σ is monotone: larger seed set never decreases σ (the Alg. 2 bound argument)") {
    forAllN2(Gen.chooseNum(5, 10), Gen.chooseNum(1, 25), n = 40) { (n, seed) =>
      val g = TestGraphs.random(n, 0.4, seed = seed.toLong)
      val small = Array(0)
      val large = Array(0, 1, 2)
      Seq(0.1, 0.2, 0.3).foreach { theta =>
        assert(MIA.sigma(g, large, theta) >= MIA.sigma(g, small, theta))
      }
    }
  }

  test("σ is antitone in θ") {
    forAllN2(Gen.chooseNum(5, 10), Gen.chooseNum(1, 25), n = 30) { (n, seed) =>
      val g = TestGraphs.random(n, 0.4, seed = seed.toLong)
      val s1 = MIA.sigma(g, Array(0), 0.1)
      val s2 = MIA.sigma(g, Array(0), 0.2)
      val s3 = MIA.sigma(g, Array(0), 0.3)
      assert(s1 >= s2 && s2 >= s3)
    }
  }

  test("sigmaAt derived from a lower-θ expansion equals a fresh expansion (offline trick)") {
    forAllN2(Gen.chooseNum(5, 12), Gen.chooseNum(1, 25), n = 40) { (n, seed) =>
      val g = TestGraphs.random(n, 0.4, seed = seed.toLong)
      val cpp01 = MIA.influencedCpp(g, Array(0, 1), 0.1)
      Seq(0.1, 0.2, 0.3).foreach { tz =>
        val fresh = MIA.sigma(g, Array(0, 1), tz)
        assert(cpp01.sigmaAt(tz) == fresh, s"θ_z=$tz")
      }
    }
  }

  test("σ of an empty seed is 0; σ of a singleton includes its own 1.0") {
    val g = TestGraphs.bowtie()
    assert(MIA.sigma(g, Array.empty[Int], 0.2) == 0.0)
    assert(MIA.sigma(g, Array(4), 0.99) == 1.0)
  }

  test("σ counts seeds plus θ-reachable vertices on the bowtie") {
    val g = TestGraphs.bowtie() // all weights 0.5
    // seed {0}: neighbours 1,2 at 0.5; 3 at 0.25; 4 at 0.125
    val cpp = MIA.influencedCpp(g, Array(0), 0.2)
    assert(TestGraphs.cppMap(cpp).keySet == Set(0, 1, 2, 3))
    assert(math.abs(cpp.sigma - (1.0 + 0.5 + 0.5 + 0.25)) < 1e-12)
  }

  test("property: influencedCpp equals the reference expansion, probs non-increasing") {
    forAllN3(Gen.chooseNum(3, 14), Gen.chooseNum(1, 40), Gen.oneOf(0.0, 0.1, 0.2, 0.3), n = 80) {
      (n, seed, theta) =>
        val g = TestGraphs.random(n, 0.35, seed = seed.toLong)
        val rnd = new scala.util.Random(seed.toLong)
        val seedSet = Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(n))
        val got = MIA.influencedCpp(g, seedSet, theta)
        val want = TestGraphs.refCpp(g, seedSet, theta)
        assert(got.ids.distinct.length == got.size)
        assert(got.ids.toSet == want.keySet)
        got.ids.zip(got.probs).foreach { case (v, p) => assert(math.abs(p - want(v)) < 1e-12, s"cpp($v)") }
        got.probs.sliding(2).foreach(p => if (p.length == 2) assert(p(0) >= p(1), "settlement order"))
    }
  }

  test("property (float order): σ(g, θ) <= σ_z of the ball with no epsilon; sigmaAt is a fresh expansion bit for bit") {
    val grid = repro.index.Precompute.DefaultThetaGrid
    forAllN3(Gen.chooseNum(4, 16), Gen.chooseNum(1, 60), Gen.chooseNum(1, 3), n = 120) { (n, seed, r) =>
      val g = TestGraphs.random(n, 0.3, seed = seed.toLong)
      val rnd = new scala.util.Random(seed.toLong * 31 + r)
      val v = rnd.nextInt(n)
      val ball = g.hopBall(v, r)._1
      val ballCpp = MIA.influencedCpp(g, ball, grid.head)
      grid.foreach { tz =>
        val bound = ballCpp.sigmaAt(tz)
        assert(bound == MIA.sigma(g, ball, tz), s"θz=$tz")
        (0 until 5).foreach { _ =>
          val sub = ball.filter(_ => rnd.nextBoolean())
          val theta = if (rnd.nextBoolean()) tz else tz + rnd.nextDouble() * (0.6 - tz)
          val s = MIA.sigma(g, if (sub.isEmpty) ball.take(1) else sub, theta)
          assert(s <= bound, s"v=$v r=$r θz=$tz θ=$theta σ=$s bound=$bound")
        }
      }
    }
  }
}
