package repro.bench

import repro.SparkSpec
import repro.exp.{Experiments, Tables}

/** Fig. 3(a)–(g) — robustness of the TopL-ICDE online phase to θ, |Q|, k,
  * r, L, |v.W| and |Σ| on the three synthetic graphs.
  *
  * Paper: wall clock stays within single-digit seconds across all sweeps
  * (0.71–10.83 s at |V|=50K); r is the most sensitive parameter (bigger
  * balls to refine), |Q| below 5 can yield < L answers.
  */
class Fig3SweepsBench extends SparkSpec {

  test("Fig 3(a-e): theta, |Q|, k, r, L sweeps on fixed graphs") {
    val rows = Experiments.fig3Fixed(spark)
    Tables.fig3Fixed(rows)
    assert(rows.nonEmpty)
    rows.foreach(r => assert(r.ms >= 0 && r.answers >= 0))
    // r is the dominant cost driver: r=3 costs more than r=1 on every graph
    rows.groupBy(_.graph).foreach { case (g, rs) =>
      val byR = rs.filter(_.param == "r").map(r => r.value.toInt -> r.ms).toMap
      assert(byR(3) > byR(1) * 0.8, s"$g: r=3 (${byR(3)}) should not be cheaper than r=1 (${byR(1)})")
    }
    // k = 5 yields few/no communities on NWS graphs (paper observed none)
    val k5 = rows.filter(r => r.param == "k" && r.value == "5")
    assert(k5.forall(_.answers <= Experiments.DefaultL))
  }

  test("Fig 3(f-g): |v.W| and |Sigma| sweeps on regenerated graphs") {
    val rows = Experiments.fig3Regen(spark)
    Tables.fig3Regen(rows)
    assert(rows.count(_.param == "|v.W|") == 15)
    assert(rows.count(_.param == "|Sigma|") == 12)
    // more keywords per vertex -> more eligible centers -> at least as many answers
    rows.filter(_.param == "|v.W|").groupBy(_.graph).foreach { case (_, rs) =>
      val byW = rs.map(r => r.value.toInt -> r.answers).toMap
      assert(byW(5) >= byW(1))
    }
  }
}
