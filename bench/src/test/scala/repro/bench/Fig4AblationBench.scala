package repro.bench

import repro.SparkSpec
import repro.core.Pruning
import repro.exp.{Experiments, Tables}

/** Fig. 4 — pruning ablation: candidates pruned and wall clock on each
  * rung of the pruning ladder: keyword-only, keyword+support,
  * keyword+support+score (the paper's rows), and the three plus the
  * keyword-truss (K_Q) gate.
  *
  * Paper: each added strategy prunes about an order of magnitude more
  * candidates; the full stack yields the lowest time, with influential-
  * score pruning contributing the largest cut.
  */
class Fig4AblationBench extends SparkSpec {

  test("Fig 4: pruning ablation") {
    val rows = Experiments.fig4(spark)
    Tables.fig4(rows)
    val byGraph = rows.groupBy(_.graph).map { case (g, rs) =>
      assert(rs.map(_.config) == Pruning.ladder.map(_.label), s"$g: one row per rung, bottom up")
      g -> Pruning.ladder.zip(rs).toMap
    }
    byGraph.foreach { case (g, at) =>
      // every candidate is either pruned or refined, on every rung
      assert(at.values.map(r => r.pruned + r.refined).toSet.size == 1,
        s"$g: pruned+refined must cover the same candidate universe")
      // one more strategy => never fewer pruned, never more refined
      Pruning.ladder.sliding(2).foreach { case Seq(lower, upper) =>
        assert(at(upper).pruned >= at(lower).pruned, s"$g: ${upper.label} lost candidates")
        assert(at(upper).refined <= at(lower).refined, s"$g: ${upper.label} refined more")
      }
      // the K_Q gate only skips centers without a community
      assert(at(Pruning.KeywordTruss).answers == at(Pruning.Score).answers,
        s"$g: the K_Q gate changed the answers")
    }
    // score pruning is the big contributor on at least some graphs (the
    // paper's key observation; keyword-saturated graphs can be flat)
    val improved = byGraph.values.count(at => at(Pruning.Score).refined < at(Pruning.Keyword).refined)
    assert(improved >= 2, s"score pruning should cut refinement on several graphs (got $improved)")
  }
}
