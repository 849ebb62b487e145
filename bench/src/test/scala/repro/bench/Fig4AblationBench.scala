package repro.bench

import repro.SparkSpec
import repro.exp.{Experiments, Tables}

/** Fig. 4 — pruning ablation: candidates pruned and wall clock for
  * keyword-only, keyword+support, keyword+support+score (the paper's rows,
  * trussness certificate off), and the three plus the certificate.
  *
  * Paper: each added strategy prunes about an order of magnitude more
  * candidates; the full stack yields the lowest time, with influential-
  * score pruning contributing the largest cut.
  */
class Fig4AblationBench extends SparkSpec {

  test("Fig 4: pruning ablation") {
    val rows = Experiments.fig4(spark)
    Tables.fig4(rows)
    rows.groupBy(_.graph).foreach { case (g, rs) =>
      val byCfg = rs.map(r => r.config -> r).toMap
      val kw = byCfg("keyword")
      val ks = byCfg("keyword+support")
      val all = byCfg("keyword+support+score")
      val cert = byCfg("keyword+support+score+certificate")
      // every candidate is either pruned or refined, in every config
      assert(rs.map(r => r.pruned + r.refined).distinct.size == 1,
        s"$g: pruned+refined must cover the same candidate universe")
      // more strategies => never fewer pruned, never more refined
      assert(ks.pruned >= kw.pruned, s"$g: support pruning lost candidates")
      assert(all.pruned >= ks.pruned, s"$g: score pruning lost candidates")
      assert(ks.refined <= kw.refined, s"$g")
      assert(all.refined <= ks.refined, s"$g")
      // the certificate only skips centers without a community
      assert(cert.refined <= all.refined, s"$g: the certificate refined more")
      assert(cert.answers == all.answers, s"$g: the certificate changed the answers")
    }
    // score pruning is the big contributor on at least some graphs (the
    // paper's key observation; keyword-saturated graphs can be flat)
    val improved = rows.groupBy(_.graph).count { case (_, rs) =>
      val byCfg = rs.map(r => r.config -> r).toMap
      byCfg("keyword+support+score").refined < byCfg("keyword").refined
    }
    assert(improved >= 2, s"score pruning should cut refinement on several graphs (got $improved)")
  }
}
