package repro.exp

import repro.exp.Experiments._

/** Plain-text table rendering shared by the job dispatcher and the bench
  * suites, so the rows the paper reports in Figures 2–6 / Tables II–III
  * appear as aligned text on stdout. Each figure's title, header and row
  * format is defined once here.
  */
object Tables {

  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def show(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit =
    println(render(title, header, rows) + "\n")

  def ms(v: Double): String = f"$v%.1f"
  def d2(v: Double): String = f"$v%.2f"
  def pct(v: Double): String = f"${v * 100}%.3f%%"

  // ---- one table per paper table/figure ------------------------------------

  def tableII(rows: Seq[DatasetRow]): Unit =
    show("Table II: dataset statistics (paper: DBLP 317K/1.05M, Amazon 335K/926K)",
      Seq("graph", "|V(G)|", "|E(G)|", "|E|/|V|"),
      rows.map(r => Seq(r.name, r.nV.toString, r.nE.toString, d2(r.nE.toDouble / r.nV))))

  def fig2(rows: Seq[Fig2Row]): Unit =
    show("Fig 2: TopL-ICDE vs ATindex, online wall clock (paper: >10x on every graph)",
      Seq("graph", "TopL ms", "TopL ms, no K_Q", "ATindex offline ms", "ATindex online ms",
        "refined, no K_Q", "ATindex refined", "speedup x, no K_Q"),
      rows.map(r => Seq(r.graph, ms(r.topLMs), ms(r.topLNoKQMs), ms(r.atOfflineMs), ms(r.atOnlineMs),
        r.noKQRefined.toString, r.atRefined.toString, d2(r.speedup))))

  def fig3Fixed(rows: Seq[SweepRow]): Unit =
    sweep("Fig 3(a-e): theta/|Q|/k/r/L sweeps (paper: 2.44-10.83 s at 50K; low sensitivity except r)", rows)

  def fig3Regen(rows: Seq[SweepRow]): Unit =
    sweep("Fig 3(f-g): |v.W| and |Sigma| sweeps (paper: 0.73-5.94 s; humped in |v.W| and |Sigma|)", rows)

  private def sweep(title: String, rows: Seq[SweepRow]): Unit =
    show(title, Seq("graph", "param", "value", "wall ms", "answers"),
      rows.map(r => Seq(r.graph, r.param, r.value, ms(r.ms), r.answers.toString)))

  def fig3h(rows: Seq[ScaleRow]): Unit =
    show("Fig 3(h): scalability in |V| (paper: 0.51 s @10K -> 255.62 s @1M, smooth growth)",
      Seq("graph", "|V|", "offline ms", "online ms", "answers"),
      rows.map(r => Seq(r.graph, r.n.toString, ms(r.offlineMs), ms(r.onlineMs), r.answers.toString)))

  def fig4(rows: Seq[AblationRow]): Unit =
    show("Fig 4: pruning ablation (paper: ~10x more pruned per added strategy)",
      Seq("graph", "pruning", "pruned", "refined", "wall ms"),
      rows.map(r => Seq(r.graph, r.config, r.pruned.toString, r.refined.toString, ms(r.ms))))

  def fig5(rows: Seq[CaseStudyRow]): Unit =
    show("Fig 5: case study, TopL-ICDE vs k-core (paper: truss sigma=344.31/974 influenced vs 4-core 239.81/646)",
      Seq("method", "center", "|V(g)|", "sigma", "influenced users"),
      rows.map(r => Seq(r.method, r.center.toString, r.communitySize.toString, d2(r.sigma), r.influenced.toString)))

  def fig6a(rows: Seq[Fig6Row]): Unit =
    selectors("Fig 6(a): selectors at defaults (paper: WP >= 1000x faster than Optimal)", rows)

  def fig6bc(rows: Seq[Fig6Row]): Unit =
    selectors("Fig 6(b,c): L and n sweeps (paper: 2.72-6.39 s over L; 2.72-6.28 s over n, mild growth)", rows)

  def fig6e(rows: Seq[Fig6Row]): Unit =
    selectors("Fig 6(e): accuracy vs Optimal at |V|=1K (paper: accuracy 99.863%-100%)", rows)

  private def selectors(title: String, rows: Seq[Fig6Row]): Unit =
    show(title,
      Seq("graph", "param", "value", "WP us", "WoP us", "Opt ms", "WP score", "Opt score", "accuracy"),
      rows.map(r => Seq(r.graph, r.param, r.value, ms(r.wpMs * 1000), ms(r.wopMs * 1000), ms(r.optMs),
        d2(r.wpScore), d2(r.optScore), pct(r.accuracy))))

  def fig6d(rows: Seq[Fig6Row]): Unit =
    show("Fig 6(d): DTopL scalability in |V| (paper: 0.9 s @10K -> 278.18 s @1M, smooth growth)",
      Seq("graph", "|V|", "DTopL online ms", "D(S)"),
      rows.map(r => Seq(r.graph, r.value, ms(r.wpMs), d2(r.wpScore))))
}
