package repro.bench

import repro.SparkSpec
import repro.exp.{Experiments, Tables}

/** Fig. 6(d) — DTopL-ICDE scalability in |V| (paper: 0.9 s → 278.18 s for
  * 10K → 1M, smooth growth; ours sweeps 1K → 50K). Reuses the Fig. 3(h)
  * offline builds via the experiment cache.
  */
class Fig6dScalabilityBench extends SparkSpec {

  test("Fig 6(d): DTopL scalability in |V|") {
    val rows = Experiments.fig6d(spark)
    Tables.fig6d(rows)
    assert(rows.size == Experiments.ScaleSweep.size)
    rows.foreach(r => assert(r.wpScore > 0, s"|V|=${r.value}: empty diversified answer"))
    // no cliff: largest-vs-smallest online cost ratio stays bounded
    val ratio = rows.last.wpMs / math.max(rows.head.wpMs, 1.0)
    assert(ratio < 500.0, s"online cost exploded: $ratio")
  }
}
