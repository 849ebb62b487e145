package repro.bench

import repro.SparkSpec
import repro.exp.{Experiments, Tables}

/** Fig. 2 — TopL-ICDE vs ATindex online wall clock at default parameters.
  *
  * Paper: TopL-ICDE beats ATindex by more than one order of magnitude on
  * every graph (their DBLP ATindex time is extrapolated from a 0.5% center
  * sample; our scale lets us run ATindex fully).
  */
class Fig2TopLvsATindexBench extends SparkSpec {

  test("Fig 2: TopL-ICDE vs ATindex") {
    val rows = Experiments.fig2(spark)
    Tables.fig2(rows)
    rows.foreach { r =>
      assert(r.topLMs > 0 && r.topLNoKQMs > 0 && r.atOnlineMs > 0)
      assert(r.speedup > 1.0, s"${r.graph}: index+pruning must beat ATindex (got ${r.speedup}x)")
      // the same ordering in work that repeats exactly, apart from the
      // machine's speed: Alg. 3 refines fewer centers than ATindex extracts
      assert(r.noKQRefined < r.atRefined, s"${r.graph}: refined ${r.noKQRefined} vs ATindex's ${r.atRefined}")
    }
    // Paper reports >10x at 50K-317K vertices; at our 10K-20K scale, with a
    // JVM baseline sharing the same fast extraction kernel, the gap is
    // attenuated (2-4x) but the ordering holds on every graph — see
    // EXPERIMENTS.md for the scale discussion.
    assert(rows.map(_.speedup).max > 2.0, "expected a clear win on at least one graph")
  }
}
