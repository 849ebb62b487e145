package repro.bench

import repro.SparkSpec
import repro.exp.{Experiments, Tables}

/** Table II — dataset statistics of every evaluated graph.
  *
  * Paper (real graphs): DBLP |V|=317,080 |E|=1,049,866 (|E|/|V| ≈ 3.31);
  * Amazon |V|=334,863 |E|=925,872 (|E|/|V| ≈ 2.77). Our stand-ins are
  * 20K-vertex generators with matched densities (see DESIGN.md).
  */
class TableIIDatasetStatsBench extends SparkSpec {

  test("Table II: dataset statistics") {
    val rows = Experiments.tableII(spark)
    Tables.tableII(rows)
    val byName = rows.map(r => r.name -> r).toMap
    // densities must bracket the paper's real graphs
    val dblp = byName("DBLP-like"); val amzn = byName("Amazon-like")
    assert(dblp.nV == Experiments.LikeN && amzn.nV == Experiments.LikeN)
    val dblpDensity = dblp.nE.toDouble / dblp.nV
    val amznDensity = amzn.nE.toDouble / amzn.nV
    assert(dblpDensity > 2.3 && dblpDensity < 4.3, s"DBLP-like density $dblpDensity (paper 3.31)")
    assert(amznDensity > 1.9 && amznDensity < 3.7, s"Amazon-like density $amznDensity (paper 2.77)")
    assert(dblpDensity > amznDensity, "DBLP denser than Amazon, as in Table II")
    // NWS graphs: |E| ≈ |V| · (m + m/2·μ) / ... ring 3n + shuffles
    Experiments.synthetic(spark, 100).map(_.name).foreach(n => assert(byName.contains(n)))
  }
}
