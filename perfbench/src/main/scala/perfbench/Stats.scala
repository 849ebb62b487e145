package perfbench

import repro.core.PruneStats

/** Summary statistics the benchmark reports. */
object Stats {

  /** The standard percentiles, highest first, that [[tail]] chooses from. */
  val Percentiles: Seq[Double] = Seq(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

  /** Nearest-rank index of percentile `p` in `n` sorted samples. */
  def rank(n: Int, p: Double): Int = {
    require(n >= 1 && p > 0.0 && p <= 100.0)
    math.max(0, math.ceil(p / 100.0 * n - 1e-9).toInt - 1)
  }

  /** Nearest-rank percentile `p` of the samples. */
  def percentile(samples: Seq[Double], p: Double): Double = {
    val sorted = samples.sorted
    sorted(rank(sorted.length, p))
  }

  def median(samples: Seq[Double]): Double = percentile(samples, 50.0)

  def mean(samples: Seq[Double]): Double =
    if (samples.isEmpty) 0.0 else samples.sum / samples.length

  /** Samples that lie strictly beyond the nearest-rank percentile `p`. */
  def beyond(n: Int, p: Double): Int = n - 1 - rank(n, p)

  /** A percentile together with the number of samples beyond it. */
  final case class Tail(p: Double, value: Double, beyond: Int, samples: Int)

  /** The highest of [[Percentiles]] that leaves at least `minBeyond`
    * samples beyond it, or None when even the median does not.
    */
  def tail(samples: Seq[Double], minBeyond: Int = 10): Option[Tail] =
    if (samples.isEmpty) None
    else Percentiles.find(p => beyond(samples.length, p) >= minBeyond)
      .map(p => Tail(p, percentile(samples, p), beyond(samples.length, p), samples.length))

  /** A ratio and the count it was taken over, so a reader can weigh it. */
  final case class Ratio(value: Double, base: Long, baseName: String)

  /** `PruneStats` summed over the queries of one run. */
  final case class PruneTotals(
      queries: Int,
      refined: Long,
      noCommunity: Long,
      duplicates: Long,
      prunedKeyword: Long,
      prunedSupport: Long,
      prunedScore: Long,
      heapTerminated: Long) {

    /** Refined candidates that produced a new community and were scored by
      * MIA: refined − noCommunity − duplicates.
      */
    def scored: Long = refined - noCommunity - duplicates

    /** Share of refinements that produced a new scored community; its base
      * is the number of refined candidates.
      */
    def usefulRefine: Ratio =
      Ratio(if (refined == 0) 0.0 else scored.toDouble / refined, refined, "core.refined")

    def perQuery(count: Long): Double = if (queries == 0) 0.0 else count.toDouble / queries
  }

  def pruneTotals(stats: Seq[PruneStats]): PruneTotals = PruneTotals(
    stats.length,
    stats.map(_.refined).sum,
    stats.map(_.noCommunity).sum,
    stats.map(_.duplicates).sum,
    stats.map(s => s.entriesKeywordPruned + s.vertexKeywordPruned).sum,
    stats.map(s => s.entriesSupportPruned + s.vertexSupportPruned).sum,
    stats.map(s => s.entriesScorePruned + s.vertexScorePruned).sum,
    stats.map(_.heapTerminated).sum)
}
