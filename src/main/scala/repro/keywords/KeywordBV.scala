package repro.keywords

/** Keyword bit vectors (paper §V-A).
  *
  * Every vertex keyword set `v.W` is hashed into a fixed-width bit vector
  * `v.BV`; a query keyword set `Q` hashes the same way into `Q.BV`. The
  * index stores bit-OR aggregates of these vectors over r-hop balls and
  * subtrees, and keyword pruning (Lemmas 1/5) tests `BV ∧ Q.BV = 0`.
  *
  * We use B = 64 bits packed into one `Long`. Hash collisions only ever
  * *weaken* the filter (false positives), never produce false negatives,
  * so pruning stays safe for any keyword-domain size |Σ| — exact keyword
  * membership is always re-checked on the candidate itself.
  */
object KeywordBV {

  /** Hash one keyword to a bit position in [0, B). Keywords are modelled
    * as small integers drawn from the domain Σ = {0, …, |Σ|−1}; a
    * multiplicative mix keeps adjacent keywords off adjacent bits.
    */
  def bitOf(keyword: Int): Int = {
    val h = keyword * 0x9E3779B9 // Fibonacci hashing mix
    (h >>> 26) & 63              // top 6 bits -> [0, 64)
  }

  /** Hash a whole keyword set into its bit vector. */
  def hashSet(keywords: Iterable[Int]): Long = {
    var bv = 0L
    val it = keywords.iterator
    while (it.hasNext) bv |= 1L << bitOf(it.next())
    bv
  }

  /** True iff the filter admits a possible non-empty intersection.
    * `false` means the keyword sets *provably* do not intersect.
    */
  def mayIntersect(bv: Long, queryBv: Long): Boolean = (bv & queryBv) != 0L
}
