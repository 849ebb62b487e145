package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PruneStats
import repro.exp.Experiments

class HelpersSpec extends AnyFunSuite {

  private def key(r: Request): (String, Seq[Int]) = (r.describe, r.query.keywords.toSeq)

  test("query mixes are deterministic for a seed and differ across seeds") {
    Seq(QueryMix.TopLDeck, QueryMix.DTopLDeck).map(d => QueryMix.request(d, _: Long, _: Int)).foreach { mix =>
      val a = (0 until 200).map(i => key(mix(42L, i)))
      val b = (0 until 200).map(i => key(mix(42L, i)))
      val c = (0 until 200).map(i => key(mix(43L, i)))
      assert(a == b)
      assert(a != c)
      // a request depends on its index only, not on which requests came before
      assert(key(mix(42L, 150)) == a(150))
    }
  }

  test("a TopL request moves at most one parameter off the Table III defaults") {
    (0 until 500).map(QueryMix.request(QueryMix.TopLDeck, 7L, _)).foreach { r =>
      val q = r.query
      val moved = Seq(
        q.theta != Experiments.DefaultTheta,
        q.keywords.length != Experiments.DefaultQSize,
        q.k != Experiments.DefaultK,
        q.r != Experiments.DefaultR,
        q.L != Experiments.DefaultL).count(identity)
      assert(moved <= 1, r.describe)
      assert(r.n.isEmpty)
    }
  }

  test("every deck of a stream holds each parameter setting once") {
    def settings(r: Request) = (r.query.theta, r.query.keywords.length, r.query.k, r.query.r, r.query.L, r.n)
    Seq(QueryMix.TopLDeck, QueryMix.DTopLDeck).foreach { deck =>
      val size = deck.length
      val decks = (0 until 3 * size).map(i => settings(QueryMix.request(deck, 5L, i))).grouped(size).toSeq
      decks.foreach(d => assert(d.distinct.length == size))
      assert(decks.map(_.toSet).distinct.length == 1)
      assert(decks(0) != decks(1)) // each deck is shuffled on its own
    }
    assert(QueryMix.TopLDeck.length == 15)
    val dtopl = (0 until 25).map(QueryMix.request(QueryMix.DTopLDeck, 5L, _))
    assert(dtopl.map(r => (r.query.L, r.n.get)).toSet == (for (l <- QueryMix.Ls; n <- QueryMix.Ns) yield (l, n)).toSet)
    assert(dtopl.forall(r => r.query.k == Experiments.DefaultK && r.query.r == Experiments.DefaultR))
  }

  test("the tail percentile is the highest with at least ten samples beyond it") {
    def ms(n: Int) = (1 to n).map(_.toDouble)
    assert(Stats.tail(ms(100)).contains(Stats.Tail(90.0, 90.0, 10, 100)))
    assert(Stats.tail(ms(99)).map(_.p).contains(75.0)) // p90 leaves only 9 beyond
    assert(Stats.tail(ms(1000)).contains(Stats.Tail(99.0, 990.0, 10, 1000)))
    assert(Stats.tail(ms(10)).isEmpty)
    assert(Stats.tail(ms(100).reverse).map(_.value).contains(90.0))
    assert(Stats.median(ms(5)) == 3.0)
  }

  test("PruneStats-derived ratios report their base") {
    def stats(refined: Long, none: Long, dup: Long): PruneStats = {
      val s = new PruneStats
      s.refined = refined; s.noCommunity = none; s.duplicates = dup
      s.entriesScorePruned = 4; s.vertexScorePruned = 1
      s
    }
    val t = Stats.pruneTotals(Seq(stats(10, 3, 2), stats(6, 1, 0)))
    assert(t.usefulRefine == Stats.Ratio(10.0 / 16, 16, "core.refined"))
    assert(t.scored == 10)
    assert(t.perQuery(t.prunedScore) == 5.0)
    assert(Stats.pruneTotals(Seq(stats(0, 0, 0))).usefulRefine == Stats.Ratio(0.0, 0, "core.refined"))
  }
}
