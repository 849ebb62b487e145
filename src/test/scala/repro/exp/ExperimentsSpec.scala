package repro.exp

import org.scalatest.funsuite.AnyFunSuite

/** The experiment harness itself: query construction, timing helpers, and
  * table rendering (what jobs/benches print).
  */
class ExperimentsSpec extends AnyFunSuite {

  test("query draws |Q| distinct keywords from Σ, deterministically") {
    val a = Experiments.query(qSize = 5, sigma = 20)
    val b = Experiments.query(qSize = 5, sigma = 20)
    assert(a.keywords.toSeq == b.keywords.toSeq)
    assert(a.keywords.distinct.length == 5)
    a.keywords.foreach(k => assert(k >= 0 && k < 20))
  }

  test("query honours every Table-III parameter") {
    val q = Experiments.query(qSize = 3, sigma = 50, k = 5, r = 3, theta = 0.3, l = 8)
    assert(q.keywords.length == 3 && q.k == 5 && q.r == 3 && q.theta == 0.3 && q.L == 8)
  }

  test("different seeds give different keyword draws") {
    val a = Experiments.query(seed = 1L)
    val b = Experiments.query(seed = 2L)
    assert(a.keywords.toSeq != b.keywords.toSeq)
  }

  test("medianMs returns the median of an odd number of runs") {
    var calls = 0
    val (_, ms) = Experiments.medianMs(3) { calls += 1; Thread.sleep(1) }
    assert(calls == 3 && ms >= 1.0)
  }

  test("defaults match the paper's Table III bold values") {
    assert(Experiments.DefaultTheta == 0.2)
    assert(Experiments.DefaultQSize == 5)
    assert(Experiments.DefaultK == 4)
    assert(Experiments.DefaultR == 2)
    assert(Experiments.DefaultL == 5)
    assert(Experiments.DefaultW == 3)
    assert(Experiments.DefaultSigmaDomain == 20)
    assert(Experiments.DefaultNDiv == 5)
    assert(Experiments.ThetaGrid.toSeq == Seq(0.1, 0.2, 0.3))
    import Experiments.TableIII._
    assert(Experiments.ThetaGrid.contains(Experiments.DefaultTheta))
    assert(QSizes.contains(Experiments.DefaultQSize))
    assert(Ks.contains(Experiments.DefaultK))
    assert(Rs.contains(Experiments.DefaultR))
    assert(Ls.contains(Experiments.DefaultL))
    assert(Ws.contains(Experiments.DefaultW))
    assert(SigmaDomains.contains(Experiments.DefaultSigmaDomain))
    assert(Ns.contains(Experiments.DefaultNDiv))
  }

  test("Tables.render aligns columns and includes every row") {
    val out = Tables.render("t", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = out.split("\n")
    assert(lines.head == "== t ==")
    assert(lines.drop(1).map(_.length).distinct.length == 1, "all table lines same width")
    assert(out.contains("333") && out.contains("bb"))
  }

  test("Tables formatters") {
    assert(Tables.ms(1234.56) == "1234.6")
    assert(Tables.d2(3.14159) == "3.14")
    assert(Tables.pct(0.99863) == "99.863%")
  }
}
