package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{Query, SeedExtract, TopLICDE}
import repro.influence.MIA

/** The per-thread kernel workspace: a reused workspace gives what a fresh
  * one gives, across graphs of different sizes and across the epoch wrap.
  */
class WorkspaceSpec extends AnyFunSuite {

  private val small = TestGraphs.random(12, 0.3, seed = 3L)
  private val big = TestGraphs.random(60, 0.1, seed = 4L)

  /** Interleaved kernel calls on both graphs, smaller graph first. */
  private val calls = Seq((small, 0), (big, 5), (small, 7), (big, 59), (small, 11), (big, 0), (small, 3))

  /** The K_Q mask of each graph, built off the workspace. */
  private val kQ = Seq(small, big).map(g => g -> TopLICDE.keywordTruss(g, Query(Array(0, 1, 2, 3), 2, 2, 0.1, 1))).toMap

  /** Everything the three kernels return for one call. */
  private def run(g: GraphData, v: Int): Seq[Seq[AnyVal]] = {
    val (ball, dist) = g.hopBall(v, 2)
    val cpp = MIA.influencedCpp(g, ball.take(3), 0.1)
    val (members, rows) = SeedExtract.trussBall(g, kQ(g), v, 2)
    Seq(ball.toSeq, dist.toSeq, cpp.ids.toSeq, cpp.probs.toSeq, members.toSeq, rows.offsets.toSeq, rows.neigh.toSeq)
  }

  private def fresh = calls.map { case (g, v) => Workspace.drop(); run(g, v) }

  test("reused workspace gives a fresh workspace's results when graphs of different n interleave") {
    val want = fresh
    Workspace.drop()
    assert(calls.map { case (g, v) => run(g, v) } == want)
    assert(Workspace.of(0).capacity == big.n)
  }

  test("results across the epoch wrap equal a fresh workspace's") {
    val want = fresh
    Workspace.drop()
    // stamps of early epochs stay in the arrays: the wrap must clear them
    assert(calls.map { case (g, v) => run(g, v) } == want)
    val ws = Workspace.of(big.n)
    ws.epoch = Int.MaxValue - 5
    assert(calls.map { case (g, v) => run(g, v) } == want)
    assert(Workspace.of(big.n) eq ws)
    // one epoch per kernel call, three kernels per call
    assert(ws.epoch > 0 && ws.epoch < 3 * calls.length, "the epoch wrapped")
  }
}
