package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{Query, SeedExtract, TopLICDE}
import repro.influence.MIA

/** The per-thread kernel workspace: its BFS kernel, and a reused workspace
  * gives what a fresh one gives, across graphs of different sizes and
  * across the epoch wrap.
  */
class WorkspaceSpec extends AnyFunSuite {

  /** The vertices [[Workspace.ball]] reaches from `s` over every slot of
    * `rows`, with no depth limit, in BFS order with their distances.
    */
  private def reach(rows: repro.truss.Truss.Rows, s: Int): Seq[(Int, Int)] = {
    val ws = Workspace.of(rows.n)
    val size = ws.ball(rows, s, Int.MaxValue, rows.allAlive)
    ws.outIds.take(size).toSeq.zip(ws.outDist.take(size).toSeq)
  }

  test("ball reachability on a disconnected graph") {
    val rows = SocialGraph.fromEdges(6, Seq((0, 1), (1, 2), (3, 4))).rows
    assert(reach(rows, 0).map(_._1).toSet == Set(0, 1, 2))
    assert(reach(rows, 3).map(_._1).toSet == Set(3, 4))
    assert(reach(rows, 5).map(_._1).toSet == Set(5))
  }

  test("ball on a path graph") {
    val rows = SocialGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4))).rows
    assert(reach(rows, 0) == Seq(0 -> 0, 1 -> 1, 2 -> 2, 3 -> 3, 4 -> 4))
  }

  test("ball leaves unreachable vertices unstamped") {
    val rows = SocialGraph.fromEdges(4, Seq((0, 1))).rows
    assert(reach(rows, 0).map(_._1) == Seq(0, 1))
    val ws = Workspace.of(rows.n)
    assert(ws.inBall(0) && ws.inBall(1) && !ws.inBall(2) && !ws.inBall(3))
  }

  private val small = TestGraphs.random(12, 0.3, seed = 3L)
  private val big = TestGraphs.random(60, 0.1, seed = 4L)

  /** Interleaved kernel calls on both graphs, smaller graph first. */
  private val calls = Seq((small, 0), (big, 5), (small, 7), (big, 59), (small, 11), (big, 0), (small, 3))

  private val query = Query(Array(0, 1, 2, 3), 2, 2, 0.1, 1)

  /** The K_Q mask of each graph, built off the workspace. */
  private val kQ = Seq(small, big).map(g => g -> TopLICDE.keywordTruss(g, query)).toMap

  /** Everything the kernels return for one call. */
  private def run(g: GraphData, v: Int): Seq[Seq[Any]] = {
    val (ball, dist) = g.hopBall(v, 2)
    val cpp = MIA.influencedCpp(g, ball.take(3), 0.1)
    val (members, rows) = SeedExtract.trussBall(g, kQ(g), v, 2)
    val seed = SeedExtract.extract(g, v, query.r, query.k, query.keywords).map(_.vertices.toSeq)
    val seedInTruss = SeedExtract.extractInTruss(g, kQ(g), v, query.r, query.k, query.keywords).map(_.vertices.toSeq)
    Seq(ball.toSeq, dist.toSeq, cpp.ids.toSeq, cpp.probs.toSeq, members.toSeq, rows.offsets.toSeq, rows.neigh.toSeq,
      seed.toSeq, seedInTruss.toSeq)
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
    // the epochs all calls take on one workspace: every kernel call takes
    // one, a ball builder two, and each round of an extraction's fixpoint one
    Workspace.drop()
    val counted = Workspace.of(big.n)
    calls.foreach { case (g, v) => run(g, v) }
    val epochs = counted.epoch
    assert(epochs > 4 * calls.length, s"$epochs epochs: no extraction ran")
    // stamps of early epochs stay in the arrays: the wrap must clear them
    val ws = Workspace.of(big.n)
    ws.epoch = Int.MaxValue - 5
    assert(calls.map { case (g, v) => run(g, v) } == want)
    assert(Workspace.of(big.n) eq ws)
    // five epochs up to Int.MaxValue, then the wrap restarts the count at 1
    assert(ws.epoch == epochs - 5, "the epoch wrapped")
  }
}
