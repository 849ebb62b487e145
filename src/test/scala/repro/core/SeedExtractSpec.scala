package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.SocialGraph
import repro.{MiniChecks, TestGraphs}

/** Seed-community extraction vs the four Def.-2 constraints. */
class SeedExtractSpec extends AnyFunSuite with MiniChecks {

  private val q0 = Array(0)

  test("whole clique extracted: K5, k=4, r=1") {
    val g = TestGraphs.clique(5)
    assert(SeedExtract.extract(g, 0, 1, 4, q0).get.vertices.toSeq == Seq(0, 1, 2, 3, 4))
  }

  test("K5 has no 6-truss community") {
    val g = TestGraphs.clique(5)
    assert(SeedExtract.extract(g, 0, 1, 6, q0).isEmpty)
  }

  test("center without a query keyword yields None (Def. 2 bullet 4)") {
    val g = TestGraphs.clique(5)
    assert(SeedExtract.extract(g, 0, 1, 3, Array(99)).isEmpty)
  }

  test("vertices without query keywords are excluded") {
    // K5 where vertex 4 has keyword 1 instead of 0
    val edges = for { u <- 0 until 5; v <- (u + 1) until 5 } yield (u, v)
    val g = SocialGraph.fromEdges(5, edges,
      keywords = Map(0 -> Seq(0), 1 -> Seq(0), 2 -> Seq(0), 3 -> Seq(0), 4 -> Seq(1)))
    assert(SeedExtract.extract(g, 0, 1, 4, q0).get.vertices.toSeq == Seq(0, 1, 2, 3))
  }

  test("bowtie: 3-truss around center 0 is both triangles, pendant dropped") {
    val g = TestGraphs.bowtie()
    assert(SeedExtract.extract(g, 0, 2, 3, q0).get.vertices.toSeq == Seq(0, 1, 2, 3))
  }

  test("bowtie: radius 1 drops vertex 3 (and trussness survives)") {
    val g = TestGraphs.bowtie()
    assert(SeedExtract.extract(g, 0, 1, 3, q0).get.vertices.toSeq == Seq(0, 1, 2))
  }

  test("bowtie: k=4 impossible") {
    val g = TestGraphs.bowtie()
    assert(SeedExtract.extract(g, 0, 2, 4, q0).isEmpty)
  }

  test("radius measured inside g, not G (Def. 2 dist is within the subgraph)") {
    // 0-1-2 short path via keyword-less vertex 1; long path 0-3-4-2.
    val g = SocialGraph.fromEdges(5, Seq((0, 1), (1, 2), (0, 3), (3, 4), (4, 2)),
      keywords = Map(0 -> Seq(0), 1 -> Seq(7), 2 -> Seq(0), 3 -> Seq(0), 4 -> Seq(0)))
    // dist_G(0,2) = 2 but inside g (without vertex 1) it is 3 > r = 2.
    val res = SeedExtract.extract(g, 0, 2, 2, q0).get.vertices.toSeq
    assert(!res.contains(2))
    assert(res.contains(3) && res.contains(4))
  }

  test("k<=2: connected keyword component within radius") {
    val g = SocialGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)),
      keywords = Map(0 -> Seq(0), 1 -> Seq(0), 2 -> Seq(1), 3 -> Seq(0)))
    // vertex 2 lacks keyword 0, so 3 is unreachable inside g.
    assert(SeedExtract.extract(g, 0, 3, 2, q0).get.vertices.toSeq == Seq(0, 1))
  }

  test("k>=3 with an edgeless center yields None, not a singleton") {
    val g = SocialGraph.fromEdges(3, Seq((1, 2)), keywords = Map(0 -> Seq(0), 1 -> Seq(0), 2 -> Seq(0)))
    assert(SeedExtract.extract(g, 0, 2, 3, q0).isEmpty)
  }

  test("property: every extracted community satisfies all Def.-2 constraints") {
    val gen = Gen.zip(Gen.chooseNum(6, 22), Gen.chooseNum(1, 40), Gen.chooseNum(3, 5), Gen.chooseNum(1, 3))
    forAllN(gen, n = 120) { case (n, seed, k, r) =>
      val g = TestGraphs.random(n, 0.35, sigma = 4, kwPerVertex = 2, seed = seed.toLong)
      val query = Array(0, 1)
      (0 until n).foreach { c =>
        SeedExtract.extract(g, c, r, k, query).foreach { community =>
          val members = community.vertices
          assert(members.contains(c), "center included")
          assert(members.sameElements(members.sorted), "sorted output")
          members.foreach(v => assert(g.matchesQuery(v, query), s"keyword constraint at $v"))
          // the community SUBGRAPH (its own edge set, the maximal k-truss
          // of the induced graph, not the induced graph itself)
          val local = members.zipWithIndex.toMap
          val edges = TestGraphs.seedEdges(g, members, k)
          edges.foreach { case (u, v) =>
            assert(local.contains(u) && local.contains(v), "edge endpoints inside community")
            // every community edge is a real graph edge
            assert(TestGraphs.row(g, u).contains(v), s"phantom edge ($u,$v)")
          }
          val rows = SocialGraph.fromEdges(members.length, edges.map { case (u, v) => (local(u), local(v)) }).rows
          val adj = TestGraphs.adjOf(rows, rows.allAlive)
          assert(TestGraphs.isKTruss(adj, k), s"k-truss constraint, k=$k")
          // every member reached from the center within r over the community's edges
          val d = TestGraphs.bfs(local(c), adj(_))
          assert(d.size == members.length && d.values.forall(_ <= r), s"radius constraint r=$r")
        }
      }
    }
  }

  test("property: extraction is deterministic") {
    forAllN2(Gen.chooseNum(6, 15), Gen.chooseNum(1, 20), n = 30) { (n, seed) =>
      val g = TestGraphs.random(n, 0.4, seed = seed.toLong)
      (0 until n).foreach { c =>
        val a = SeedExtract.extract(g, c, 2, 3, Array(0, 1, 2))
        val b = SeedExtract.extract(g, c, 2, 3, Array(0, 1, 2))
        assert(a.map(_.vertices.toSeq) == b.map(_.vertices.toSeq))
      }
    }
  }

  test("property: extract equals the independent refSeed (vertices and edges)") {
    val gen = Gen.zip(Gen.chooseNum(6, 20), Gen.chooseNum(1, 40), Gen.chooseNum(2, 5), Gen.chooseNum(1, 3))
    forAllN(gen, n = 120) { case (n, seed, k, r) =>
      val g = TestGraphs.random(n, 0.35, sigma = 4, kwPerVertex = 2, seed = seed.toLong)
      val query = Array(0, 1)
      (0 until n).foreach { c =>
        val got = SeedExtract.extract(g, c, r, k, query)
        val want = TestGraphs.refSeed(g, c, r, k, query)
        assert(got.map(_.vertices.toSeq) == want.map(_.vertices.toSeq), s"vertices c=$c k=$k r=$r")
        assert(got.map(s => TestGraphs.seedEdges(g, s.vertices, k).toSeq) == want.map(_.edges.toSeq),
          s"edges c=$c k=$k r=$r")
      }
    }
  }

  test("filteredBall: sorted members, sorted symmetric rows of the induced subgraph") {
    forAllN2(Gen.chooseNum(6, 20), Gen.chooseNum(1, 30), n = 40) { (n, seed) =>
      val g = TestGraphs.random(n, 0.3, sigma = 4, seed = seed.toLong)
      val query = Array(0, 1)
      (0 until n).foreach { c =>
        val (global, rows) = SeedExtract.filteredBall(g, c, 2, query)
        val want = TestGraphs.refDist(g, c).collect { case (v, d) if d <= 2 && g.matchesQuery(v, query) => v }.toSet
        assert(global.toSeq == want.toSeq.sorted)
        val induced = TestGraphs.edgeSet(TestGraphs.adjOf(g)).filter { case (u, v) => want(u) && want(v) }
        val local = TestGraphs.edgeSet(TestGraphs.adjOf(rows, rows.allAlive)).map { case (u, v) => (global(u), global(v)) }
        assert(local == induced)
        (0 until rows.n).foreach { v =>
          val row = rows.neigh.slice(rows.offsets(v), rows.offsets(v + 1))
          assert(row.toSeq == row.sorted.toSeq)
        }
      }
    }
  }

  test("property: extraction from the K_Q ball equals extract and refSeed, on a smaller ball") {
    // Q is a random non-empty subset of the 5 keywords, as a bit mask
    val gen = Gen.zip(Gen.chooseNum(6, 24), Gen.chooseNum(1, 60), Gen.chooseNum(2, 5), Gen.chooseNum(1, 3),
      Gen.chooseNum(1, 31))
    var smaller = 0
    forAllN(gen, n = 150) { case (n, seed, k, r, bits) =>
      val g = TestGraphs.random(n, 0.35, sigma = 5, kwPerVertex = 2, seed = seed.toLong)
      val query = (0 until 5).filter(b => (bits >> b & 1) == 1).toArray
      val kQ = TopLICDE.keywordTruss(g, Query(query, k, r, 0.1, 1))
      (0 until n).foreach { c =>
        val got = SeedExtract.extractInTruss(g, kQ, c, r, k, query).map(_.vertices.toSeq)
        val clue = s"c=$c k=$k r=$r Q=${query.mkString(",")}"
        assert(got == SeedExtract.extract(g, c, r, k, query).map(_.vertices.toSeq), s"extract, $clue")
        assert(got == TestGraphs.refSeed(g, c, r, k, query).map(_.vertices.toSeq), s"refSeed, $clue")
        if (g.matchesQuery(c, query) &&
            SeedExtract.trussBall(g, kQ, c, r)._1.length < SeedExtract.filteredBall(g, c, r, query)._1.length)
          smaller += 1
      }
    }
    assert(smaller > 0, "no K_Q ball was smaller than its filtered ball")
  }

  test("trussBall: members within r over K_Q, sorted rows of the K_Q edges between them") {
    forAllN2(Gen.chooseNum(6, 20), Gen.chooseNum(1, 30), n = 40) { (n, seed) =>
      val g = TestGraphs.random(n, 0.4, sigma = 4, seed = seed.toLong)
      val kQ = TopLICDE.keywordTruss(g, Query(Array(0, 1), 3, 2, 0.1, 1))
      val kQEdges = (0 until n).flatMap(u => (g.offsets(u) until g.offsets(u + 1)).filter(kQ).map(i => (u, g.neigh(i))))
      val adj = kQEdges.groupMap(_._1)(_._2)
      (0 until n).foreach { c =>
        val (global, rows) = SeedExtract.trussBall(g, kQ, c, 2)
        val want = TestGraphs.bfs(c, adj.getOrElse(_, Nil), 2).keySet
        assert(global.toSeq == want.toSeq.sorted)
        val local = TestGraphs.edgeSet(TestGraphs.adjOf(rows, rows.allAlive)).map { case (u, v) => (global(u), global(v)) }
        assert(local == kQEdges.filter { case (u, v) => u < v && want(u) && want(v) }.toSet)
        (0 until rows.n).foreach { v =>
          val row = rows.neigh.slice(rows.offsets(v), rows.offsets(v + 1))
          assert(row.toSeq == row.sorted.toSeq)
        }
      }
    }
  }
}
