package repro

import repro.graph.{GraphData, SocialGraph}
import repro.influence.MIA
import repro.truss.Truss

import scala.collection.mutable
import scala.util.Random

/** Shared fixtures and independent reference implementations used to
  * validate the production algorithms. References are deliberately naive
  * (from-scratch recomputation, exhaustive enumeration) so they share no
  * code path with the implementations under test.
  */
object TestGraphs {

  /** Deterministic Erdős–Rényi-ish random graph with random keyword sets
    * and Uniform[0.5, 0.6) per-direction weights.
    */
  def random(
      n: Int,
      edgeProb: Double,
      sigma: Int = 8,
      kwPerVertex: Int = 2,
      seed: Long = 1L): GraphData = {
    val rnd = new Random(seed)
    val edges = for {
      u <- 0 until n
      v <- (u + 1) until n
      if rnd.nextDouble() < edgeProb
    } yield (u, v)
    val dw = edges.flatMap { case (u, v) =>
      Seq((u, v) -> (0.5 + 0.1 * rnd.nextDouble()), (v, u) -> (0.5 + 0.1 * rnd.nextDouble()))
    }.toMap
    val kws = (0 until n).map { v =>
      v -> Seq.fill(kwPerVertex)(rnd.nextInt(sigma)).distinct
    }.toMap
    SocialGraph.fromEdges(n, edges, kws, directedWeights = dw)
  }

  /** A small hand graph: two triangles sharing an edge plus a pendant.
    *
    * 0-1, 0-2, 1-2, 1-3, 2-3, 3-4 — edge (1,2) is in 2 triangles.
    */
  def bowtie(): GraphData =
    SocialGraph.fromEdges(5, Seq((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)),
      keywords = (0 until 5).map(v => v -> Seq(0)).toMap)

  /** Complete graph K_n, all weights w, all vertices keyword {0}. */
  def clique(n: Int, w: Double = 0.5): GraphData =
    SocialGraph.fromEdges(n,
      for { u <- 0 until n; v <- (u + 1) until n } yield (u, v),
      keywords = (0 until n).map(v => v -> Seq(0)).toMap, w = w)

  /** The reference graph form: one mutable neighbour set per vertex
    * (symmetric, no self loops). `src/main` runs on sorted rows
    * ([[Truss.Rows]]); the references below run on these sets.
    */
  type Adj = Array[mutable.HashSet[Int]]

  /** The neighbours of v in g: its sorted CSR row. */
  def row(g: GraphData, v: Int): Array[Int] = g.neigh.slice(g.offsets(v), g.offsets(v + 1))

  /** Adjacency sets of the undirected structure of g. */
  def adjOf(g: GraphData): Adj = Array.tabulate(g.n)(v => mutable.HashSet.from(row(g, v)))

  /** Adjacency sets of the alive edges of `rows`. */
  def adjOf(rows: Truss.Rows, alive: Array[Boolean]): Adj =
    Array.tabulate(rows.n)(v =>
      mutable.HashSet.from((rows.offsets(v) until rows.offsets(v + 1)).filter(alive(_)).map(rows.neigh(_))))

  /** Undirected canonical edge set of an adjacency structure. */
  def edgeSet(adj: Adj): Set[(Int, Int)] =
    (for { u <- adj.indices; v <- adj(u); if u < v } yield (u, v)).toSet

  /** Every slot of `rows` as (row owner, neighbour) → `vals(slot)`. */
  def bySlot(rows: Truss.Rows, vals: Array[Int]): Map[(Int, Int), Int] =
    (for { u <- 0 until rows.n; i <- rows.offsets(u) until rows.offsets(u + 1) } yield (u, rows.neigh(i)) -> vals(i)).toMap

  /** A per-edge map (canonical u < v keys) stated for both directions. */
  def bothWays(m: Map[(Int, Int), Int]): Map[(Int, Int), Int] = m ++ m.map { case ((u, v), x) => (v, u) -> x }

  /** Reference supports: |N(u) ∩ N(v)| by set intersection, per canonical edge. */
  def refSupports(adj: Adj): Map[(Int, Int), Int] =
    (for { u <- adj.indices; v <- adj(u); if u < v } yield (u, v) -> (adj(u) & adj(v)).size).toMap

  /** Does every edge have support ≥ k−2? */
  def isKTruss(adj: Adj, k: Int): Boolean = refSupports(adj).values.forall(_ >= k - 2)

  /** Reference maximal k-truss: recompute ALL supports from scratch and
    * delete every under-supported edge, repeat to fixpoint.
    */
  def refKTruss(adjIn: Adj, k: Int): Adj = {
    val adj = adjIn.map(_.clone())
    var changed = true
    while (changed) {
      changed = false
      val bad = for {
        u <- adj.indices
        v <- adj(u).toSeq
        if u < v && (adj(u) & adj(v)).size < k - 2
      } yield (u, v)
      if (bad.nonEmpty) {
        changed = true
        bad.foreach { case (u, v) => adj(u) -= v; adj(v) -= u }
      }
    }
    adj
  }

  /** Reference trussness: the largest k whose [[refKTruss]] keeps the edge. */
  def refTrussness(adj: Adj): Map[(Int, Int), Int] = {
    val out = mutable.HashMap.from(edgeSet(adj).map(_ -> 2))
    var k = 3
    var kept = edgeSet(refKTruss(adj, k))
    while (kept.nonEmpty) {
      kept.foreach(out(_) = k)
      k += 1
      kept = edgeSet(refKTruss(adj, k))
    }
    out.toMap
  }

  /** BFS hop distances from `source` through `neighbours`, up to `maxD`. */
  def bfs(source: Int, neighbours: Int => Iterable[Int], maxD: Int = Int.MaxValue): Map[Int, Int] = {
    val dist = mutable.HashMap[Int, Int](source -> 0)
    var frontier = List(source)
    var d = 0
    while (frontier.nonEmpty && d < maxD) {
      d += 1
      val next = mutable.ListBuffer[Int]()
      frontier.foreach(v => neighbours(v).foreach(u => if (!dist.contains(u)) { dist(u) = d; next += u }))
      frontier = next.toList
    }
    dist.toMap
  }

  /** A reference seed community as a subgraph: sorted global members and
    * sorted canonical (u < v) global edges.
    */
  final case class RefSeed(vertices: Array[Int], edges: Array[(Int, Int)])

  /** Reference seed community (Def. 2) that shares no truss code with
    * `src/main`: its own BFS ball, the keyword filter, the induced
    * neighbour sets, [[refKTruss]], then the radius filter, to a fixpoint.
    * Its edges are the fixpoint's own, not derived from the members.
    */
  def refSeed(g: GraphData, c: Int, r: Int, k: Int, q: Array[Int]): Option[RefSeed] = {
    if (!g.matchesQuery(c, q)) return None
    val ball = bfs(c, row(g, _), r).keys.filter(g.matchesQuery(_, q)).toArray.sorted
    val local = ball.zipWithIndex.toMap
    var adj: Adj = ball.map(v => mutable.HashSet.from(row(g, v).flatMap(local.get)))
    val lc = local(c)
    var changed = true
    while (changed) {
      adj = refKTruss(adj, k)
      if (k >= 3 && adj(lc).isEmpty) return None
      val d = bfs(lc, adj(_))
      val far = adj.indices.filter(v => adj(v).nonEmpty && d.getOrElse(v, Int.MaxValue) > r)
      far.foreach { v => adj(v).foreach(u => adj(u) -= v); adj(v).clear() }
      changed = far.nonEmpty
    }
    val members = adj.indices.filter(v => v == lc || adj(v).nonEmpty).map(ball)
    val edges = edgeSet(adj).toSeq.map { case (u, v) => (ball(u) min ball(v), ball(u) max ball(v)) }
    Some(RefSeed(members.sorted.toArray, edges.sorted.toArray))
  }

  /** The edge set of the seed community on `members`: the maximal k-truss
    * of G[members] ([[refKTruss]] on the induced neighbour sets), as sorted
    * canonical (u < v) global edges.
    */
  def seedEdges(g: GraphData, members: Array[Int], k: Int): Array[(Int, Int)] = {
    val local = members.zipWithIndex.toMap
    val adj: Adj = members.map(v => mutable.HashSet.from(row(g, v).flatMap(local.get)))
    edgeSet(refKTruss(adj, k)).toArray.map { case (u, v) => (members(u), members(v)) }.sorted
  }

  /** Reference upp(u, ·): exhaustive simple-path enumeration (small graphs
    * only) of the max product of directed weights.
    */
  def refUpp(g: GraphData, source: Int): Map[Int, Double] = {
    val best = mutable.HashMap[Int, Double](source -> 1.0)
    def dfs(v: Int, p: Double, visited: Set[Int]): Unit =
      g.foreachNeighbor(v) { (u, w) =>
        if (!visited.contains(u)) {
          val np = p * w
          if (np > best.getOrElse(u, 0.0)) best(u) = np
          dfs(u, np, visited + u)
        }
      }
    dfs(source, 1.0, Set(source))
    best.toMap
  }

  /** Reference cpp expansion: the boxed best-first search that `MIA` ran
    * before its workspace kernel (two hash maps and a tuple priority
    * queue). Same semantics: every vertex with cpp ≥ θ, seeds at 1.0.
    */
  def refCpp(g: GraphData, seed: Array[Int], theta: Double): Map[Int, Double] = {
    val cpp = mutable.HashMap[Int, Double]()
    val pq = mutable.PriorityQueue[(Double, Int)]()(Ordering.by(_._1))
    val best = mutable.HashMap[Int, Double]()
    seed.foreach { s => best(s) = 1.0; pq.enqueue((1.0, s)) }
    while (pq.nonEmpty) {
      val (p, u) = pq.dequeue()
      if (!cpp.contains(u) && p >= theta && best(u) == p) {
        cpp(u) = p
        g.foreachNeighbor(u) { (v, w) =>
          val np = p * w
          if (np >= theta && !cpp.contains(v) && np > best.getOrElse(v, 0.0)) {
            best(v) = np
            pq.enqueue((np, v))
          }
        }
      }
    }
    cpp.toMap
  }

  /** A cpp result as a vertex → cpp map. */
  def cppMap(cpp: MIA.Cpp): Map[Int, Double] = cpp.ids.zip(cpp.probs).toMap

  /** A vertex → cpp map as MIA's arrays, in settlement order (cpp
    * descending, ties by id).
    */
  def cppOf(m: Map[Int, Double]): MIA.Cpp = {
    val sorted = m.toArray.sortBy { case (v, p) => (-p, v) }
    MIA.Cpp(sorted.map(_._1), sorted.map(_._2))
  }

  /** Single-source user-to-user propagation probability upp(u, ·) for all
    * vertices with upp ≥ θ (Eq. 3), by the production kernel; upp(u,u) = 1.
    */
  def upp(g: GraphData, u: Int, theta: Double = 0.0): Map[Int, Double] =
    cppMap(MIA.influencedCpp(g, Array(u), theta))

  /** Max incident whole-graph edge support per vertex, for the Spark-free
    * tests (the Spark join reference is in `PrecomputeSparkSpec`).
    */
  def localIncSup(g: GraphData): Array[Int] = repro.index.Precompute.incidentMaxSupport(g)

  /** Ground-truth TopL-ICDE by exhaustive center enumeration (no index, no
    * pruning, no Spark, seeds from [[refSeed]]): the L best deduplicated
    * seed communities as (σ, sorted vertex list), ranked by σ descending,
    * then the vertex list in lexicographic order. The comparator is written out here, apart
    * from `Community.Ranking`.
    */
  def refTopL(g: GraphData, q: repro.core.Query): Seq[(Double, Seq[Int])] = {
    val sigmaOf = mutable.HashMap[List[Int], Double]()
    (0 until g.n).foreach { v =>
      refSeed(g, v, q.r, q.k, q.keywords).foreach { seed =>
        sigmaOf(seed.vertices.toList) = MIA.sigma(g, seed.vertices, q.theta)
      }
    }
    def before(a: List[Int], b: List[Int]): Boolean = (a, b) match {
      case (x :: xs, y :: ys) => x < y || (x == y && before(xs, ys))
      case (Nil, _ :: _) => true
      case _ => false
    }
    sigmaOf.toSeq
      .sortWith { case ((va, sa), (vb, sb)) => sa > sb || (sa == sb && before(va, vb)) }
      .take(q.L)
      .map { case (vs, s) => (s, vs) }
  }

  /** The σ column of [[refTopL]]. */
  def refTopLSigmas(g: GraphData, q: repro.core.Query): Seq[Double] = refTopL(g, q).map(_._1)

  /** Answers as the (σ, sorted vertex list) pairs [[refTopL]] returns. */
  def ranked(cs: Seq[repro.core.Community]): Seq[(Double, Seq[Int])] =
    cs.map(c => (c.sigma, c.vertices.toList))

  /** Same answers in the same order: σ within 1e-9, vertex lists equal. */
  def assertSameAnswers(got: Seq[(Double, Seq[Int])], want: Seq[(Double, Seq[Int])], clue: String = ""): Unit = {
    assert(got.size == want.size, s"$clue answer count: got=$got want=$want")
    got.zip(want).foreach { case ((sa, va), (sb, vb)) =>
      assert(math.abs(sa - sb) < 1e-9 && va == vb, s"$clue got=$got want=$want")
    }
  }

  /** Tree index built locally (no Spark) over the default θ grid. */
  def localIndex(g: GraphData, rMax: Int, fanout: Int = 4): repro.index.TreeIndex.Node = {
    import repro.index.{Precompute, TreeIndex}
    val inc = localIncSup(g)
    val refs = Array.tabulate(g.n)(Precompute.localVertexRef(g, inc, _, rMax, Precompute.DefaultThetaGrid))
    TreeIndex.build(refs, fanout)
  }

  /** Disjoint cliques K_m, each `(offset, m, pendant)`: vertices offset …
    * offset+m−1, uniform weight 0.5, keyword {0}. With `pendant` a vertex
    * offset+m with keyword {1} hangs off `offset`, p(offset→offset+m) =
    * 0.05. Every other vertex is isolated with keyword {0}. Copies of one
    * size tie on σ under query keywords {0}.
    */
  def cliques(n: Int, copies: Seq[(Int, Int, Boolean)]): GraphData = {
    val edges = copies.flatMap { case (o, m, pendant) =>
      (for { u <- o until o + m; v <- (u + 1) until o + m } yield (u, v)) ++
        (if (pendant) Seq((o, o + m)) else Nil)
    }
    val pendants = copies.collect { case (o, m, true) => o + m }
    SocialGraph.fromEdges(n, edges,
      keywords = pendants.map(_ -> Seq(1)).toMap,
      directedWeights = copies.collect { case (o, m, true) => (o, o + m) -> 0.05 }.toMap)
  }

  /** Tie fixture: two K4s on {4..7} and {10..13}, pendant 14 off vertex 10.
    * At Q = {0}, k = 3, r = 1, θ = 0.2 both K4s have σ = 4, so the answer
    * order alone decides that {4,5,6,7} comes first.
    */
  def twoK4Tie(): GraphData = cliques(15, Seq((4, 4, false), (10, 4, true)))

  /** Reference hop distances by BFS from one vertex. */
  def refDist(g: GraphData, source: Int): Map[Int, Int] = bfs(source, row(g, _))
}
