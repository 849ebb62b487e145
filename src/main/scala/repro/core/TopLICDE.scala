package repro.core

import repro.graph.{GraphData, Workspace}
import repro.index.TreeIndex
import repro.index.TreeIndex.{Inner, Leaf, Node, VertexRef}
import repro.influence.MIA
import repro.keywords.KeywordBV
import repro.truss.{KCore, Truss}

import scala.collection.{immutable, mutable}

/** Query parameters of TopL-ICDE (paper Def. 4). */
final case class Query(
    keywords: Array[Int],
    k: Int,
    r: Int,
    theta: Double,
    L: Int) {
  require(theta >= 0.0 && theta < 1.0, s"θ = $theta outside [0, 1)")
  require(k >= 2, s"k = $k, must be >= 2")
  require(r >= 1, s"r = $r, must be >= 1")
  require(L >= 1, s"L = $L, must be >= 1")
  val queryBv: Long = KeywordBV.hashSet(keywords.toSeq)
}

/** A seed community answer: its center (where it was found, not part of
  * its identity), sorted member vertices and influential score σ(g).
  * `influenced` gives its influenced community g^Inf as MIA's id/cpp arrays
  * (for DTopL-ICDE diversity), and `sigma` is their σ. An answer does not
  * hold those arrays: [[Community.influenced]] expands them again on each
  * read (DESIGN "Answers recompute g^Inf").
  */
final case class Community(
    center: Int,
    vertices: Array[Int],
    sigma: Double,
    influenced: () => MIA.Cpp) {

  /** g^Inf, from `influenced`. */
  def cpp: MIA.Cpp = influenced()

  override def toString: String =
    f"Community(center=$center, |V|=${vertices.length}, σ=$sigma%.3f)"
}

object Community {

  /** Dedup key of a (sorted) vertex set: several centers can induce the
    * same community. `ArraySeq` equality and hashing are structural.
    */
  def key(vertices: Array[Int]): immutable.ArraySeq[Int] = immutable.ArraySeq.unsafeWrapArray(vertices)

  /** The answer order of Def. 4: σ descending, then the sorted vertex
    * array in numeric lexicographic order. Total, so every path agrees.
    */
  val Ranking: Ordering[Community] = (a, b) => {
    val bySigma = java.lang.Double.compare(b.sigma, a.sigma)
    if (bySigma != 0) bySigma else java.util.Arrays.compare(a.vertices, b.vertices)
  }

  /** The L best communities offered so far under [[Ranking]]; equal ones
    * (same σ and vertex set) collapse into the first offered.
    */
  final class Best(L: Int) {
    private val kept = mutable.TreeSet.empty[Community](Ranking)
    def offer(c: Community): Unit = { kept += c; if (kept.size > L) kept -= kept.last }
    /** σ of the L-th answer, −∞ until L communities are kept. */
    def sigmaL: Double = if (kept.size < L) Double.NegativeInfinity else kept.last.sigma
    def answers: Seq[Community] = kept.toSeq
  }

  /** g^Inf of `vertices` at θ, expanded afresh on each call. MIA is
    * deterministic, so every call returns the same arrays, bit for bit.
    */
  def influenced(g: GraphData, vertices: Array[Int], theta: Double): () => MIA.Cpp =
    () => MIA.influencedCpp(g, vertices, theta)

  /** A seed community scored by the MIA expansion `cpp` of its `vertices`
    * at θ, which it does not keep.
    */
  def scored(g: GraphData, center: Int, vertices: Array[Int], theta: Double, cpp: MIA.Cpp): Community =
    Community(center, vertices, cpp.sigma, influenced(g, vertices, theta))

  /** Score a seed community: one MIA expansion of `vertices` to g^Inf. */
  def scored(g: GraphData, center: Int, vertices: Array[Int], theta: Double): Community =
    scored(g, center, vertices, theta, MIA.influencedCpp(g, vertices, theta))
}

/** Alg. 3's pruning: one rung of the Fig. 4 ladder, which runs the rung
  * below's strategies plus one. Keyword, support and score pruning are the
  * paper's (Lemmas 1/5, 2/6, 4/7), so `Score` is the paper's Alg. 3;
  * `KeywordTruss` adds the K_Q gate ([[TopLICDE.keywordTruss]]), which the
  * paper does not have, and extracts each seed from the center's K_Q ball
  * ([[SeedExtract.extractInTruss]]). `label` names the rung's Fig. 4 row.
  */
sealed abstract class Pruning(private val rank: Int, val label: String) extends Ordered[Pruning] {
  def compare(that: Pruning): Int = Integer.compare(rank, that.rank)
}

object Pruning {
  case object Keyword extends Pruning(0, "keyword")
  case object Support extends Pruning(1, "keyword+support")
  case object Score extends Pruning(2, "keyword+support+score")
  case object KeywordTruss extends Pruning(3, "keyword+support+score+K_Q")
  val ladder: Seq[Pruning] = Seq(Keyword, Support, Score, KeywordTruss) // bottom up
}

/** Counters reported by the ablation study (Fig. 4). Every r-hop
  * candidate (vertex of G) is counted once, either under a pruning
  * counter or under `refined`: `totalPruned + refined = |V|`.
  */
final class PruneStats {
  var entriesKeywordPruned = 0L   // index entries (Lemma 5)
  var entriesSupportPruned = 0L   // index entries (Lemma 6, safe form)
  var entriesScorePruned = 0L     // index entries (Lemma 7)
  var vertexKeywordPruned = 0L    // r-hop candidates (Lemma 1 via BV_r)
  var vertexSupportPruned = 0L    // r-hop candidates (Lemma 2)
  var vertexScorePruned = 0L      // r-hop candidates (Lemma 4)
  var vertexTrussPruned = 0L      // r-hop candidates with no K_Q edge
  var heapTerminated = 0L         // remaining heap entries cut at termination
  var refined = 0L                // candidates fully refined
  var duplicates = 0L             // candidates equal to an already-kept community
  var noCommunity = 0L            // refinement found no valid seed community
  def totalPruned: Long =
    entriesKeywordPruned + entriesSupportPruned + entriesScorePruned +
      vertexKeywordPruned + vertexSupportPruned + vertexScorePruned + vertexTrussPruned + heapTerminated
}

final case class TopLResult(communities: Seq[Community], stats: PruneStats)

/** Online TopL-ICDE processing (paper Algorithm 3): best-first traversal
  * of the tree index with keyword / support / influential-score pruning at
  * both index-entry level (Lemmas 5–7) and r-hop-candidate level (Lemmas
  * 1, 2, 4), followed by exact refinement (seed extraction + MIA score).
  *
  * Support pruning uses the *safe* form `ub_sup < k−2` (the paper's
  * printed `< k` can prune true answers; see DESIGN.md). A center that
  * passes every test is refined only if its row holds an edge of the
  * keyword truss K_Q ([[keywordTruss]]), and its seed is extracted from
  * its r-ball in K_Q.
  */
object TopLICDE {

  /** Index of the largest grid threshold θ_z ≤ θ, or -1 if θ is below the
    * grid (then no σ_z is a valid upper bound and score pruning at index
    * level is disabled). The test is exact: a θ_z even one ulp above θ
    * leaves out the vertices with cpp in [θ, θ_z), so its σ_z is no bound.
    */
  def thetaZIndex(thetaGrid: Array[Double], theta: Double): Int = thetaGrid.lastIndexWhere(_ <= theta)

  /** K_Q, the keyword truss of `q` (DESIGN "Keyword truss K_Q"): the
    * maximal k-truss of G[V_Q], V_Q the vertices that match Q, as an
    * `alive` mask over G's own CSR slots. A seed community is a k-truss
    * whose members all match Q, so its edges lie in K_Q: for k ≥ 3 a center
    * whose row holds no alive slot has no community.
    *
    * Every vertex of a k-truss has ≥ k−1 neighbours in it, so K_Q lies in
    * the (k−1)-core of G[V_Q]: the mask is peeled by degree to that core
    * first, and the truss peel runs on compact rows of the core's slots.
    */
  def keywordTruss(g: GraphData, q: Query): Array[Boolean] = {
    val rows = g.rows
    val n = rows.n
    val offsets = rows.offsets
    val neigh = rows.neigh
    val matches = new Array[Boolean](n)
    var v = 0
    while (v < n) {
      matches(v) = KeywordBV.mayIntersect(g.kwMask(v), q.queryBv) && g.matchesQuery(v, q.keywords)
      v += 1
    }
    // G[V_Q] and each vertex's degree in it
    val alive = new Array[Boolean](neigh.length)
    val deg = new Array[Int](n)
    v = 0
    while (v < n) {
      if (matches(v)) {
        var i = offsets(v)
        while (i < offsets(v + 1)) {
          if (matches(neigh(i))) { alive(i) = true; deg(v) += 1 }
          i += 1
        }
      }
      v += 1
    }
    if (q.k >= 3) { // every graph is a (≤2)-truss
      KCore.kCorePeel(rows, alive, q.k - 1, deg)
      val core = new mutable.ArrayBuilder.ofInt
      v = 0
      while (v < n) { if (deg(v) > 0) core.addOne(v); v += 1 }
      val (coreRows, from) = rows.sub(core.result(), Workspace.of(n).local, alive(_))
      val kept = coreRows.allAlive
      Truss.kTrussPeel(coreRows, kept, q.k)
      var s = 0
      while (s < from.length) { if (!kept(s)) alive(from(s)) = false; s += 1 }
    }
    alive
  }

  /** Answer `q`: the top L communities under [[Community.Ranking]], each
    * reporting the first center that refined it. `pruning` picks the rung
    * of the ladder; every rung returns the same answers, and the default is
    * the top one. Score pruning and heap termination cut only bounds
    * strictly below σ_L: a bound equal to σ_L can still hide a tied
    * community with a smaller vertex array.
    */
  def run(
      g: GraphData,
      index: Node,
      thetaGrid: Array[Double],
      q: Query,
      pruning: Pruning = Pruning.KeywordTruss): TopLResult =
    search(g, index, thetaGrid, q, pruning, keep = false)._1

  /** [[run]], and with `keep` the g^Inf arrays of its answers, in answer
    * order: the expansions that scored them, handed to the DTopL greedy so
    * that it does not expand them again (empty without `keep`).
    */
  private[core] def search(
      g: GraphData,
      index: Node,
      thetaGrid: Array[Double],
      q: Query,
      pruning: Pruning,
      keep: Boolean): (TopLResult, IndexedSeq[MIA.Cpp]) = {
    val stats = new PruneStats
    val ri = q.r - 1
    require(q.r <= index.agg.rMax, s"index built for r_max=${index.agg.rMax}, query r=${q.r}")
    val zi = thetaZIndex(thetaGrid, q.theta)
    val best = new Community.Best(q.L)
    val seen = mutable.HashSet[immutable.ArraySeq[Int]]()
    val held = mutable.HashMap[immutable.ArraySeq[Int], MIA.Cpp]()

    def ubSigma(agg: TreeIndex.Agg): Double =
      if (zi >= 0) agg.sigmas(ri)(zi) else Double.PositiveInfinity

    // index-entry pruning, Lemmas 5/6/7 (and their vertex-level analogues
    // 1/2/4 — a VertexRef's agg is the aggregate of hop(v, r)). `weight` is
    // the number of r-hop candidates the prune removes (subtree size at
    // entry level, 1 at vertex level) so the ablation counters are in
    // candidate units.
    def pruned(agg: TreeIndex.Agg, vertexLevel: Boolean, weight: Long): Boolean = {
      if (!KeywordBV.mayIntersect(agg.bv(ri), q.queryBv)) {
        if (vertexLevel) stats.vertexKeywordPruned += weight else stats.entriesKeywordPruned += weight
        true
      } else if (pruning >= Pruning.Support && agg.ubSup(ri) < q.k - 2) {
        if (vertexLevel) stats.vertexSupportPruned += weight else stats.entriesSupportPruned += weight
        true
      } else if (pruning >= Pruning.Score && ubSigma(agg) < best.sigmaL) {
        if (vertexLevel) stats.vertexScorePruned += weight else stats.entriesScorePruned += weight
        true
      } else false
    }

    // peeled on the first center that reaches the gate (at k ≤ 2, the first
    // refinement): a query that prunes every center before pays nothing for it
    lazy val kQ = keywordTruss(g, q)
    val offsets = g.offsets
    def hasKQEdge(v: Int): Boolean = {
      var i = offsets(v)
      while (i < offsets(v + 1) && !kQ(i)) i += 1
      i < offsets(v + 1)
    }

    def refine(v: VertexRef): Unit = {
      stats.refined += 1
      val seed =
        if (pruning == Pruning.KeywordTruss) SeedExtract.extractInTruss(g, kQ, v.id, q.r, q.k, q.keywords)
        else SeedExtract.extract(g, v.id, q.r, q.k, q.keywords)
      seed match {
        case None => stats.noCommunity += 1
        case Some(s) =>
          // dedup BEFORE the σ computation: the same community reached
          // from several of its members is scored once
          val key = Community.key(s.vertices)
          if (!seen.add(key)) stats.duplicates += 1
          else {
            val cpp = MIA.influencedCpp(g, s.vertices, q.theta)
            if (keep) held(key) = cpp
            best.offer(Community.scored(g, v.id, s.vertices, q.theta, cpp))
          }
      }
    }

    val heap = mutable.PriorityQueue[(Double, Node)]()(Ordering.by(_._1))
    heap.enqueue((Double.PositiveInfinity, index))
    var terminated = false
    while (heap.nonEmpty && !terminated) {
      val (key, node) = heap.dequeue()
      if (pruning >= Pruning.Score && key < best.sigmaL) {
        // every remaining entry's bound is < σ_L: stop (Alg. 3 lines 7–8);
        // count every candidate under the cut-off heap entries
        stats.heapTerminated += node.size.toLong + heap.iterator.map(_._2.size.toLong).sum
        terminated = true
      } else node match {
        case Leaf(_, vs) =>
          vs.foreach { v =>
            // Lemma 1 on the center itself: every seed community centered
            // at v contains v, so a keyword-less center prunes the whole
            // r-hop candidate before any ball/ball-BV work.
            if (!KeywordBV.mayIntersect(g.kwMask(v.id), q.queryBv))
              stats.vertexKeywordPruned += 1
            else if (!pruned(v.agg, vertexLevel = true, weight = 1)) {
              // last, as it scans v's row: the O(1) tests above go first
              if (pruning == Pruning.KeywordTruss && q.k >= 3 && !hasKQEdge(v.id)) stats.vertexTrussPruned += 1
              else refine(v)
            }
          }
        case Inner(_, cs) =>
          cs.foreach { c =>
            if (!pruned(c.agg, vertexLevel = false, weight = c.size.toLong))
              heap.enqueue((ubSigma(c.agg), c))
          }
      }
    }
    val answers = best.answers
    (TopLResult(answers, stats), if (keep) answers.map(c => held(Community.key(c.vertices))).toIndexedSeq else IndexedSeq.empty)
  }
}
