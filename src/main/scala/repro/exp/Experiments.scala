package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.GraphGen
import repro.graph.GraphGen.KwDist
import repro.graph.SocialGraph.GraphFrames
import repro.influence.MIA
import repro.truss.KCore

import scala.collection.mutable
import scala.util.Random

/** The paper's evaluation (§VIII), one function per table/figure.
  *
  * Scales are reduced vs the paper (see DESIGN.md, substitutions): the
  * default synthetic graph has |V| = 10K (paper: 50K), the DBLP/Amazon
  * stand-ins 20K (paper: 317K/335K), and the scalability sweep tops out at
  * 50K (paper: 1M). All other parameters follow Table III, defaults bold:
  * θ=0.2, |Q|=5, k=4, r=2, L=5, |v.W|=3, |Σ|=20, n=5.
  */
object Experiments {

  // ---- Table III defaults --------------------------------------------------
  val DefaultTheta = 0.2
  val DefaultQSize = 5
  val DefaultK = 4
  val DefaultR = 2
  val DefaultL = 5
  val DefaultW = 3
  val DefaultSigmaDomain = 20
  val DefaultNDiv = 5 // DTopL's n
  val RMax = 3
  val ThetaGrid: Array[Double] = repro.index.Precompute.DefaultThetaGrid

  /** Table III's value lists, each holding its default above (θ's list is
    * [[ThetaGrid]]); `Ns` is Fig. 6(c)'s list of DTopL's n.
    */
  object TableIII {
    val QSizes: Seq[Int] = Seq(2, 3, 5, 8, 10)
    val Ks: Seq[Int] = Seq(3, 4, 5)
    val Rs: Seq[Int] = Seq(1, 2, 3)
    val Ls: Seq[Int] = Seq(2, 3, 5, 8, 10)
    val Ws: Seq[Int] = Seq(1, 2, 3, 4, 5)
    val SigmaDomains: Seq[Int] = Seq(10, 20, 50, 80)
    val Ns: Seq[Int] = Seq(2, 3, 5, 8, 10)
  }

  // reduced scales (paper values in comments)
  val DefaultN = 10000L   // paper 50K
  val LikeN = 20000L      // paper: DBLP 317K, Amazon 335K
  val SweepN = 5000L      // graphs regenerated per sweep point
  val ScaleSweep: Seq[Long] = Seq(1000L, 2500L, 5000L, 10000L, 25000L, 50000L) // paper 10K..1M

  /** |Q| query keywords drawn deterministically from Σ (the paper draws
    * them uniformly at random from the keyword domain).
    */
  def query(
      qSize: Int = DefaultQSize,
      sigma: Int = DefaultSigmaDomain,
      k: Int = DefaultK,
      r: Int = DefaultR,
      theta: Double = DefaultTheta,
      l: Int = DefaultL,
      seed: Long = 77L): Query = {
    val kws = new Random(seed).shuffle((0 until sigma).toList).take(qSize).toArray
    Query(kws, k, r, theta, l)
  }

  final case class GraphCase(name: String, gf: GraphFrames)

  def synthetic(
      spark: SparkSession,
      n: Long,
      kwPerVertex: Int = DefaultW,
      sigma: Int = DefaultSigmaDomain): Seq[GraphCase] =
    KwDist.all.map(d => GraphCase(d.name, GraphGen.nws(spark, n, d, kwPerVertex, sigma, seed = 42L)))

  def likeGraphs(spark: SparkSession, n: Long = LikeN): Seq[GraphCase] = Seq(
    GraphCase("DBLP-like", GraphGen.dblpLike(spark, n)),
    GraphCase("Amazon-like", GraphGen.amazonLike(spark, n)))

  // Offline builds are the expensive part; share them across bench suites
  // running in the same JVM.
  private val cache = mutable.HashMap[String, Pipeline.Built]()
  def buildCached(spark: SparkSession, key: String, gf: => GraphFrames): Pipeline.Built =
    synchronized { cache.getOrElseUpdate(key, Pipeline.build(spark, gf, RMax, ThetaGrid)) }

  def timeMs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** Median-of-`reps` wall clock (first call doubles as warm-up). */
  def medianMs[A](reps: Int)(f: => A): (A, Double) = {
    require(reps >= 1)
    val runs = (1 to reps).map(_ => timeMs(f))
    (runs.last._1, median(runs.map(_._2)))
  }

  private def median(xs: Seq[Double]): Double = xs.sorted.apply(xs.length / 2)

  // ---- Table II: dataset statistics ---------------------------------------
  final case class DatasetRow(name: String, nV: Long, nE: Long)

  def tableII(spark: SparkSession): Seq[DatasetRow] = {
    val all = likeGraphs(spark) ++ synthetic(spark, DefaultN)
    all.map { c =>
      DatasetRow(c.name, c.gf.vertices.count(), c.gf.edges.count() / 2)
    }
  }

  // ---- Fig. 2: TopL-ICDE vs ATindex ---------------------------------------
  /** `topLMs` runs Alg. 3 with the K_Q gate, `topLNoKQMs` without it
    * ([[Pruning.Score]]). `speedup` compares ATindex with the latter, the
    * paper's algorithm; ATindex keeps the paper's vertex filter τ(v) ≥ k.
    * The work counts repeat exactly: `noKQRefined` centers refined by the
    * latter, `atRefined` centers whose ball ATindex extracted.
    */
  final case class Fig2Row(
      graph: String,
      topLMs: Double,
      topLNoKQMs: Double,
      atOfflineMs: Double,
      atOnlineMs: Double,
      noKQRefined: Long,
      atRefined: Long,
      speedup: Double)

  /** Each online side is the median of 9 runs; the three sides alternate
    * inside one loop, so drift in the machine's speed reaches all of them
    * alike. ATindex's offline time is a median of 3, so the first graph does
    * not carry the JIT warm-up of the truss decomposition alone.
    */
  def fig2(spark: SparkSession): Seq[Fig2Row] = {
    val cases = synthetic(spark, DefaultN) ++ likeGraphs(spark)
    cases.map { c =>
      val built = buildCached(spark, c.name, c.gf)
      val q = query()
      val (off, atOffMs) = medianMs(3)(ATindex.offline(built.g))
      val runs = (1 to 9).map { _ =>
        val (_, topLMs) = timeMs(built.topL(q))
        val (noKQ, noKQMs) = timeMs(built.topL(q, Pruning.Score))
        val ((_, atRefined), atMs) = timeMs(ATindex.query(built.g, off, q))
        (topLMs, noKQMs, atMs, noKQ.stats.refined, atRefined)
      }
      val noKQMs = median(runs.map(_._2))
      val atMs = median(runs.map(_._3))
      Fig2Row(c.name, median(runs.map(_._1)), noKQMs, atOffMs, atMs, runs.head._4, runs.head._5,
        atMs / math.max(noKQMs, 1e-9))
    }
  }

  // ---- Fig. 3(a)-(g): parameter sweeps over the online phase ---------------
  final case class SweepRow(graph: String, param: String, value: String, ms: Double, answers: Int)

  /** Sweeps that reuse one build per graph: θ, |Q|, k, r, L. */
  def fig3Fixed(spark: SparkSession): Seq[SweepRow] =
    synthetic(spark, DefaultN).flatMap { c =>
      val built = buildCached(spark, c.name, c.gf)
      built.topL(query()) // warm up
      def run(param: String, value: Any, q: Query): SweepRow = {
        val (res, ms) = timeMs(built.topL(q))
        SweepRow(c.name, param, value.toString, ms, res.communities.size)
      }
      ThetaGrid.toSeq.map(t => run("theta", t, query(theta = t))) ++
        TableIII.QSizes.map(s => run("|Q|", s, query(qSize = s))) ++
        TableIII.Ks.map(k => run("k", k, query(k = k))) ++
        TableIII.Rs.map(r => run("r", r, query(r = r))) ++
        TableIII.Ls.map(l => run("L", l, query(l = l)))
    }

  /** Sweeps that regenerate the graph: |v.W| (Fig. 3f) and |Σ| (Fig. 3g). */
  def fig3Regen(spark: SparkSession): Seq[SweepRow] = {
    def run(param: String, key: String, value: Int, c: GraphCase, q: Query): SweepRow = {
      val built = buildCached(spark, s"${c.name}-n$SweepN-$key$value", c.gf)
      val (res, ms) = timeMs(built.topL(q))
      SweepRow(c.name, param, value.toString, ms, res.communities.size)
    }
    TableIII.Ws.flatMap(w => synthetic(spark, SweepN, kwPerVertex = w).map(run("|v.W|", "w", w, _, query()))) ++
      TableIII.SigmaDomains.flatMap(s =>
        synthetic(spark, SweepN, sigma = s).map(run("|Sigma|", "s", s, _, query(sigma = s))))
  }

  // ---- Fig. 3(h): scalability in |V| --------------------------------------
  final case class ScaleRow(graph: String, n: Long, offlineMs: Double, onlineMs: Double, answers: Int)

  /** The Uni graph of |V| = n that Fig. 3(h) and Fig. 6(d) share. */
  private def uniBuilt(spark: SparkSession, n: Long): Pipeline.Built =
    buildCached(spark, s"Uni-n$n", GraphGen.nws(spark, n, KwDist.Uniform, DefaultW, DefaultSigmaDomain, seed = 42L))

  def fig3h(spark: SparkSession, sizes: Seq[Long] = ScaleSweep): Seq[ScaleRow] =
    sizes.map { n =>
      val built = uniBuilt(spark, n)
      val (res, ms) = timeMs(built.topL(query()))
      ScaleRow("Uni", n, built.offlineMillis.toDouble, ms, res.communities.size)
    }

  // ---- Fig. 4: pruning ablation -------------------------------------------
  /** One rung of [[Pruning.ladder]] on one graph, `config` its label;
    * `answers` are the sorted vertex arrays of the top L, in answer order.
    */
  final case class AblationRow(
      graph: String,
      config: String,
      pruned: Long,
      refined: Long,
      ms: Double,
      answers: Seq[Seq[Int]])

  /** The rungs of the pruning ladder in order: the paper's three rows,
    * then the K_Q gate on top.
    */
  def fig4(spark: SparkSession): Seq[AblationRow] = {
    val cases = synthetic(spark, DefaultN) ++ likeGraphs(spark)
    for {
      c <- cases
      built = buildCached(spark, c.name, c.gf)
      pruning <- Pruning.ladder
    } yield {
      val (res, ms) = timeMs(built.topL(query(), pruning))
      AblationRow(c.name, pruning.label, res.stats.totalPruned, res.stats.refined, ms,
        res.communities.map(_.vertices.toSeq))
    }
  }

  // ---- Fig. 5: case study — TopL-ICDE vs k-core ----------------------------
  final case class CaseStudyRow(
      method: String,
      center: Int,
      communitySize: Int,
      sigma: Double,
      influenced: Int)

  def fig5(spark: SparkSession): Seq[CaseStudyRow] = {
    val built = buildCached(spark, "Amazon-like", likeGraphs(spark).last.gf)
    val g = built.g
    val q = query(k = DefaultK, r = DefaultR, l = 1)
    val top1 = built.topL(q).communities.head
    // the paper's comparison: a 4-core community around the SAME center,
    // restricted to the same r-hop ball and query keywords (the center
    // matches the query, so it is in the ball)
    val (kept, rows) = SeedExtract.filteredBall(g, top1.center, q.r, q.keywords)
    val center = java.util.Arrays.binarySearch(kept, top1.center)
    val core = KCore.kCoreCommunity(rows, center, q.k).map(kept)
    val coreCpp = MIA.influencedCpp(g, core, q.theta)
    Seq(
      CaseStudyRow("TopL-ICDE (k-truss)", top1.center, top1.vertices.length, top1.sigma, top1.cpp.size),
      CaseStudyRow(s"${q.k}-core", top1.center, core.length, coreCpp.sigma, coreCpp.size))
  }

  // ---- Fig. 6: DTopL-ICDE ---------------------------------------------------
  final case class Fig6Row(
      graph: String,
      param: String,
      value: String,
      wpMs: Double,
      wopMs: Double,
      optMs: Double,
      wpScore: Double,
      optScore: Double) {
    def accuracy: Double = if (optScore > 0) wpScore / optScore else 1.0
  }

  /** The top-(nDiv·L) candidates of `q`, each expanded to g^Inf once and holding
    * its arrays, as `Built.dTopL` hands them over: the timed selectors expand nothing.
    */
  private def candidatesFor(built: Pipeline.Built, q: Query, nDiv: Int): IndexedSeq[Community] =
    built.topL(q.copy(L = nDiv * q.L)).communities.toIndexedSeq.map { c =>
      val cpp = c.cpp
      Community(c.center, c.vertices, c.sigma, () => cpp)
    }

  /** WP and WoP per call, in ms, on each (candidates, L) of `sets`: medians over 25 rounds, each of
    * which times one batch of WP and one of WoP on every set in turn (as [[fig2]] alternates), so that
    * a slow phase of the host falls on a few rounds of every set, not on all of one set's. First come
    * a full GC, as the graph builds leave the heap full, and 1 s of untimed rounds, which the JIT
    * needs; they also size each batch to last ≥ 1 ms, as one call of well under 1 ms is too short to
    * time. An untimed call before each batch brings its set's arrays back into cache.
    * Returns, per set, (WP's selection, median WP ms, median WoP ms).
    */
  private def greedyMs(sets: Seq[(IndexedSeq[Community], Int)]): Seq[(DTopL.DResult, Double, Double)] = {
    val calls = sets.toIndexedSeq.flatMap { case (c, l) => Seq(() => DTopL.greedyWP(c, l), () => DTopL.greedyWoP(c, l)) }
    System.gc()
    val warmMs = new Array[Double](calls.length)
    var rounds = 0
    val warm = System.nanoTime() + 1000000000L
    while (System.nanoTime() < warm) { calls.indices.foreach(i => warmMs(i) += timeMs(calls(i)())._2); rounds += 1 }
    val batch = warmMs.map(ms => math.ceil(rounds / ms).toInt) // calls in ≥ 1 ms
    val perCall = (1 to 25).map(_ => calls.indices.map { i =>
      val call = calls(i)
      call()
      timeMs((1 to batch(i)).foreach(_ => call()))._2 / batch(i)
    })
    sets.indices.map(s => (calls(2 * s)(), median(perCall.map(_(2 * s))), median(perCall.map(_(2 * s + 1)))))
  }

  /** Fig. 6(a): the three selectors at defaults on all five graphs.
    * Optimal enumerates C(nL, L) subsets; `optCap` bounds the candidate set
    * it sees to keep the bench finite (noted in EXPERIMENTS.md).
    */
  def fig6a(spark: SparkSession, optCap: Int = 25): Seq[Fig6Row] = {
    val q = query()
    val cases = (synthetic(spark, DefaultN) ++ likeGraphs(spark))
      .map(c => (c.name, candidatesFor(buildCached(spark, c.name, c.gf), q, DefaultNDiv)))
    cases.zip(greedyMs(cases.map(c => (c._2, q.L)))).map { case ((name, cands), (wp, wpMs, wopMs)) =>
      val (opt, optMs) = timeMs(DTopL.optimal(cands.take(optCap), q.L))
      Fig6Row(name, "default", "-", wpMs, wopMs, optMs, wp.score, opt.score)
    }
  }

  /** Fig. 6(b)/(c): L and n sweeps (greedy selectors only, like the paper's
    * timing curves), all timed together.
    */
  def fig6bc(spark: SparkSession): Seq[Fig6Row] = {
    val cells = synthetic(spark, DefaultN).flatMap { c =>
      val built = buildCached(spark, c.name, c.gf)
      TableIII.Ls.map(l => (c.name, "L", l, candidatesFor(built, query(l = l), DefaultNDiv), l)) ++
        TableIII.Ns.map(nd => (c.name, "n", nd, candidatesFor(built, query(), nd), query().L))
    }
    cells.zip(greedyMs(cells.map(c => (c._4, c._5)))).map { case ((graph, param, value, _, _), (wp, wpMs, wopMs)) =>
      Fig6Row(graph, param, value.toString, wpMs, wopMs, 0.0, wp.score, 0.0)
    }
  }

  /** Fig. 6(d): DTopL scalability in |V| (reuses the Fig. 3h builds). */
  def fig6d(spark: SparkSession, sizes: Seq[Long] = ScaleSweep): Seq[Fig6Row] =
    sizes.map { n =>
      val (res, ms) = timeMs(uniBuilt(spark, n).dTopL(query(), DefaultNDiv))
      Fig6Row("Uni", "|V|", n.toString, ms, 0.0, 0.0, res.score, 0.0)
    }

  /** Fig. 6(e): accuracy vs Optimal on |V| = 1K graphs. k = 3 so every
    * keyword distribution yields a non-trivial candidate pool at this
    * small scale (k = 4 leaves the Gaussian graph without answers).
    */
  def fig6e(spark: SparkSession): Seq[Fig6Row] = {
    val q = query(k = 3, l = 3)
    val cases = synthetic(spark, 1000L).map { c =>
      (c.name, candidatesFor(buildCached(spark, s"${c.name}-acc1k", c.gf), q, DefaultNDiv).take(18)) // C(18,3) = 816 subsets
    }
    cases.zip(greedyMs(cases.map(c => (c._2, q.L)))).map { case ((name, cands), (wp, wpMs, wopMs)) =>
      val (opt, optMs) = timeMs(DTopL.optimal(cands, q.L))
      Fig6Row(name, "accuracy", "|V|=1K", wpMs, wopMs, optMs, wp.score, opt.score)
    }
  }
}
