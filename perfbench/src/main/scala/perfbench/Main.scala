package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession
import repro.core.{DTopL, Pipeline, SeedExtract, TopLResult}
import repro.exp.Experiments
import repro.graph.{GraphData, SocialGraph}
import repro.graph.SocialGraph.GraphFrames
import repro.index.{Precompute, TreeIndex}
import repro.influence.MIA

import scala.collection.mutable
import scala.util.Random
import scala.util.control.NonFatal

/** The benchmark driver: one JVM, Spark `local[N]` with N ≤ 4, one query
  * thread. It generates the workload's graph from the seed, materialises
  * it, builds the offline state with `Pipeline.build`, then sends a closed
  * loop of queries (no think time) for the given number of seconds.
  *
  * `--trace 0` reports the end-to-end metrics. `--trace 1` reports the
  * per-layer metrics: it reproduces `Pipeline.build` step by step with a
  * span around each public call, replays the stream with and without
  * spans, and replays the per-candidate kernels on sampled centers.
  */
object Main {

  final case class Opts(
      workload: Workload,
      seed: Long,
      seconds: Int,
      trace: Boolean,
      work: String,
      results: String,
      commit: String,
      sourceDigest: String)

  val MaxCores = 4
  // Four partitions per core, as Precompute and BruteForce split their scans.
  val PartitionsPerCore = 4
  val SetupBuilds = 3
  // the fewest timed requests that leave ten samples beyond p90
  val MinTimed = 100
  val Checked = 4
  val ReplayQueries = 40
  val ReplayCenters = 16

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(Workload.byName(get("workload")), get("seed").toLong, get("seconds").toInt,
      get("trace") == "1", get("work"), get("results"),
      kv.getOrElse("commit", "unknown"), kv.getOrElse("source-digest", "unknown"))
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val cores = math.min(MaxCores, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName(s"perfbench-${o.workload.name}")
      .config("spark.sql.shuffle.partitions", PartitionsPerCore * cores)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"${o.work}/spark")
      .config("spark.sql.warehouse.dir", s"${o.work}/warehouse")
      .getOrCreate()
    try {
      val report = new Bench(spark, o).run()
      report.write(o)
      report.print()
    } finally spark.stop()
  }
}

/** A metric as printed and as written to the result line. */
final case class Metric(name: String, value: Double, unit: String, note: String = "")

final case class Report(
    metrics: Seq[Metric],
    attempted: Int,
    failed: Int,
    failures: Seq[String],
    facts: Seq[(String, Any)],
    samples: Seq[Json.Obj],
    tracer: Option[Tracer]) {

  def correct: Boolean = failed == 0

  def resultLine: String = Json.render(Json.Obj(
    "correct" -> correct,
    "attempted" -> attempted,
    "failed" -> failed,
    "metrics" -> Json.Obj(metrics.map(m => m.name -> Json.Obj("value" -> m.value, "unit" -> m.unit)): _*)))

  def print(): Unit = {
    facts.foreach { case (k, v) => println(f"# $k%-28s $v") }
    failures.foreach(f => println(s"# FAILED $f"))
    val ratio = failed.toDouble / attempted
    println(f"${"failed_ratio"}%-28s $ratio%.6f ratio ($failed of $attempted queries)")
    metrics.foreach { m =>
      println(f"${m.name}%-28s ${m.value}%.6f ${m.unit}" + (if (m.note.isEmpty) "" else s" (${m.note})"))
    }
    println(resultLine)
  }

  def write(o: Main.Opts): Unit = {
    val dir = Paths.get(o.results)
    Files.createDirectories(dir)
    val stem = s"${o.workload.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    val body = Json.Obj(
      "meta" -> Json.Obj(facts: _*),
      "failed_ratio" -> failed.toDouble / attempted,
      "failures" -> failures,
      "metrics" -> metrics.map(m => Json.Obj("name" -> m.name, "value" -> m.value, "unit" -> m.unit, "note" -> m.note)),
      "requests" -> samples,
      "result" -> resultLine)
    Files.write(dir.resolve(s"$stem.json"), Json.render(body).getBytes(StandardCharsets.UTF_8))
    tracer.foreach(t => Files.write(dir.resolve(s"$stem-spans.json"), Json.render(t.toJson).getBytes(StandardCharsets.UTF_8)))
  }
}

/** One timed request: its latency and its answer or error. */
final case class Outcome(req: Request, ms: Double, answer: Either[String, Answer]) {
  def toJson: Json.Obj = Json.Obj("index" -> req.index, "query" -> req.describe, "ms" -> ms, "ok" -> answer.isRight)
}

/** What a request returned: the TopL result (for DTopL, that of its
  * top-n·L step when the request was traced) and the DTopL selection.
  */
final case class Answer(topL: Option[TopLResult], dTopL: Option[DTopL.DResult]) {

  /** What the caller sees: the σ list, or D(S) for DTopL. */
  def values: Seq[Double] = dTopL.fold(topL.get.communities.map(_.sigma))(d => Seq(d.score))
}

final class Bench(spark: SparkSession, o: Main.Opts) {
  import Main._

  private val sc = spark.sparkContext
  private val w = o.workload

  // what the kernel replay called: one entry per call
  private val ballSizes = mutable.ArrayBuffer[Int]()
  private var extracted = 0
  private val infSizes = mutable.ArrayBuffer[Int]()
  private val replayEvals = mutable.ArrayBuffer[Long]()

  private def nowMs(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** The generated graph, cached and counted so no timer sees the generator. */
  private def input(): GraphFrames = {
    val gf = w.generate(spark, w.vertices, o.seed)
    val v = gf.vertices.cache()
    val e = gf.edges.cache()
    v.count()
    e.count()
    GraphFrames(v, e)
  }

  private def build(gf: GraphFrames): Pipeline.Built =
    Pipeline.build(spark, gf, Experiments.RMax, Experiments.ThetaGrid)

  /** The request exactly as a user issues it. */
  private def execute(built: Pipeline.Built, req: Request): Answer = req.n match {
    case None => Answer(Some(built.topL(req.query)), None)
    case Some(n) => Answer(None, Some(built.dTopL(req.query, n)))
  }

  /** The same request with a span around each public call it makes;
    * `Built.dTopL` is unrolled into its two steps.
    */
  private def executeTraced(built: Pipeline.Built, req: Request, tracer: Tracer): Answer =
    tracer.span("query", req.index) {
      val q = req.query
      req.n match {
        case None => Answer(Some(tracer.span("core.topl", req.index)(built.topL(q))), None)
        case Some(n) =>
          val res = tracer.span("core.topl", req.index)(built.topL(q.copy(L = n * q.L)))
          Answer(Some(res), Some(tracer.span("core.dtopl_select", req.index)(
            DTopL.greedyWP(res.communities.toIndexedSeq, q.L))))
      }
    }

  private def attempt(f: => Answer): (Double, Either[String, Answer]) = {
    val t0 = System.nanoTime()
    val a = try Right(f) catch { case NonFatal(e) => Left(e.toString) }
    (nowMs(t0), a)
  }

  /** Warm-up runs one deck of the mix; the timed stream starts after it. */
  private val warmUpCount = w.deck.length

  /** Collects the build's garbage, so no GC cycle it started runs into the
    * timed loop, then lets the JIT compile the query path.
    */
  private def warmUp(built: Pipeline.Built): Unit = {
    System.gc()
    (0 until warmUpCount).foreach(i => execute(built, w.request(o.seed, i)))
  }

  /** The closed loop runs for `--seconds` and at least `minTimed`
    * requests, then to the end of its deck, so every run sees whole decks
    * of the mix.
    */
  private def more(t0: Long, next: Int, minTimed: Int): Boolean = {
    val done = next - warmUpCount
    System.nanoTime() - t0 < o.seconds * 1000000000L || done < minTimed || done % w.deck.length != 0
  }

  /** Checks the first [[Checked]] answered requests against brute force;
    * returns the failures.
    */
  private def check(g: GraphData, outcomes: Seq[Outcome]): Seq[String] = {
    val bcG = sc.broadcast(g)
    try outcomes.take(Checked).flatMap { oc =>
      val q = oc.req.query
      val verdict = try oc.answer match {
        case Left(_) => None // already counted as failed
        case Right(Answer(_, Some(d))) => Check.dTopL(spark, bcG, q, oc.req.n.get, d)
        case Right(Answer(res, None)) => Check.topL(spark, bcG, q, res.get)
      } catch { case NonFatal(e) => Some(s"check threw $e") }
      verdict.map(v => s"request ${oc.req.index} (${oc.req.describe}): $v")
    } finally bcG.destroy()
  }

  private def errors(outcomes: Seq[Outcome]): Seq[String] =
    outcomes.collect { case Outcome(r, _, Left(e)) => s"request ${r.index} (${r.describe}) threw $e" }

  private def facts(g: GraphData, queries: Int, extra: (String, Any)*): Seq[(String, Any)] = Seq(
    "workload" -> w.name,
    "seed" -> o.seed,
    "trace" -> o.trace,
    "seconds" -> o.seconds,
    "graph" -> w.graphName,
    "graph_vertices" -> g.n,
    "graph_edges" -> g.numUndirectedEdges,
    "queries" -> queries,
    "warmup_queries" -> warmUpCount,
    "checked_queries" -> math.min(Checked, queries),
    "nproc" -> Runtime.getRuntime.availableProcessors(),
    "spark_master" -> sc.master,
    "spark_default_parallelism" -> sc.defaultParallelism,
    "spark_shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "spark_version" -> spark.version,
    "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
    "driver_heap_limit_mb" -> Runtime.getRuntime.maxMemory() / 1048576L,
    "git_commit" -> o.commit,
    "source_sha256" -> o.sourceDigest) ++ extra

  def run(): Report = if (o.trace) traced() else untraced()

  // ---- --trace 0: end-to-end metrics ---------------------------------------

  private def untraced(): Report = {
    val tRun = System.nanoTime()
    val gf = input()
    val inputS = (System.nanoTime() - tRun) / 1e9
    var built: Pipeline.Built = null
    val setupS = (1 to SetupBuilds).map { _ =>
      built = null
      val t0 = System.nanoTime()
      built = build(gf)
      (System.nanoTime() - t0) / 1e9
    }
    warmUp(built)

    val outcomes = mutable.ArrayBuffer[Outcome]()
    val t0 = System.nanoTime()
    var i = warmUpCount
    while (more(t0, i, MinTimed)) {
      val req = w.request(o.seed, i)
      val (ms, a) = attempt(execute(built, req))
      outcomes += Outcome(req, ms, a)
      i += 1
    }
    val loopS = (System.nanoTime() - t0) / 1e9

    val tCheck = System.nanoTime()
    val failures = errors(outcomes.toSeq) ++ check(built.g, outcomes.toSeq)
    val checkS = (System.nanoTime() - tCheck) / 1e9
    gf.vertices.unpersist(blocking = true)
    gf.edges.unpersist(blocking = true)
    val heapMb = heapAfterGc()
    java.lang.ref.Reference.reachabilityFence(built)

    val ok = outcomes.collect { case Outcome(_, ms, Right(_)) => ms }.toSeq
    val p90beyond = Stats.beyond(ok.length, 90.0)
    val tail = Stats.tail(ok)
    if (p90beyond < 10) Console.err.println(s"perfbench: only $p90beyond samples beyond p90; lengthen --seconds")
    Report(
      Seq(
        Metric("setup_s", Stats.median(setupS), "s", s"median of ${setupS.map(s => f"$s%.3f").mkString(", ")}"),
        Metric("query_p50_ms", Stats.median(ok), "ms", s"${ok.length} samples"),
        Metric("query_p90_ms", Stats.percentile(ok, 90.0), "ms",
          s"$p90beyond samples beyond; highest percentile with ≥10 beyond: " +
            tail.fold("none")(t => f"p${t.p}%s = ${t.value}%.3f ms")),
        Metric("qps", ok.length / loopS, "1/s", f"${ok.length} queries in $loopS%.3f s"),
        Metric("driver_heap_mb", heapMb, "MB", "heap in use after full GC, Built held")),
      outcomes.length, failures.length, failures,
      facts(built.g, outcomes.length, "phase_s" -> f"input $inputS%.1f, setup ${setupS.sum}%.1f, loop $loopS%.1f, check $checkS%.1f"),
      outcomes.map(_.toJson).toSeq, None)
  }

  private def heapAfterGc(): Double = {
    (1 to 3).foreach { _ => System.gc(); Thread.sleep(150) }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  // ---- --trace 1: per-layer metrics ----------------------------------------

  private def traced(): Report = {
    val tracer = new Tracer
    val listener = new GroupListener
    sc.addSparkListener(listener)
    val gf = input()
    val reference = build(gf)
    val (built, buildMetrics) = tracedBuild(gf, tracer, listener)
    driftGuard(reference, built)
    warmUp(built)

    // pairs: each request untraced and traced, alternating which goes first
    val plain = mutable.ArrayBuffer[Outcome]()
    val answers = mutable.ArrayBuffer[(Request, Answer)]()
    val tracedErrors = mutable.ArrayBuffer[String]()
    val t0 = System.nanoTime()
    var i = warmUpCount
    while (more(t0, i, 0)) {
      val req = w.request(o.seed, i)
      def untracedRun(): Unit = { val (ms, a) = attempt(execute(built, req)); plain += Outcome(req, ms, a) }
      def tracedRun(): Unit =
        try answers += req -> executeTraced(built, req, tracer)
        catch { case NonFatal(e) => tracedErrors += s"traced request ${req.index} (${req.describe}) threw $e" }
      if (i % 2 == 0) { untracedRun(); tracedRun() } else { tracedRun(); untracedRun() }
      i += 1
    }
    // the unrolled calls must answer exactly as the program's own entry points
    val plainValues = plain.collect { case Outcome(r, _, Right(a)) => r.index -> a.values }.toMap
    answers.foreach { case (req, a) =>
      plainValues.get(req.index).foreach { want =>
        if (want != a.values)
          throw new IllegalStateException(s"traced request ${req.index} drifted from Built: ${a.values} vs $want")
      }
    }
    val failures = errors(plain.toSeq) ++ tracedErrors ++ check(built.g, plain.toSeq)
    replay(built, answers.toSeq.take(ReplayQueries), tracer)
    val queryMetrics = layerMetrics(plain.toSeq, answers.toSeq, tracer)
    Report(buildMetrics ++ queryMetrics, plain.length, math.min(failures.length, plain.length), failures,
      facts(built.g, plain.length, "traced_queries" -> answers.length,
        "replayed_queries" -> math.min(ReplayQueries, answers.length), "replay_centers" -> ReplayCenters),
      plain.map(_.toJson).toSeq, Some(tracer))
  }

  /** `Pipeline.build`, step by step, with the same public calls in the same
    * order, a span around each, and Spark task counts per span.
    */
  private def tracedBuild(gf: GraphFrames, tracer: Tracer, listener: GroupListener): (Pipeline.Built, Seq[Metric]) = {
    val rMax = Experiments.RMax
    val grid = Experiments.ThetaGrid
    val t0 = System.nanoTime()
    val (built, rowsCount) = tracer.span("build") {
      val g = tracer.span("graph.csr")(SocialGraph.toGraphData(gf))
      // Precompute.offline, unrolled
      val bcG = sc.broadcast(g)
      val inc = listener.scoped(sc, "truss.support") {
        tracer.span("truss.support")(Precompute.incidentMaxSupportArray(spark, gf.edges, g.n))
      }
      val bcInc = sc.broadcast(inc)
      val rows = listener.scoped(sc, "index.precompute") {
        tracer.span("index.precompute")(Precompute.run(spark, bcG, bcInc, rMax, grid).collect())
      }
      val index = tracer.span("index.tree")(TreeIndex.build(rows))
      (Pipeline.Built(g, index, grid, rMax, (System.nanoTime() - t0) / 1000000L), rows.length)
    }
    val support = listener.of("truss.support")
    val precompute = listener.of("index.precompute")
    def ms(name: String) = tracer.named(name).head.ms
    val metrics = Seq(
      Metric("graph.csr_ms", ms("graph.csr"), "ms", "SocialGraph.toGraphData"),
      Metric("truss.support_ms", ms("truss.support"), "ms", "Precompute.incidentMaxSupportArray"),
      Metric("truss.support_shuffle_mb", support.shuffleWriteBytes / 1e6, "MB", "shuffle bytes written"),
      Metric("truss.support_tasks", support.tasks.toDouble, "count"),
      Metric("index.precompute_ms", ms("index.precompute"), "ms", s"Precompute.run(…).collect(), $rowsCount rows"),
      Metric("index.precompute_task_skew", precompute.skew, "ratio", "max / median task time of its busiest stage"),
      Metric("index.tree_ms", ms("index.tree"), "ms", "TreeIndex.build"),
      Metric("index.height", TreeIndex.height(built.index).toDouble, "count"),
      Metric("index.leaves", leaves(built.index).toDouble, "count"))
    (built, metrics)
  }

  private def leaves(node: TreeIndex.Node): Int = node match {
    case _: TreeIndex.Leaf => 1
    case TreeIndex.Inner(_, cs) => cs.map(leaves).sum
  }

  /** Fails the run when the step-by-step build no longer matches
    * `Pipeline.build`: then the build spans would time a pipeline the
    * program does not run.
    */
  private def driftGuard(reference: Pipeline.Built, traced: Pipeline.Built): Unit = {
    def drift(what: String): Nothing =
      throw new IllegalStateException(s"traced build drifted from Pipeline.build: $what differs")
    val (a, b) = (reference.g, traced.g)
    if (a.n != b.n || !a.offsets.sameElements(b.offsets) || !a.neigh.sameElements(b.neigh) ||
        !a.weight.sameElements(b.weight) || !a.kwMask.sameElements(b.kwMask)) drift("the CSR graph")
    def sameAgg(x: TreeIndex.Agg, y: TreeIndex.Agg): Boolean =
      x.bv.sameElements(y.bv) && x.ubSup.sameElements(y.ubSup) &&
        x.sigmas.length == y.sigmas.length && x.sigmas.indices.forall(i => x.sigmas(i).sameElements(y.sigmas(i)))
    val want = TreeIndex.vertices(reference.index).map(v => v.id -> v.agg).toMap
    val got = TreeIndex.vertices(traced.index).map(v => v.id -> v.agg).toMap
    if (want.keySet != got.keySet || want.exists { case (id, agg) => !sameAgg(agg, got(id)) })
      drift("a per-vertex aggregate")
    if (!sameAgg(reference.index.agg, traced.index.agg)) drift("the index root Agg")
    if (TreeIndex.height(reference.index) != TreeIndex.height(traced.index) ||
        leaves(reference.index) != leaves(traced.index)) drift("the index shape")
  }

  /** Replays the per-candidate kernels of Alg. 3 on a seeded sample of
    * centers that match each query's keywords, and on TopL workloads the
    * DTopL greedy over the query's own answers. Each kernel runs over all
    * of a query's sampled centers under one span, back to back as Alg. 3
    * calls it.
    */
  private def replay(built: Pipeline.Built, answered: Seq[(Request, Answer)], tracer: Tracer): Unit = {
    val g = built.g
    answered.foreach { case (req, ans) =>
      val q = req.query
      val matching = (0 until g.n).filter(v => g.matchesQuery(v, q.keywords))
      val centers = new Random(QueryMix.mix(o.seed ^ 0x5EEDL, req.index)).shuffle(matching).take(ReplayCenters)
      tracer.span("replay", req.index) {
        ballSizes ++= tracer.span("graph.hop_ball", req.index)(centers.map(g.hopBall(_, q.r)._1.length))
        val seeds = tracer.span("core.seed_extract", req.index)(
          centers.flatMap(SeedExtract.extract(g, _, q.r, q.k, q.keywords)))
        infSizes ++= tracer.span("influence.mia", req.index)(
          seeds.map(s => MIA.influencedCpp(g, s.vertices, q.theta).size))
        extracted += centers.length
      }
      if (req.n.isEmpty) {
        val d = tracer.span("replay", req.index) {
          tracer.span("core.dtopl_select", req.index)(DTopL.greedyWP(ans.topL.get.communities.toIndexedSeq, q.L))
        }
        replayEvals += d.incrementEvals
      }
    }
  }

  private def layerMetrics(plain: Seq[Outcome], answers: Seq[(Request, Answer)], tracer: Tracer): Seq[Metric] = {
    val totals = Stats.pruneTotals(answers.flatMap(_._2.topL).map(_.stats))
    val topLMs = Stats.mean(tracer.named("core.topl").map(_.ms))
    def perCallUs(span: String, calls: Int) = tracer.named(span).map(_.us).sum / math.max(calls, 1)
    val hopUs = perCallUs("graph.hop_ball", ballSizes.length)
    val extractUs = perCallUs("core.seed_extract", extracted)
    val miaUs = perCallUs("influence.mia", infSizes.length)
    val refined = totals.perQuery(totals.refined)
    val scored = totals.perQuery(totals.scored)
    val useful = totals.usefulRefine
    val evals = answers.flatMap(_._2.dTopL.map(_.incrementEvals)) ++ replayEvals
    val tracedIds = answers.map(_._1.index).toSet
    val plainMs = plain.collect { case Outcome(r, ms, Right(_)) if tracedIds(r.index) => r.index -> ms }.toMap
    val tracedMs = tracer.named("query").filter(s => plainMs.contains(s.queryId)).map(_.ms).sum
    val overheadPct = 100.0 * (tracedMs - plainMs.values.sum) / plainMs.values.sum
    val onPath = if (answers.exists(_._1.n.isDefined)) "on the query path" else "replayed on each query's answers"
    Seq(
      Metric("core.topl_ms", topLMs, "ms", s"mean of ${answers.length} Built.topL calls"),
      Metric("core.refined", refined, "count", "per query"),
      Metric("core.pruned_keyword", totals.perQuery(totals.prunedKeyword), "count", "candidates per query, entry + vertex level"),
      Metric("core.pruned_support", totals.perQuery(totals.prunedSupport), "count", "candidates per query, entry + vertex level"),
      Metric("core.pruned_score", totals.perQuery(totals.prunedScore), "count", "candidates per query, entry + vertex level"),
      Metric("core.heap_terminated", totals.perQuery(totals.heapTerminated), "count", "candidates per query"),
      Metric("core.useful_refine_ratio", useful.value, "ratio",
        s"(refined − noCommunity − duplicates) / refined; base ${useful.baseName} = ${useful.base} over ${totals.queries} queries"),
      Metric("graph.hop_ball_us", hopUs, "us",
        f"mean of ${ballSizes.length}%d GraphData.hopBall calls, ${Stats.mean(ballSizes.map(_.toDouble).toSeq)}%.1f vertices each"),
      Metric("core.seed_extract_us", extractUs, "us", s"mean of $extracted SeedExtract.extract calls"),
      Metric("influence.mia_us", miaUs, "us", s"mean of ${infSizes.length} MIA.influencedCpp calls"),
      Metric("influence.inf_size", Stats.mean(infSizes.map(_.toDouble).toSeq), "count", "mean |g^Inf| of replayed seeds"),
      Metric("core.topl_residual_ms", topLMs - refined * extractUs / 1e3 - scored * miaUs / 1e3, "ms",
        "estimate: core.topl_ms − refined × seed_extract − scored × mia"),
      Metric("core.dtopl_select_us", Stats.mean(tracer.named("core.dtopl_select").map(_.us)), "us",
        s"DTopL.greedyWP, $onPath"),
      Metric("core.greedy_evals", Stats.mean(evals.map(_.toDouble)), "count", s"ΔD evaluations per selection, $onPath"),
      Metric("trace.overhead_pct", overheadPct, "%", s"traced vs untraced time of the same ${plainMs.size} requests"))
  }
}
