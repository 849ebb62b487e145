package repro.graph

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.SocialGraph.GraphFrames

/** Synthetic social-network generators (paper §VIII-A), as pure DataFrame
  * pipelines, deterministic in (n, seed): every "random" draw is a hash of
  * (seed, tag, row coordinates), so regenerating a graph yields identical
  * vertices/edges regardless of partitioning.
  *
  *  - [[nws]] — Newman–Watts–Strogatz small-world graphs (the paper's
  *    synthetic `Uni`/`Gau`/`Zipf` graphs with m = 6, μ = 0.167).
  *  - [[dblpLike]] / [[amazonLike]] — offline stand-ins for the SNAP DBLP
  *    and Amazon graphs (see DESIGN.md, substitutions): overlapping-clique
  *    generators whose triangle densities bracket the real graphs
  *    (DBLP-like triangle-rich, Amazon-like sparser).
  *
  * Edge weights `p(u,v)` are drawn per *direction* from Uniform[0.5, 0.6)
  * exactly as in the paper.
  */
object GraphGen {

  /** Keyword-distribution choices for vertex keyword sets (paper: Uniform,
    * Gaussian, Zipf ⇒ graphs `Uni`, `Gau`, `Zipf`).
    */
  sealed trait KwDist { def name: String }
  object KwDist {
    case object Uniform extends KwDist { val name = "Uni" }
    case object Gaussian extends KwDist { val name = "Gau" }
    case object Zipf extends KwDist { val name = "Zipf" }
    val all: Seq[KwDist] = Seq(Uniform, Gaussian, Zipf)
  }

  /** Deterministic Uniform[0,1) column from (seed, tag, cols). */
  private def u01(seed: Long, tag: String, cols: Column*): Column =
    shiftrightunsigned(xxhash64((cols :+ lit(tag) :+ lit(seed)): _*), 11)
      .cast("double") / 9007199254740992.0 // 2^53

  /** Canonicalize an undirected edge list (srcU, dstU) → distinct, no self
    * loops, src < dst.
    */
  private def canonical(edges: DataFrame): DataFrame =
    edges
      .select(
        least(col("srcU"), col("dstU")).as("src"),
        greatest(col("srcU"), col("dstU")).as("dst"))
      .where(col("src") =!= col("dst"))
      .distinct()

  /** Expand canonical undirected edges to both directions with independent
    * Uniform[0.5, 0.6) weights per direction.
    */
  private def directedWeighted(canonicalEdges: DataFrame, seed: Long): DataFrame = {
    val both = canonicalEdges
      .select(col("src"), col("dst"))
      .union(canonicalEdges.select(col("dst").as("src"), col("src").as("dst")))
    both.select(
      col("src"),
      col("dst"),
      (lit(0.5) + lit(0.1) * u01(seed, "w", col("src"), col("dst"))).as("weight"))
  }

  /** Vertex table with per-vertex keyword sets of size `kwPerVertex` drawn
    * from Σ = {0, …, sigma−1} under `dist`. Duplicates within a draw are
    * collapsed, so sets can be smaller than `kwPerVertex` (as with any
    * with-replacement draw); every vertex keeps ≥ 1 keyword.
    */
  def keywordVertices(
      spark: SparkSession,
      n: Long,
      dist: KwDist,
      kwPerVertex: Int,
      sigma: Int,
      seed: Long): DataFrame = {
    require(kwPerVertex >= 1 && sigma >= 1)
    val slots = spark.range(n).select(
      col("id"),
      explode(sequence(lit(0), lit(kwPerVertex - 1))).as("slot"))
    val u = u01(seed, "kw", col("id"), col("slot"))
    val kw: Column = dist match {
      case KwDist.Uniform => floor(u * sigma).cast("int")
      case KwDist.Gaussian =>
        // Box–Muller on two independent hash-uniforms; mean Σ/2, sd Σ/6.
        val u2 = u01(seed, "kw2", col("id"), col("slot"))
        val z = sqrt(lit(-2.0) * log(u + lit(1e-12))) * cos(lit(2.0 * math.Pi) * u2)
        greatest(lit(0), least(lit(sigma - 1), round(lit(sigma / 2.0) + z * lit(sigma / 6.0)).cast("int")))
      case KwDist.Zipf =>
        // Inverse-CDF over rank weights 1/rank (s = 1), materialized as a
        // cumulative-probability lookup; keyword id = rank − 1.
        val weights = (1 to sigma).map(r => 1.0 / r)
        val norm = weights.sum
        val cum = weights.scanLeft(0.0)(_ + _).tail.map(_ / norm)
        val zipfRank = udf { (x: Double) =>
          val i = java.util.Arrays.binarySearch(cum.toArray, x)
          val r = if (i >= 0) i else -i - 1
          math.min(r, sigma - 1)
        }
        zipfRank(u)
    }
    slots
      .select(col("id"), kw.as("kw"))
      .groupBy("id")
      .agg(array_sort(collect_set(col("kw"))).as("keywords"))
  }

  /** Newman–Watts–Strogatz small-world graph (paper §VIII-A, m = 6,
    * μ = 0.167): a ring of n vertices, each connected to its m nearest ring
    * neighbours (m/2 per side); then for each ring edge, with probability μ,
    * an extra shortcut edge from its source to a random vertex is *added*
    * (NWS adds rather than rewires, keeping the ring — hence connectivity —
    * intact).
    */
  def nws(
      spark: SparkSession,
      n: Long,
      dist: KwDist = KwDist.Uniform,
      kwPerVertex: Int = 3,
      sigma: Int = 20,
      seed: Long = 42L): GraphFrames = {
    require(n > 6, s"need n > m = 6, got n=$n")
    val half = 3
    val ring = spark.range(n).select(
      col("id").as("u"),
      explode(sequence(lit(1), lit(half))).as("d"))
    val ringEdges = ring.select(col("u").as("srcU"), ((col("u") + col("d")) % n).as("dstU"), col("d"))
    val shortcuts = ringEdges
      .where(u01(seed, "scp", col("srcU"), col("d")) < 0.167)
      .select(col("srcU"), floor(u01(seed, "scw", col("srcU"), col("d")) * n).as("dstU"))
    val edges = directedWeighted(canonical(ringEdges.select("srcU", "dstU").union(shortcuts)), seed)
    GraphFrames(keywordVertices(spark, n, dist, kwPerVertex, sigma, seed), edges)
  }

  /** Shared overlapping-clique machinery: `nGroups` groups (papers /
    * co-purchase baskets), each anchored at a hash-random vertex, members
    * drawn from a `window`-wide id range around the anchor, and all member
    * pairs connected (a clique per group). A step-1 ring is unioned in so
    * the graph is connected (the paper's G is connected by definition).
    */
  private def cliqueOverlap(
      spark: SparkSession,
      n: Long,
      nGroups: Long,
      minSize: Int,
      maxSize: Int,
      window: Int,
      seed: Long): GraphFrames = {
    val groups = spark.range(nGroups).select(
      col("id").as("gid"),
      floor(u01(seed, "anchor", col("id")) * n).as("anchor"),
      (lit(minSize) + floor(u01(seed, "size", col("id")) * (maxSize - minSize + 1))).as("size"))
    val members = groups
      .select(col("gid"), col("anchor"), explode(sequence(lit(0), (col("size") - 1).cast("int"))).as("slot"))
      .select(col("gid"),
        ((col("anchor") + floor(u01(seed, "member", col("gid"), col("slot")) * window)) % n).as("v"))
      .distinct()
    val a = members.select(col("gid"), col("v").as("srcU"))
    val b = members.select(col("gid").as("gid2"), col("v").as("dstU"))
    val pairs = a.join(b, col("gid") === col("gid2") && col("srcU") < col("dstU"))
      .select("srcU", "dstU")
    val ring = spark.range(n).select(col("id").as("srcU"), ((col("id") + 1) % n).as("dstU"))
    val edges = directedWeighted(canonical(pairs.union(ring)), seed)
    GraphFrames(keywordVertices(spark, n, KwDist.Uniform, kwPerVertex = 3, sigma = 20, seed), edges)
  }

  /** DBLP-like co-authorship stand-in: triangle-rich overlapping cliques
    * (papers of 2–6 authors), |E| ≈ 3.3·|V| matching DBLP's density.
    */
  def dblpLike(spark: SparkSession, n: Long, seed: Long = 7L): GraphFrames =
    cliqueOverlap(spark, n, nGroups = (n * 0.45).toLong, minSize = 2, maxSize = 6, window = 25, seed)

  /** Amazon-like co-purchase stand-in: sparser, smaller cliques (baskets of
    * 2–4 products), |E| ≈ 2.8·|V| matching Amazon's density.
    */
  def amazonLike(spark: SparkSession, n: Long, seed: Long = 11L): GraphFrames =
    cliqueOverlap(spark, n, nGroups = (n * 0.55).toLong, minSize = 2, maxSize = 4, window = 60, seed)
}
