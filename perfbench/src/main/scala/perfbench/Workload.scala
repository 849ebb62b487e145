package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.Query
import repro.exp.Experiments
import repro.graph.GraphGen
import repro.graph.GraphGen.KwDist
import repro.graph.SocialGraph.GraphFrames

import scala.util.Random

/** One request of a query stream: a TopL query, or a DTopL query when
  * `n` (the candidate multiplier of Alg. 4) is set.
  */
final case class Request(index: Int, query: Query, n: Option[Int]) {
  def describe: String = {
    val q = query
    val base = s"θ=${q.theta} |Q|=${q.keywords.length} k=${q.k} r=${q.r} L=${q.L}"
    n.fold(s"TopL $base")(n => s"DTopL $base n=$n")
  }
}

/** The query mixes. A stream is a sequence of decks: a deck holds every
  * parameter setting of the mix once, in an order shuffled by the seed,
  * so runs that reach different lengths still see the same mix. Keywords
  * are seeded per request. Every request is a pure function of (seed,
  * index).
  */
object QueryMix {

  // Table III parameter lists; Experiments holds the defaults.
  val Thetas: Seq[Double] = Seq(0.1, 0.2, 0.3)
  val QSizes: Seq[Int] = Seq(2, 3, 5, 8, 10)
  val Ks: Seq[Int] = Seq(3, 4, 5)
  val Rs: Seq[Int] = Seq(1, 2, 3)
  val Ls: Seq[Int] = Seq(2, 3, 5, 8, 10)
  // Fig. 6(c) list of n
  val Ns: Seq[Int] = Seq(2, 3, 5, 8, 10)

  /** A parameter setting: builds the query from its keyword seed. */
  type Setting = Long => (Query, Option[Int])

  /** TopL at the Table III defaults, and with each one of θ, |Q|, k, r, L
    * moved to each other value of its list.
    */
  val TopLDeck: IndexedSeq[Setting] = {
    import Experiments._
    def topL(q: Long => Query): Setting = s => (q(s), None)
    topL(s => query(seed = s)) +:
      (Thetas.filter(_ != DefaultTheta).map(t => topL(s => query(theta = t, seed = s))) ++
        QSizes.filter(_ != DefaultQSize).map(n => topL(s => query(qSize = n, seed = s))) ++
        Ks.filter(_ != DefaultK).map(k => topL(s => query(k = k, seed = s))) ++
        Rs.filter(_ != DefaultR).map(r => topL(s => query(r = r, seed = s))) ++
        Ls.filter(_ != DefaultL).map(l => topL(s => query(l = l, seed = s)))).toIndexedSeq
  }

  /** DTopL at the defaults with every pair of L (Fig. 6(b)) and n
    * (Fig. 6(c)).
    */
  val DTopLDeck: IndexedSeq[Setting] =
    for (l <- Ls.toIndexedSeq; n <- Ns) yield (s: Long) => (Experiments.query(l = l, seed = s), Some(n))

  /** SplitMix64 finaliser: decorrelates the per-deck and per-request
    * generators.
    */
  def mix(seed: Long, index: Long): Long = {
    var z = seed * 0x9E3779B97F4A7C15L + index + 0x632BE59BD9B4E019L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  def request(deck: IndexedSeq[Setting], seed: Long, index: Int): Request = {
    val order = new Random(mix(seed, -1L - index / deck.length)).shuffle(deck.indices.toVector)
    val (q, n) = deck(order(index % deck.length))(mix(seed, index))
    Request(index, q, n)
  }
}

/** A benchmark workload: a generated graph regime and a query mix. */
final case class Workload(
    name: String,
    vertices: Long,
    graphName: String,
    generate: (SparkSession, Long, Long) => GraphFrames,
    deck: IndexedSeq[QueryMix.Setting]) {

  def request(seed: Long, index: Int): Request = QueryMix.request(deck, seed, index)
}

object Workload {

  val all: Seq[Workload] = Seq(
    Workload("uni-sweep", 3000L, "NWS Uni",
      (spark, n, seed) => GraphGen.nws(spark, n, KwDist.Uniform, Experiments.DefaultW,
        Experiments.DefaultSigmaDomain, seed = seed),
      QueryMix.TopLDeck),
    Workload("amazon-dtopl", 5000L, "Amazon-like",
      (spark, n, seed) => GraphGen.amazonLike(spark, n, seed = seed),
      QueryMix.DTopLDeck))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; one of ${all.map(_.name).mkString(", ")}"))
}
