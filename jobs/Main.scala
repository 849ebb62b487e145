package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Pipeline
import repro.exp.{Experiments, Tables}
import repro.graph.GraphGen

/** The one spark-submit entry point: each paper table/figure, plus ad-hoc
  * TopL-ICDE and DTopL-ICDE queries over a generated NWS graph.
  *
  * Run: spark-submit --class repro.jobs.Main <jar> <command> [args]
  * (commands and their arguments: see `Usage`; fig3/fig6 without a part
  * run every part).
  */
object Main {

  private val Usage =
    "usage: repro.jobs.Main <tableII|fig2|fig3 [fixed|regen|scale]|fig4|fig5|fig6 [a|bc|d|e]" +
      "|topl [|V|] [k] [r] [theta] [L] [|Q|]|dtopl [|V|] [L] [n]>"

  def main(args: Array[String]): Unit = {
    val rest = args.drop(1)
    val part = rest.headOption.getOrElse("all")
    def wants(p: String): Boolean = part == "all" || part == p
    val job: SparkSession => Unit = args.headOption match {
      case Some("tableII") => spark => Tables.tableII(Experiments.tableII(spark))
      case Some("fig2") => spark => Tables.fig2(Experiments.fig2(spark))
      case Some("fig3") => spark =>
        if (wants("fixed")) Tables.fig3Fixed(Experiments.fig3Fixed(spark))
        if (wants("regen")) Tables.fig3Regen(Experiments.fig3Regen(spark))
        if (wants("scale")) Tables.fig3h(Experiments.fig3h(spark))
      case Some("fig4") => spark => Tables.fig4(Experiments.fig4(spark))
      case Some("fig5") => spark => Tables.fig5(Experiments.fig5(spark))
      case Some("fig6") => spark =>
        if (wants("a")) Tables.fig6a(Experiments.fig6a(spark))
        if (wants("bc")) Tables.fig6bc(Experiments.fig6bc(spark))
        if (wants("d")) Tables.fig6d(Experiments.fig6d(spark))
        if (wants("e")) Tables.fig6e(Experiments.fig6e(spark))
      case Some("topl") => topL(_, rest)
      case Some("dtopl") => dTopL(_, rest)
      case _ => System.err.println(Usage); sys.exit(2)
    }
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(args(0))
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    try job(spark) finally spark.stop()
  }

  private def build(spark: SparkSession, n: Long): Pipeline.Built =
    Pipeline.build(spark, GraphGen.nws(spark, n), Experiments.RMax, Experiments.ThetaGrid)

  private def topL(spark: SparkSession, args: Array[String]): Unit = {
    val q = Experiments.query(
      qSize = args.lift(5).map(_.toInt).getOrElse(Experiments.DefaultQSize),
      k = args.lift(1).map(_.toInt).getOrElse(Experiments.DefaultK),
      r = args.lift(2).map(_.toInt).getOrElse(Experiments.DefaultR),
      theta = args.lift(3).map(_.toDouble).getOrElse(Experiments.DefaultTheta),
      l = args.lift(4).map(_.toInt).getOrElse(Experiments.DefaultL))
    val built = build(spark, args.lift(0).map(_.toLong).getOrElse(Experiments.DefaultN))
    val (res, ms) = Experiments.timeMs(built.topL(q))
    println(s"offline: ${built.offlineMillis} ms, online: ${Tables.ms(ms)} ms")
    Tables.show(s"Top-${q.L} most influential communities",
      Seq("rank", "center", "|V(g)|", "sigma", "|g^Inf|"),
      res.communities.zipWithIndex.map { case (c, i) =>
        Seq((i + 1).toString, c.center.toString, c.vertices.length.toString,
          Tables.d2(c.sigma), c.cpp.size.toString)
      })
  }

  private def dTopL(spark: SparkSession, args: Array[String]): Unit = {
    val l = args.lift(1).map(_.toInt).getOrElse(Experiments.DefaultL)
    val nDiv = args.lift(2).map(_.toInt).getOrElse(Experiments.DefaultNDiv)
    val built = build(spark, args.lift(0).map(_.toLong).getOrElse(Experiments.DefaultN))
    val (res, ms) = Experiments.timeMs(built.dTopL(Experiments.query(l = l), nDiv))
    println(f"offline: ${built.offlineMillis} ms, online: ${Tables.ms(ms)} ms, diversity D(S) = ${res.score}%.2f")
    Tables.show(s"Diversified top-$l communities (n=$nDiv)",
      Seq("pick", "center", "|V(g)|", "sigma"),
      res.selected.zipWithIndex.map { case (c, i) =>
        Seq((i + 1).toString, c.center.toString, c.vertices.length.toString, Tables.d2(c.sigma))
      })
  }
}
