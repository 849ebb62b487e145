package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

import scala.collection.mutable

/** One timed call into a layer of the program. `parent` is the id of the
  * enclosing span (-1 at the top); spans of one query share `queryId`
  * (-1 outside the query stream).
  */
final case class Span(id: Int, parent: Int, name: String, queryId: Int, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
  def us: Double = (endNs - startNs) / 1e3
}

/** In-memory span recorder for the single benchmark thread. Spans are
  * written out once, when the run ends.
  */
final class Tracer {
  private val done = mutable.ArrayBuffer[Span]()
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String, queryId: Int = -1)(f: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try f
    finally {
      done += Span(id, parent, name, queryId, t0, System.nanoTime())
      open = open.tail
    }
  }

  def spans: Seq[Span] = done.toSeq.sortBy(_.id)

  def named(name: String): Seq[Span] = done.iterator.filter(_.name == name).toSeq

  def toJson: Json.Obj = Json.Obj("spans" -> spans.map(s => Json.Obj(
    "id" -> s.id, "parent" -> s.parent, "name" -> s.name, "query" -> s.queryId,
    "start_ns" -> s.startNs, "end_ns" -> s.endNs)))
}

/** Task-level counts of the Spark jobs run under one job group, as the
  * listener saw them.
  */
final case class GroupTasks(tasks: Int, shuffleWriteBytes: Long, taskMsByStage: Map[Int, Seq[Long]]) {

  /** Max over median task duration of the stage that kept its tasks busy
    * longest: the slowest partition sets that stage's time.
    */
  def skew: Double =
    if (taskMsByStage.isEmpty) 1.0
    else {
      val ms = taskMsByStage.values.maxBy(_.sum).map(_.toDouble)
      ms.max / math.max(Stats.median(ms), 1.0)
    }
}

/** Attributes Spark task metrics to the job group that was set on the
  * benchmark thread when the job started, so a span can report the tasks
  * and shuffle bytes of exactly the calls inside it.
  */
final class GroupListener extends SparkListener {
  // the local property SparkContext.setJobGroup sets
  private val JobGroupKey = "spark.jobGroup.id"
  private val groupOfJob = mutable.HashMap[Int, String]()
  private val groupOfStage = mutable.HashMap[Int, String]()
  private val started = mutable.HashMap[String, Int]().withDefaultValue(0)
  private val ended = mutable.HashMap[String, Int]().withDefaultValue(0)
  private val tasks = mutable.HashMap[String, mutable.ArrayBuffer[(Int, Long, Long)]]()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(JobGroupKey))).foreach { g =>
      groupOfJob(e.jobId) = g
      e.stageIds.foreach(groupOfStage(_) = g)
      started(g) = started(g) + 1
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    groupOfJob.get(e.jobId).foreach(g => ended(g) = ended(g) + 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    groupOfStage.get(e.stageId).foreach { g =>
      val written = Option(e.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
      tasks.getOrElseUpdate(g, mutable.ArrayBuffer()) += ((e.stageId, e.taskInfo.duration, written))
    }
  }

  /** Run `f` with the job group `group` set, then wait until the listener
    * has seen every event of its jobs: a one-task marker job is started
    * after `f` returns, and the bus delivers events in the order they were
    * posted, so once the marker's end arrives so have all of `f`'s.
    */
  def scoped[A](sc: SparkContext, group: String)(f: => A): A = {
    def inGroup[B](g: String)(body: => B): B = {
      sc.setJobGroup(g, g)
      try body finally sc.clearJobGroup()
    }
    val a = inGroup(group)(f)
    val marker = s"$group.end"
    inGroup(marker)(sc.parallelize(Seq(0), 1).count())
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (synchronized(ended(marker) < 1) && System.nanoTime() < deadline) Thread.sleep(2)
    require(synchronized(ended(marker) >= 1), s"listener missed the events of $group")
    a
  }

  def of(group: String): GroupTasks = synchronized {
    val ts = tasks.getOrElse(group, mutable.ArrayBuffer())
    GroupTasks(ts.length, ts.map(_._3).sum, ts.groupBy(_._1).map { case (s, xs) => s -> xs.map(_._2).toSeq })
  }
}
