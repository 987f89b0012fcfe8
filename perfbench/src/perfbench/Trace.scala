package perfbench

import java.util.concurrent.atomic.AtomicLong
import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.Property
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import repro.llm._
import repro.profile.ValueCount
import scala.collection.mutable

/** Maps a call site to the repository module that issued the Spark work.
  *
  * The decision is the first frame of the call site that lies in the program
  * (`repro.*`) or in the benchmark itself (`perfbench.*`); Spark and Scala
  * frames above it are skipped, the way Spark builds the call site.
  */
object Layers {
  val Profile     = "profile"
  val CoreStage   = "core.stage"
  val CoreApply   = "core.apply"
  val EvalScore   = "eval.score"
  val Baselines   = "baselines"
  val Datasets    = "datasets"
  val Bench       = "bench"
  val Unattributed = "unattributed"

  private val stageModules =
    Set("FunctionalDeps", "Duplication", "StringOutliers", "PatternOutliers", "Dmv", "ColumnType", "NumericOutliers")

  def ofCallSite(details: String): Option[String] =
    Option(details).flatMap(_.linesIterator.map(_.trim).find(l => l.startsWith("repro.") || l.startsWith("perfbench.")))
      .map(frame => ofClass(frame.takeWhile(_ != '(')))

  /** `frame` is `package.Class$.method`; nested and lambda classes carry `$`. */
  def ofClass(frame: String): String = {
    val owner  = frame.substring(0, math.max(frame.lastIndexOf('.'), 0)).takeWhile(_ != '$')
    val simple = owner.substring(owner.lastIndexOf('.') + 1)
    if (owner.startsWith("repro.profile.")) Profile
    else if (owner.startsWith("repro.core.")) { if (stageModules(simple)) CoreStage else CoreApply }
    else if (owner == "repro.eval.Metrics") EvalScore
    else if (owner.startsWith("repro.baselines.") || owner == "repro.eval.LocalTable") Baselines
    else if (owner.startsWith("repro.datasets.")) Datasets
    else if (owner.startsWith("perfbench.")) Bench
    else Unattributed
  }
}

/** Counts Spark work per layer. Jobs are attributed through their SQL
  * execution: adaptive execution submits query-stage jobs from its own
  * threads, so a job's stage details often hold no program frame, while the
  * execution's start event carries the call site of the action that began it.
  * Read the counters only after [[org.apache.spark.scheduler.PerfbenchAccess.drainListenerBus]].
  */
final class LayerListener extends SparkListener {
  private val execLayer = mutable.Map.empty[Long, String]
  private val open      = mutable.Map.empty[Int, (Long, String)]
  private val counts    = mutable.Map.empty[String, Double].withDefaultValue(0.0)
  private val intervals = mutable.ArrayBuffer.empty[(Long, Long)]
  private var selfNanos = 0L

  private def timed(f: => Unit): Unit = synchronized {
    val t0 = System.nanoTime
    f
    selfNanos += System.nanoTime - t0
  }

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart => timed {
        Layers.ofCallSite(e.details).orElse(e.rootExecutionId.flatMap(execLayer.get))
          .foreach(execLayer(e.executionId) = _)
      }
    case _ =>
  }

  override def onJobStart(j: SparkListenerJobStart): Unit = timed {
    val byExecution = Option(j.properties)
      .flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .flatMap(id => execLayer.get(id.toLong))
    val layer = byExecution
      .orElse(j.stageInfos.iterator.map(s => Layers.ofCallSite(s.details)).collectFirst { case Some(l) => l })
      .getOrElse(Layers.Unattributed)
    open(j.jobId) = (j.time, layer)
    counts(s"$layer.jobs") += 1
    counts("jobs") += 1
  }

  override def onJobEnd(j: SparkListenerJobEnd): Unit = timed {
    open.remove(j.jobId).foreach { case (start, layer) =>
      counts(s"$layer.job_s") += (j.time - start) / 1000.0
      intervals += ((start, j.time))
    }
  }

  override def onTaskEnd(t: SparkListenerTaskEnd): Unit = timed {
    counts("spark.tasks") += 1
    Option(t.taskMetrics).foreach(m => counts("spark.shuffle_write_bytes") += m.shuffleWriteMetrics.bytesWritten)
  }

  /** Counters so far, plus `jobs.busy_ms`: wall time covered by at least one
    * job that started at or after `sinceMs` (epoch ms), and `trace.self_s`.
    */
  def snapshot(sinceMs: Long): Map[String, Double] = synchronized {
    val busy = intervals.filter(_._1 >= sinceMs).sortBy(_._1).foldLeft((0L, Long.MinValue)) {
      case ((sum, end), (s, e)) =>
        if (e <= end) (sum, end) else (sum + e - math.max(s, end), e)
    }._1
    counts.toMap + ("jobs.busy_ms" -> busy.toDouble) + ("trace.self_s" -> selfNanos / 1e9)
  }
}

/** [[LLMClient]] decorator that counts calls, values reviewed and time per
  * prompt method. "Values reviewed" is the total size of the value lists a
  * call passes in; methods that take no list count calls only.
  */
final class TimingLLM(inner: LLMClient) extends LLMClient {
  val calls: mutable.Map[String, Long]  = mutable.Map.empty.withDefaultValue(0L)
  val values: mutable.Map[String, Long] = mutable.Map.empty.withDefaultValue(0L)
  var nanos = 0L

  private def timed[A](method: String, reviewed: Int)(f: => A): A = {
    val t0 = System.nanoTime
    try f
    finally {
      nanos += System.nanoTime - t0
      calls(method) += 1
      values(method) += reviewed
    }
  }

  override def reviewStringOutliers(column: String, vs: Seq[ValueCount]): StringReview =
    timed("reviewStringOutliers", vs.size)(inner.reviewStringOutliers(column, vs))
  override def proposeStringMapping(column: String, unusual: Seq[String], context: Seq[ValueCount]): Map[String, String] =
    timed("proposeStringMapping", unusual.size + context.size)(inner.proposeStringMapping(column, unusual, context))
  override def reviewPatterns(column: String, vs: Seq[ValueCount]): Option[PatternReview] =
    timed("reviewPatterns", vs.size)(inner.reviewPatterns(column, vs))
  override def identifyDmv(column: String, vs: Seq[ValueCount]): Seq[String] =
    timed("identifyDmv", vs.size)(inner.identifyDmv(column, vs))
  override def suggestType(column: String, currentType: String, vs: Seq[ValueCount]): Option[TypeSuggestion] =
    timed("suggestType", vs.size)(inner.suggestType(column, currentType, vs))
  override def reviewNumericRange(column: String, min: Double, max: Double): Option[(Double, Double)] =
    timed("reviewNumericRange", 0)(inner.reviewNumericRange(column, min, max))
  override def reviewFdMeaningful(lhs: String, rhs: String): Boolean =
    timed("reviewFdMeaningful", 0)(inner.reviewFdMeaningful(lhs, rhs))
  override def resolveFdGroup(lhs: String, rhs: String, lhsValue: String, rhsValues: Seq[ValueCount]): Option[String] =
    timed("resolveFdGroup", rhsValues.size)(inner.resolveFdGroup(lhs, rhs, lhsValue, rhsValues))
  override def duplicationAcceptable(tableDesc: String, duplicateRows: Long, totalRows: Long): Boolean =
    timed("duplicationAcceptable", 0)(inner.duplicationAcceptable(tableDesc, duplicateRows, totalRows))
  override def shouldBeUnique(column: String, uniqueRatio: Double): Boolean =
    timed("shouldBeUnique", 0)(inner.shouldBeUnique(column, uniqueRatio))
}

object TimingLLM {
  val callMethods: Seq[String] = Seq(
    "reviewStringOutliers", "proposeStringMapping", "reviewPatterns", "identifyDmv", "suggestType",
    "reviewNumericRange", "reviewFdMeaningful", "resolveFdGroup", "duplicationAcceptable", "shouldBeUnique",
  )
  val valueMethods: Seq[String] = Seq(
    "reviewStringOutliers", "proposeStringMapping", "reviewPatterns", "identifyDmv", "suggestType", "resolveFdGroup",
  )
}

/** Counts Spark's warnings that whole-stage codegen fell back for a plan. */
final class CodegenFallbackCounter
    extends AbstractAppender("perfbench-codegen-fallbacks", null, null, true, Property.EMPTY_ARRAY) {
  val count = new AtomicLong

  override def append(e: LogEvent): Unit = {
    val m = e.getMessage.getFormattedMessage
    if (m.contains("Whole-stage codegen disabled") || m.contains("whole-stage codegen was disabled")) count.incrementAndGet()
  }
}

object CodegenFallbackCounter {

  /** Attaches a counter to the root logger; Spark's loggers are additive. */
  def install(): CodegenFallbackCounter = {
    val ctx = LogManager.getContext(false).asInstanceOf[LoggerContext]
    val c   = new CodegenFallbackCounter
    c.start()
    ctx.getConfiguration.getRootLogger.addAppender(c, Level.WARN, null)
    ctx.updateLoggers()
    c
  }
}
