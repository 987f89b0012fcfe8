package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.scheduler.PerfbenchAccess
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core.{CocoonConfig, CocoonPipeline, CocoonResult}
import repro.datasets.BenchDataset
import repro.eval.{CleaningSystem, Harness, Metrics, Scores}
import repro.llm.SimulatedLLM
import scala.collection.mutable
import scala.util.control.NonFatal

/** [[CleaningSystem]] decorator that times `clean`, the baseline's own work. */
final class TimedSystem(inner: CleaningSystem) extends CleaningSystem {
  var seconds = 0.0
  override def name: String = inner.name
  override def clean(spark: SparkSession, ds: BenchDataset): DataFrame = {
    val t0 = System.nanoTime
    try inner.clean(spark, ds)
    finally seconds += (System.nanoTime - t0) / 1e9
  }
}

/** What an operation returned, kept for the correctness gate. */
sealed trait Output
final case class Cleaned(result: CocoonResult, rows: Array[Row]) extends Output
final case class Scored(scores: Scores) extends Output

/** One timed operation: wall time, jobs submitted, per-layer values when
  * traced, and its output or the exception it threw.
  */
final case class OpRecord(
    op: Op,
    seconds: Double,
    jobs: Int,
    layers: Map[String, Double],
    output: Either[Throwable, Output],
)

/** One benchmark run: set up, run whole cycles of the workload for at least
  * `--seconds`, check every output, print one JSON result line.
  *
  * Usage: perfbench.Main --workload NAME --seed N --seconds S --trace 0|1
  *        --cores N --work-dir DIR
  */
object Main {

  val SetupRepeats = 9

  def session(cores: Int, workDir: String): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("cocoon-perfbench")
      .config("spark.sql.shuffle.partitions", "16")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/warehouse")
      .getOrCreate()

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    // Exit explicitly: Spark's non-daemon threads would keep a failed JVM alive.
    val code =
      try {
        val workload = Workload.byName(opt("workload"))
        val ok = run(workload, opt("seed").toLong, opt("seconds").toDouble, opt("trace") == "1", opt("cores").toInt, opt("work-dir"))
        if (ok) 0 else 1
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          2
      }
    sys.exit(code)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def run(workload: Workload, seed: Long, seconds: Double, trace: Boolean, cores: Int, workDir: String): Boolean = {
    // Set-up: session start and input generation, repeated; the median shows
    // work moved into set-up, without the first repetition's class loading.
    val setupTimes = mutable.ArrayBuffer.empty[Double]
    var spark: SparkSession = null
    var tables: Seq[BenchDataset] = Nil
    var generateS = 0.0
    for (rep <- 1 to SetupRepeats) {
      if (spark != null) spark.stop()
      val t0 = System.nanoTime
      spark = session(cores, workDir)
      val t1 = System.nanoTime
      tables = workload.generate(spark, seed)
      generateS = (System.nanoTime - t1) / 1e9
      setupTimes += (System.nanoTime - t0) / 1e9
    }
    val sc   = spark.sparkContext
    val rows = tables.map(t => t.name -> t.dirty.count()).toMap

    def runOp(op: Op, listener: Option[LayerListener], fallbacks: Option[CodegenFallbackCounter]): OpRecord = {
      val jobs0      = PerfbenchAccess.jobsSubmitted(sc)
      val compiles0  = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
      val fallbacks0 = fallbacks.map(_.count.get).getOrElse(0L)
      val before     = listener.map { l => PerfbenchAccess.drainListenerBus(sc); l.snapshot(0L) }
      val llm        = if (trace) new TimingLLM(new SimulatedLLM()) else new SimulatedLLM()
      val system     = op match { case c: CellOp => Some(new TimedSystem(c.system)); case _ => None }
      val startMs    = System.currentTimeMillis
      val t0         = System.nanoTime
      val output: Either[Throwable, Output] =
        try Right(op match {
            case CocoonOp(t) =>
              val r = CocoonPipeline.run(spark, t.dirty, llm, CocoonConfig(keyCol = t.keyCol, tableDesc = t.name))
              Cleaned(r, r.cleaned.collect())
            case CellOp(t, _) => Scored(Harness.evaluate(spark, t, system.get, Metrics.table1Excluded))
          })
        catch { case NonFatal(e) => Left(e) }
      val secs = (System.nanoTime - t0) / 1e9
      val jobs = PerfbenchAccess.jobsSubmitted(sc) - jobs0
      val layers = listener.map { l =>
        PerfbenchAccess.drainListenerBus(sc)
        val after = l.snapshot(startMs)
        val d     = after.map { case (k, v) => k -> (v - before.get.getOrElse(k, 0.0)) }.withDefaultValue(0.0)
        val tllm  = llm match { case t: TimingLLM => Some(t); case _ => None }
        val llmS  = tllm.map(_.nanos / 1e9).getOrElse(0.0)
        val base = Map(
          "profile.jobs"              -> d("profile.jobs"),
          "profile.job_s"             -> d("profile.job_s"),
          "core.stage_jobs"           -> d("core.stage.jobs"),
          "core.stage_job_s"          -> d("core.stage.job_s"),
          "core.apply_jobs"           -> d("core.apply.jobs"),
          "core.apply_job_s"          -> d("core.apply.job_s"),
          "eval.score_jobs"           -> d("eval.score.jobs"),
          "baselines.jobs"            -> d("baselines.jobs"),
          "bench.jobs"                -> d("bench.jobs"),
          "unattributed.jobs"         -> d("unattributed.jobs"),
          "jobs"                      -> d("jobs"),
          "driver.self_s"             -> (secs - after("jobs.busy_ms") / 1000.0 - llmS),
          "core.codegen_fallbacks"    -> (fallbacks.get.count.get - fallbacks0).toDouble,
          "core.codegen_compiles"     -> (CodegenMetrics.METRIC_COMPILATION_TIME.getCount - compiles0).toDouble,
          "spark.tasks"               -> d("spark.tasks"),
          "spark.shuffle_write_bytes" -> d("spark.shuffle_write_bytes"),
          "llm.s"                     -> llmS,
          "eval.score_s"              -> system.map(s => secs - s.seconds).getOrElse(0.0),
          "trace.overhead_s"          -> d("trace.self_s"),
        )
        val perMethod = TimingLLM.callMethods.map(m => s"llm.calls.$m" -> tllm.map(_.calls(m).toDouble).getOrElse(0.0)) ++
          TimingLLM.valueMethods.map(m => s"llm.values.$m" -> tllm.map(_.values(m).toDouble).getOrElse(0.0))
        val clean = system.map(s => s"baselines.clean_s.${systemKey(s.name)}" -> s.seconds)
        base ++ perMethod ++ clean
      }
      OpRecord(op, secs, jobs, layers.getOrElse(Map.empty), output)
    }

    val warmUpS = {
      val t0 = System.nanoTime
      workload.warmUp(spark, seed).map(runOp(_, None, None)).foreach { r =>
        r.output.left.foreach(e => Console.err.println(s"[perfbench] warm-up ${describe(r.op)} threw $e"))
      }
      (System.nanoTime - t0) / 1e9
    }

    val listener = if (trace) Some(new LayerListener) else None
    listener.foreach(sc.addSparkListener)
    val fallbacks = if (trace) Some(CodegenFallbackCounter.install()) else None

    // Timed closed loop over whole cycles.
    val cycle   = workload.cycle(tables)
    val records = mutable.ArrayBuffer.empty[OpRecord]
    val loop0   = System.nanoTime
    do records ++= cycle.map(runOp(_, listener, fallbacks)) while ((System.nanoTime - loop0) / 1e9 < seconds)
    val timedS = (System.nanoTime - loop0) / 1e9
    Console.err.println(f"[perfbench] set-up ${setupTimes.map(t => f"$t%.3f").mkString(" ")} s; warm-up $warmUpS%.3f s; timed loop $timedS%.3f s")

    val tempViewsLeft = spark.catalog.listTables().collect().count(_.isTemporary)
    val persistedLeft = sc.getPersistentRDDs.size

    // Correctness gate, after the timed operations.
    val gate = records.map(r => check(spark, workload, seed, r)).toSeq
    gate.zip(records).foreach { case (g, r) =>
      val verdict = g.fold(msg => s"FAILED: $msg", f1 => f"F1 $f1%.4f")
      Console.err.println(f"[perfbench] ${describe(r.op)}%-24s ${r.seconds}%8.3f s ${r.jobs}%5d jobs  $verdict")
    }
    val f1s       = gate.flatMap(_.toOption)
    val attempted = gate.size
    val failed    = gate.count(_.isLeft)
    val opSeconds = records.map(_.seconds).toSeq
    val rowsDone  = records.map(r => rows(r.op.table.name)).sum.toDouble
    val jobsDone  = records.map(_.jobs).sum.toDouble
    val layerKeys = records.flatMap(_.layers.keys).distinct
    val layerMeans: Map[String, Double] = layerKeys.map { k =>
      val xs = records.flatMap(_.layers.get(k))
      k -> (if (k.startsWith("baselines.clean_s.")) xs.sum / xs.size else xs.sum / records.size)
    }.toMap
    records.clear()
    System.gc(); System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)

    val metrics: Seq[(String, Double, String)] =
      if (!trace)
        Seq(
          ("setup_s", median(setupTimes.toSeq), "s"),
          ("rows_per_s", rowsDone / timedS, "rows/s"),
          ("op_s_p50", median(opSeconds), "s"),
          ("spark_jobs_per_op", jobsDone / attempted, "jobs/op"),
          ("f1_mean", if (f1s.isEmpty) 0.0 else f1s.sum / f1s.size, "F1"),
          ("success_rate", (attempted - failed).toDouble / attempted, "ratio"),
          ("retained_heap_mb", heapMb, "MB"),
        )
      else {
        val endOfRun = Map(
          "jobs.unattributed_share"  -> (if (layerMeans("jobs") == 0) 0.0 else layerMeans("unattributed.jobs") / layerMeans("jobs")),
          "core.temp_views_left"     -> tempViewsLeft.toDouble,
          "core.persisted_rdds_left" -> persistedLeft.toDouble,
          "datasets.generate_s"      -> generateS,
          "bench.warmup_s"           -> warmUpS,
          "trace.op_s_p50"           -> median(opSeconds),
        )
        val values = layerMeans ++ endOfRun
        LayerUnits.map { case (n, u) => (n, values.getOrElse(n, 0.0), u) }
      }
    spark.stop()
    println(Json.result(correct = failed == 0, attempted, failed, metrics))
    failed == 0
  }

  /** Replays the emitted script over the input and compares it with
    * `cleaned` row for row; at the default seed the F1 must equal Table 1.
    * Returns the F1, or why the operation failed.
    */
  def check(spark: SparkSession, workload: Workload, seed: Long, r: OpRecord): Either[String, Double] =
    try {
      val scored: Either[String, (String, Double)] = (r.op, r.output) match {
        case (_, Left(e)) => Left(s"threw $e")
        case (CocoonOp(t), Right(Cleaned(res, rows))) =>
          replayMismatch(spark, t, res, rows)
            .toLeft("Cocoon" -> Metrics.score(t, "Cocoon", res.cleaned, Metrics.table1Excluded).f1)
        case (CellOp(_, s), Right(Scored(sc))) => Right(s.name -> sc.f1)
        case (op, Right(out))                  => Left(s"$op returned ${out.getClass.getSimpleName}")
      }
      scored.flatMap { case (system, f1) =>
        workload.pinnedF1.get((r.op.table.name, system)) match {
          case Some(want) if seed == Workload.DefaultSeed && f"$f1%.4f" != f"$want%.4f" =>
            Left(f"F1 $f1%.6f differs from the pinned Table-1 value $want%.4f")
          case _ => Right(f1)
        }
      }
    } catch { case NonFatal(e) => Left(s"check threw $e") }

  /** None when `SELECT` over the script with `input` bound to the dirty table
    * yields exactly `cleaned` (same column names and types, same rows);
    * otherwise how they differ.
    */
  def replayMismatch(spark: SparkSession, t: BenchDataset, res: CocoonResult, cleaned: Array[Row]): Option[String] = {
    t.dirty.createOrReplaceTempView("input")
    try {
      val replay = spark.sql(res.script)
      def shape(df: DataFrame) = df.schema.map(f => (f.name, f.dataType))
      def canon(rs: Array[Row]) = rs.map(_.toSeq.map(String.valueOf).mkString("\u0001")).sorted.toSeq
      if (shape(replay) != shape(res.cleaned)) Some(s"replayed schema ${shape(replay)} != cleaned ${shape(res.cleaned)}")
      else {
        val got = canon(replay.collect()); val want = canon(cleaned)
        if (got == want) None
        else Some(s"replayed script gives ${got.size} rows, ${got.diff(want).size} not in cleaned (${want.size} rows)")
      }
    } finally spark.catalog.dropTempView("input")
  }

  /** Per-layer metrics in output order, with their units. */
  val LayerUnits: Seq[(String, String)] = Seq(
    "profile.jobs" -> "count", "profile.job_s" -> "s", "driver.self_s" -> "s",
    "core.stage_jobs" -> "count", "core.stage_job_s" -> "s",
    "core.apply_jobs" -> "count", "core.apply_job_s" -> "s",
    "core.codegen_fallbacks" -> "count", "core.codegen_compiles" -> "count",
    "spark.tasks" -> "count", "spark.shuffle_write_bytes" -> "bytes", "llm.s" -> "s",
  ) ++ TimingLLM.callMethods.map(m => s"llm.calls.$m" -> "count") ++
    TimingLLM.valueMethods.map(m => s"llm.values.$m" -> "count") ++
    Seq("eval.score_jobs" -> "count", "eval.score_s" -> "s", "baselines.jobs" -> "count") ++
    Seq("holoclean", "raha_baran", "cleanagent", "retclean").map(k => s"baselines.clean_s.$k" -> "s") ++
    Seq(
      "bench.jobs" -> "count", "jobs.unattributed_share" -> "ratio",
      "core.temp_views_left" -> "count", "core.persisted_rdds_left" -> "count",
      "datasets.generate_s" -> "s", "bench.warmup_s" -> "s", "trace.op_s_p50" -> "s", "trace.overhead_s" -> "s",
    )

  def systemKey(name: String): String = name.toLowerCase.replace('+', '_')

  def describe(op: Op): String = op match {
    case CocoonOp(t)  => s"cocoon/${t.name}"
    case CellOp(t, s) => s"${systemKey(s.name)}/${t.name}"
  }
}
