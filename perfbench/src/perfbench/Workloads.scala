package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession, functions => F}
import repro.baselines.{CleanAgentLite, HoloCleanLite, RahaBaranLite, RetCleanLite}
import repro.datasets._
import repro.eval.CleaningSystem

/** One operation of a closed loop: the next starts when this one returns. */
sealed trait Op { def table: BenchDataset }

/** `CocoonPipeline.run` on one table, materialising `cleaned`. */
final case class CocoonOp(table: BenchDataset) extends Op

/** `Harness.evaluate` of one baseline on one table (a Table-1 cell). */
final case class CellOp(table: BenchDataset, system: CleaningSystem) extends Op

/** A workload turns the seed into tables, and the tables into one cycle of
  * operations. Runs repeat whole cycles, so every run does the same mix.
  * Each `why` is quoted in `BENCHMARK.json`; `perfbench/README.md` says which
  * layers each workload loads and bypasses.
  */
sealed trait Workload {
  def name: String
  def generate(spark: SparkSession, seed: Long): Seq[BenchDataset]
  def cycle(tables: Seq[BenchDataset]): Seq[Op]

  /** Untimed operations on other inputs that let the JIT compile the hot
    * paths first, so a timed operation does not pay for a cold JVM.
    */
  def warmUp(spark: SparkSession, seed: Long): Seq[Op]

  /** Table-1 F1 per (dataset, system) that must hold at [[Workload.DefaultSeed]]. */
  def pinnedF1: Map[(String, String), Double]
}

object Workload {

  /** Seed of the first generator; table i of a workload uses `seed + i`, so
    * the default reproduces the generators' own seeds (42–46).
    */
  val DefaultSeed = 42L

  /** Warm-up inputs come from this far past the workload seed, so they never
    * coincide with a measured table.
    */
  private val WarmUpSeedOffset = 1000L

  /** A slice of another Hospital table, six of its sixteen columns and a
    * fifth of its rows, that still has typo, FD, DMV and type issues.
    */
  private def warmUpHospital(spark: SparkSession, seed: Long): BenchDataset = {
    val h = Hospital.generate(spark, seed + WarmUpSeedOffset)
    val cols = Seq("provider_id", "city", "zip", "measure_code", "emergency_service", "score")
    def slice(df: DataFrame) = df.filter(F.col("row_id") < 200)
    h.copy(
      dirty = slice(h.dirty).select("row_id", cols: _*),
      clean = slice(h.clean).select("row_id", cols: _*),
      labels = slice(h.labels).filter(F.col("column").isin(cols: _*)),
      dataColumns = cols,
    )
  }

  private def baselines: Seq[CleaningSystem] =
    Seq(new HoloCleanLite(), new RahaBaranLite(), new CleanAgentLite(), new RetCleanLite())

  private val paperGenerators: Seq[(SparkSession, Long) => BenchDataset] = Seq(
    Hospital.generate(_, _),
    Flights.generate(_, _),
    Beers.generate(_, _),
    Rayyan.generate(_, _),
    Movies.generate(_, _),
  )

  /** Cocoon on the paper's Hospital table: 1000 rows × 16 columns. */
  case object PaperHospital extends Workload {
    val name = "hospital"
    def generate(spark: SparkSession, seed: Long): Seq[BenchDataset] =
      Seq(Hospital.generate(spark, seed))
    def cycle(tables: Seq[BenchDataset]): Seq[Op] = tables.map(CocoonOp)
    def warmUp(spark: SparkSession, seed: Long): Seq[Op] = Seq(CocoonOp(warmUpHospital(spark, seed)))
    val pinnedF1 = Map(("hospital", "Cocoon") -> 0.9449)
  }

  /** The four baselines of Table 1 on the five paper tables: 20 cells. */
  case object BaselineGrid extends Workload {
    val name = "baseline-grid"
    def generate(spark: SparkSession, seed: Long): Seq[BenchDataset] =
      paperGenerators.zipWithIndex.map { case (g, i) => g(spark, seed + i) }
    def cycle(tables: Seq[BenchDataset]): Seq[Op] = for (t <- tables; s <- baselines) yield CellOp(t, s)
    def warmUp(spark: SparkSession, seed: Long): Seq[Op] =
      cycle(generate(spark, seed + WarmUpSeedOffset).filter(t => Set("hospital", "rayyan")(t.name)))

    /** Measured at the default seeds to four places; EXPERIMENTS.md gives
      * the same values rounded to two.
      */
    val pinnedF1 = Map(
      ("hospital", "HoloClean") -> 0.8098, ("hospital", "Raha+Baran") -> 0.7968,
      ("hospital", "CleanAgent") -> 0.0000, ("hospital", "RetClean") -> 0.0059,
      ("flights", "HoloClean") -> 0.6175, ("flights", "Raha+Baran") -> 0.9180,
      ("flights", "CleanAgent") -> 0.0000, ("flights", "RetClean") -> 0.0000,
      ("beers", "HoloClean") -> 0.0978, ("beers", "Raha+Baran") -> 0.9884,
      ("beers", "CleanAgent") -> 0.0000, ("beers", "RetClean") -> 0.0000,
      ("rayyan", "HoloClean") -> 0.2913, ("rayyan", "Raha+Baran") -> 0.4957,
      ("rayyan", "CleanAgent") -> 0.0000, ("rayyan", "RetClean") -> 0.3244,
      ("movies", "HoloClean") -> 0.0000, ("movies", "Raha+Baran") -> 0.8581,
      ("movies", "CleanAgent") -> 0.0000, ("movies", "RetClean") -> 0.0000,
    )
  }

  val all: Seq[Workload] = Seq(PaperHospital, BaselineGrid)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; choose one of ${all.map(_.name).mkString(", ")}"))
}
