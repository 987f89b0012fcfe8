package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{CleanAgentLite, HoloCleanLite, RahaBaranLite, RetCleanLite}
import repro.core.{CocoonConfig, CocoonPipeline}
import repro.datasets._
import repro.llm.SimulatedLLM

/** Cocoon as a [[CleaningSystem]]: the full §2 pipeline over Spark SQL. */
final class CocoonSystem extends CleaningSystem {
  override def name: String = "Cocoon"
  override def clean(spark: SparkSession, ds: BenchDataset): DataFrame =
    CocoonPipeline
      .run(spark, ds.dirty, new SimulatedLLM(), CocoonConfig(keyCol = ds.keyCol, tableDesc = ds.name))
      .cleaned
}

/** Runs system × dataset grids and produces the paper's tables. */
object Harness {

  def allSystems(): Seq[CleaningSystem] = Seq(
    new HoloCleanLite(),
    new RahaBaranLite(),
    new CleanAgentLite(),
    new RetCleanLite(),
    new CocoonSystem(),
  )

  def dataset(spark: SparkSession, name: String): BenchDataset = name match {
    case "hospital" => Hospital.generate(spark)
    case "flights"  => Flights.generate(spark)
    case "beers"    => Beers.generate(spark)
    case "rayyan"   => Rayyan.generate(spark)
    case "movies"   => Movies.generate(spark)
    case other      => throw new IllegalArgumentException(s"unknown benchmark: $other")
  }

  val table1Datasets: Seq[String] = Seq("hospital", "flights", "beers", "rayyan", "movies")
  val table3Datasets: Seq[String] = Seq("hospital", "movies")

  /** Evaluate one system on one dataset under the given exclusion rules. */
  def evaluate(
      spark: SparkSession,
      ds: BenchDataset,
      system: CleaningSystem,
      excludeTypes: Set[String],
  ): Scores = {
    val out = system.clean(spark, ds).cache()
    try Metrics.score(ds, system.name, out, excludeTypes)
    // Blocking, so the cached blocks are gone when evaluate returns.
    finally out.unpersist(blocking = true)
  }

  /** Format a Table-1-style block: systems × datasets, P/R/F columns. */
  def formatTable(scores: Seq[Scores], datasets: Seq[String]): String = {
    val bySystem = scores.groupBy(_.system)
    val header = f"${"System"}%-12s" + datasets.map(d => f"  ${d}%-17s").mkString
    val sub    = " " * 12 + datasets.map(_ => f"  ${"P"}%5s ${"R"}%5s ${"F"}%5s").mkString
    val systemOrder = Seq("HoloClean", "Raha+Baran", "CleanAgent", "RetClean", "Cocoon").filter(bySystem.contains)
    val rows = systemOrder.map { s =>
      val cells = datasets.map { d =>
        bySystem(s).find(_.dataset == d) match {
          case Some(sc) => f"  ${sc.precision}%5.2f ${sc.recall}%5.2f ${sc.f1}%5.2f"
          case None     => "      -     -     -"
        }
      }
      f"$s%-12s" + cells.mkString
    }
    (header +: sub +: rows).mkString("\n")
  }
}
