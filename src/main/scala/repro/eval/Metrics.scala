package repro.eval

import org.apache.spark.sql.{DataFrame, functions => F}
import repro.datasets.BenchDataset

/** Cell-repair scores for one (system, dataset) pair. */
final case class Scores(
    system: String,
    dataset: String,
    precision: Double,
    recall: Double,
    f1: Double,
    changedCells: Long,
    correctChanges: Long,
    errorCells: Long,
) {
  def row: String = f"$system%-12s $dataset%-9s P=$precision%.2f R=$recall%.2f F=$f1%.2f " +
    f"(changed=$changedCells correct=$correctChanges errors=$errorCells)"
}

/** Cell-level precision/recall/F1 of a repair, the benchmarks' standard
  * metric: precision = correctly-changed / changed, recall = correctly-
  * changed / error cells.
  *
  * Implements the paper's Table-1 evaluation rules via `excludeTypes`:
  * column-type and DMV cells are dropped from every count ("we consider them
  * correct even if they do not perform these casts"), so a system is neither
  * rewarded nor punished on them; Table 3 passes an empty exclusion set.
  * All comparison is null-safe on the string cell values.
  */
object Metrics {

  val table1Excluded: Set[String] = Set("coltype", "dmv")

  /** Wide → long: (row_id, column, value) over the data columns. */
  def melt(df: DataFrame, keyCol: String, dataColumns: Seq[String]): DataFrame = {
    val kv = dataColumns.flatMap(c => Seq(F.lit(c), F.col(c).cast("string")))
    df.select(
      F.col(keyCol).cast("long").as("row_id"),
      F.stack((F.lit(dataColumns.size) +: kv): _*).as(Seq("column", "value")),
    )
  }

  /** One row per considered cell: `row_id`, `column`, `dirty_v`, `clean_v`,
    * `out_v` and the cell's `error_type` label (null when the cell is clean).
    * Cells whose label is in `excludeTypes` are dropped.
    *
    * The joins are shuffled hash joins. A broadcast join would leave its hash
    * relation in the driver's block manager until some later GC let Spark's
    * cleaner drop it, so the driver's retained memory would depend on GC timing.
    */
  def cells(ds: BenchDataset, output: DataFrame, excludeTypes: Set[String]): DataFrame = {
    def shuffleHash(df: DataFrame) = df.hint("shuffle_hash")
    val d = melt(ds.dirty, ds.keyCol, ds.dataColumns).withColumnRenamed("value", "dirty_v")
    val c = melt(ds.clean, ds.keyCol, ds.dataColumns).withColumnRenamed("value", "clean_v")
    val o = melt(output, ds.keyCol, ds.dataColumns).withColumnRenamed("value", "out_v")
    val joined = d
      .join(shuffleHash(c), Seq("row_id", "column"))
      .join(shuffleHash(o), Seq("row_id", "column"))
      .join(shuffleHash(ds.labels), Seq("row_id", "column"), "left")
    if (excludeTypes.isEmpty) joined
    else joined.filter(F.col("error_type").isNull || !F.col("error_type").isin(excludeTypes.toSeq: _*))
  }

  /** Over [[cells]]: the system changed the cell, and the change is correct. */
  val changed = !(F.col("out_v") <=> F.col("dirty_v"))
  val correct = F.col("out_v") <=> F.col("clean_v")

  def score(
      ds: BenchDataset,
      systemName: String,
      output: DataFrame,
      excludeTypes: Set[String],
  ): Scores = {
    val isError = F.col("error_type").isNotNull
    val agg = cells(ds, output, excludeTypes)
      .agg(
        F.sum(F.when(changed, 1L).otherwise(0L)).as("changed"),
        F.sum(F.when(changed && correct, 1L).otherwise(0L)).as("correctChanged"),
        F.sum(F.when(isError, 1L).otherwise(0L)).as("errors"),
      )
      .collect()(0)
    val nChanged = agg.getLong(0); val nCorrect = agg.getLong(1); val nErrors = agg.getLong(2)
    val p = if (nChanged == 0) 0.0 else nCorrect.toDouble / nChanged
    val r = if (nErrors == 0) 0.0 else nCorrect.toDouble / nErrors
    val f = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    Scores(systemName, ds.name, p, r, f, nChanged, nCorrect, nErrors)
  }
}
