package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.llm.LLMClient
import repro.util.SqlGen

/** Configuration knobs for one pipeline run. `keyCol` is the row identifier
  * and is never rewritten; `tableDesc` feeds the duplication judgement.
  */
final case class CocoonConfig(
    keyCol: String = "row_id",
    tableDesc: String = "table",
    valueBatchSize: Int = 1000,
    maxFrequentValues: Int = 1000,
    minFdStrength: Double = 0.3,
)

/** The result of a Cocoon run: the cleaned DataFrame, the per-issue steps
  * that fired, and the full commented SQL script (Figure 5 analogue) — a CTE
  * chain equivalent to what was executed.
  */
final case class CocoonResult(cleaned: DataFrame, steps: Seq[CleaningStep], script: String)

/** The paper's core contribution: decompose cleaning per issue type, each
  * issue into statistical detection → semantic detection → semantic cleaning,
  * applied in the dependency order §2.1 mandates (typos must be fixed before
  * patterns can be standardised, patterns before casts, casts before numeric
  * profiling; FDs and row-level issues last).
  *
  * Each stage's detection runs against the *output* of the previous stage, so
  * e.g. FD grouping sees typo-fixed values — the reason the order matters.
  */
object CocoonPipeline {

  def run(
      spark: SparkSession,
      input: DataFrame,
      llm: LLMClient,
      cfg: CocoonConfig = CocoonConfig(),
  ): CocoonResult = {
    val exclude = Set(cfg.keyCol)
    val stages: Seq[DataFrame => Option[CleaningStep]] = Seq(
      d => StringOutliers.step(d, llm, exclude, cfg.maxFrequentValues, cfg.valueBatchSize),
      d => PatternOutliers.step(d, llm, exclude),
      d => Dmv.step(d, llm, exclude),
      d => ColumnType.step(d, llm, exclude),
      d => NumericOutliers.step(d, llm, exclude),
      d => FunctionalDeps.step(d, llm, exclude, cfg.minFdStrength),
      d => Duplication.step(d, llm, cfg.tableDesc),
      d => Uniqueness.step(d, llm, exclude),
    )
    var df    = input
    var steps = Vector.empty[CleaningStep]
    for (stage <- stages; step <- stage(df).filterNot(_.isNoop)) {
      df = CleaningStep.apply(df, step).localCheckpoint(eager = true) // keep lineage flat across stages
      steps :+= step
    }
    CocoonResult(df, steps, renderScript(steps, input.columns.toSeq, SqlGen.ident))
  }

  /** CTE name part for each issue: the pipeline's short stage names. */
  private val stageName = Map("disguised-missing-values" -> "dmv", "functional-dependencies" -> "functional_deps")

  /** The whole cleaning script: one commented CTE per step over the relation
    * `input` with columns `inputColumns`, in either identifier dialect
    * ([[SqlGen.ident]] for Spark, [[SqlGen.identAnsi]] for DuckDB).
    */
  def renderScript(steps: Seq[CleaningStep], inputColumns: Seq[String], quote: String => String): String =
    if (steps.isEmpty) "-- no data quality issues detected\nSELECT * FROM input"
    else {
      val names = steps.zipWithIndex.map { case (s, i) =>
        s"cleaned_${i + 1}_${stageName.getOrElse(s.issue, s.issue.replace('-', '_'))}"
      }
      val ctes = steps.zip("input" +: names).zip(names).map { case ((step, from), name) =>
        s"$name AS (\n${CleaningStep.renderSelect(step, inputColumns, from, quote)}\n)"
      }
      s"${ctes.mkString("WITH ", ",\n", "")}\nSELECT * FROM ${names.last}"
    }
}
