package repro.core

import org.apache.spark.sql.DataFrame
import repro.util.SqlGen

/** How one column is rewritten by a cleaning step. All of Cocoon's cleaning
  * actions (paper §2.1) reduce to these four SQL-expressible forms, which is
  * what makes the output "scalable, interpretable, and reusable" (§2.2).
  */
sealed trait Rewrite

/** `CASE WHEN col='bad' THEN 'good' ... ELSE col END` — typo/representation
  * fixes (§2.1.1), pattern standardisation (§2.1.2), boolean casts (§2.1.4).
  */
final case class MapValues(mapping: Seq[(String, String)]) extends Rewrite

/** `CASE WHEN col IN (...) THEN NULL ELSE col END` — DMV cleaning (§2.1.3). */
final case class MapToNull(values: Seq[String]) extends Rewrite

/** Null values outside the semantically acceptable range (§2.1.5). */
final case class RangeClamp(lo: Option[Double], hi: Option[Double]) extends Rewrite

/** One FD-violation repair: in rows where `lhsCol = lhsVal`, replace the bad
  * rhs value with the resolved correct one (§2.1.6).
  */
final case class FdCase(lhsCol: String, lhsVal: String, badRhs: String, target: String)

/** `CASE WHEN lhs='l' AND col='bad' THEN 'good' ... ELSE col END`. */
final case class FdRepair(cases: Seq[FdCase]) extends Rewrite

/** A column rewrite with the LLM's natural-language reasoning, which becomes
  * the SQL comment in the emitted script (paper Figure 5).
  */
final case class ColumnRewrite(column: String, rewrite: Rewrite, reasoning: String)

/** Which rows a step keeps. */
sealed trait RowAction

/** Every row passes through. */
case object KeepRows extends RowAction

/** `SELECT DISTINCT` — erroneous exact duplicates (§2.1.7). */
case object DropDuplicates extends RowAction

/** One row per `key`, preferring the greatest `order` value (§2.1.8), with
  * the LLM's reasoning as the step's comment.
  */
final case class DedupeBy(key: String, order: String, reasoning: String) extends RowAction

/** One stage of the pipeline: all rewrites for one issue type plus its row
  * action, applied as a single SELECT.
  */
final case class CleaningStep(issue: String, rewrites: Seq[ColumnRewrite], rows: RowAction = KeepRows) {
  def isNoop: Boolean = rewrites.isEmpty && rows == KeepRows
}

object CleaningStep {

  /** Render a rewrite as a SQL expression in the given identifier dialect
    * (backticks for Spark, double quotes for DuckDB — the oracle re-runs the
    * same logical SQL there).
    */
  def renderExpr(col: String, rw: Rewrite, quote: String => String): String = rw match {
    case MapValues(m)      => SqlGen.caseWhenMap(col, m, quote)
    case MapToNull(vs)     => SqlGen.caseWhenNull(col, vs, quote)
    case RangeClamp(lo, hi) => SqlGen.caseWhenRange(col, lo, hi, quote)
    case FdRepair(cases) =>
      if (cases.isEmpty) quote(col)
      else {
        val whens = cases
          .map(c =>
            s"WHEN ${quote(c.lhsCol)} = ${SqlGen.lit(c.lhsVal)} AND ${quote(col)} = ${SqlGen.lit(c.badRhs)} " +
              s"THEN ${SqlGen.lit(c.target)}"
          )
          .mkString(" ")
        s"CASE $whens ELSE ${quote(col)} END"
      }
  }

  /** The step's projection: every column, rewritten ones as `expr AS col`. */
  private def selectItems(step: CleaningStep, allColumns: Seq[String], quote: String => String): Seq[String] = {
    val byCol = step.rewrites.map(r => r.column -> r.rewrite).toMap
    allColumns.map(c => byCol.get(c).fold(quote(c))(rw => s"${renderExpr(c, rw, quote)} AS ${quote(c)}"))
  }

  /** `ROW_NUMBER()` over each key's rows, greatest `order` first. The other
    * columns break ties, so the kept row does not depend on partitioning;
    * null order is explicit because Spark and DuckDB default differently.
    */
  private def renderRowNumber(d: DedupeBy, allColumns: Seq[String], quote: String => String): String = {
    val tiebreak = allColumns.filterNot(c => c == d.key || c == d.order).map(c => s"${quote(c)} ASC NULLS LAST")
    val order    = (s"${quote(d.order)} DESC NULLS LAST" +: tiebreak).mkString(", ")
    s"ROW_NUMBER() OVER (PARTITION BY ${quote(d.key)} ORDER BY $order)"
  }

  /** A row-number alias that no input column uses. */
  private def rowNumberAlias(allColumns: Seq[String]): String = {
    val taken = allColumns.map(_.toLowerCase).toSet
    (Iterator("__rn") ++ Iterator.from(1).map(i => s"__rn$i")).find(a => !taken(a)).get
  }

  /** Full SELECT for one step over `fromRelation`, with reasoning comments. */
  def renderSelect(
      step: CleaningStep,
      allColumns: Seq[String],
      fromRelation: String,
      quote: String => String,
  ): String = {
    val reasons = step.rewrites.map(r => r.column -> r.reasoning) ++ (step.rows match {
      case d: DedupeBy => Seq(d.key -> d.reasoning)
      case _           => Nil
    })
    val head  = reasons.map { case (c, why) => SqlGen.comment(s"$c: $why") + "\n" }.mkString
    val items = selectItems(step, allColumns, quote).mkString(",\n  ")
    step.rows match {
      case KeepRows       => s"${head}SELECT $items\nFROM $fromRelation"
      case DropDuplicates => s"${head}SELECT DISTINCT $items\nFROM $fromRelation"
      case d: DedupeBy =>
        val rn = quote(rowNumberAlias(allColumns))
        s"${head}SELECT $items\nFROM (\n  SELECT *, ${renderRowNumber(d, allColumns, quote)} AS $rn\n" +
          s"  FROM $fromRelation\n)\nWHERE $rn = 1"
    }
  }

  /** Apply one step with `selectExpr` over the very expressions
    * [[renderSelect]] emits — the reproduction runs the SQL text Cocoon
    * prints, not a parallel DataFrame re-implementation of it.
    */
  def apply(df: DataFrame, step: CleaningStep): DataFrame = {
    if (step.isNoop) return df
    val cols  = df.columns.toSeq
    val items = selectItems(step, cols, SqlGen.ident)
    step.rows match {
      case KeepRows       => df.selectExpr(items: _*)
      case DropDuplicates => df.selectExpr(items: _*).distinct()
      case d: DedupeBy =>
        val rn = SqlGen.ident(rowNumberAlias(cols))
        df.selectExpr("*", s"${renderRowNumber(d, cols, SqlGen.ident)} AS $rn").where(s"$rn = 1").selectExpr(items: _*)
    }
  }
}
