package repro.core

import org.apache.spark.sql.DataFrame
import repro.llm.LLMClient
import repro.profile.Profiler

/** §2.1.8 Column Uniqueness.
  *
  * Statistical detection computes each column's unique ratio; the LLM decides
  * whether the column should be unique semantically (primary-key-like names);
  * cleaning keeps one row per key via a window function, prioritised by a
  * column the LLM picks as carrying recency (e.g. the latest time), falling
  * back to the first column for determinism.
  */
object Uniqueness {

  /** Columns an LLM would pick to prioritise records by, in preference order. */
  def pickOrderColumn(columns: Seq[String], keyCol: String): String = {
    val others = columns.filterNot(_ == keyCol)
    others
      .find(c => Seq("updated", "modified", "time", "date", "created").exists(c.toLowerCase.contains))
      .getOrElse(others.headOption.getOrElse(keyCol))
  }

  def step(df: DataFrame, llm: LLMClient, exclude: Set[String] = Set.empty): Option[CleaningStep] = {
    val cols = df.columns.toSeq.filterNot(exclude)
    cols
      .map(c => (c, Profiler.profileColumn(df, c, maxValues = 1).uniqueRatio))
      .find { case (c, ratio) => ratio < 1.0 && llm.shouldBeUnique(c, ratio) }
      .map { case (key, ratio) =>
        val ord = pickOrderColumn(df.columns.toSeq, key)
        val why = f"'$key' should identify a record but only $ratio%.2f of its values are unique; " +
          s"kept one row per key, preferring the greatest '$ord'."
        CleaningStep("uniqueness", Seq.empty, DedupeBy(key, ord, why))
      }
  }
}
