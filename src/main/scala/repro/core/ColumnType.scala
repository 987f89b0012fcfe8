package repro.core

import org.apache.spark.sql.DataFrame
import repro.llm.{Knowledge, LLMClient}
import repro.profile.Profiler

/** §2.1.4 Column Type.
  *
  * The LLM inspects the catalog type and the value profile and suggests the
  * semantically suitable type; cleaning is a CAST. Two suggestions change
  * value representations (and so are applied as rewrites): boolean-looking
  * text → canonical "True"/"False" (the paper casts "yes"/"no" to bool), and
  * uniform duration text → total minutes as DOUBLE. A pure numeric cast
  * ("123" → 123) changes no surface value, so it is dropped: no rewrite is
  * applied and no `CAST` is emitted, which keeps the output schema equal to
  * the input's.
  */
object ColumnType {

  def step(
      df: DataFrame,
      llm: LLMClient,
      exclude: Set[String] = Set.empty,
      maxValues: Int = 3000,
  ): Option[CleaningStep] = {
    val rewrites = StringOutliers.stringColumns(df, exclude).flatMap { c =>
      val values = Profiler.profileColumn(df, c, maxValues).frequentValues
      llm.suggestType(c, "string", values).flatMap { sug =>
        sug.rewriteKind match {
          case "boolean" =>
            val mapping = values
              .flatMap(v => Knowledge.booleanConcept(v.value).filter(_ != v.value).map(v.value -> _))
              .sortBy(_._1)
            Option.when(mapping.nonEmpty)(
              ColumnRewrite(c, MapValues(mapping), s"${sug.reasoning} Cast to ${sug.targetType}.")
            )
          case "duration-minutes" =>
            val mapping = values
              .flatMap { v =>
                Knowledge.Duration.parseMinutes(v.value).map(m => v.value -> m.toDouble.toString)
              }
              .filter { case (bad, good) => bad != good }
              .sortBy(_._1)
            Option.when(mapping.nonEmpty)(
              ColumnRewrite(c, MapValues(mapping), s"${sug.reasoning} Cast to ${sug.targetType} (total minutes).")
            )
          case "rating-number" =>
            val mapping = values
              .flatMap(v => Knowledge.Rating.render(v.value, "plain").filter(_ != v.value).map(v.value -> _))
              .sortBy(_._1)
            Option.when(mapping.nonEmpty)(
              ColumnRewrite(c, MapValues(mapping), s"${sug.reasoning} Cast to ${sug.targetType}.")
            )
          case _ => None // numeric-cast: representation-preserving, dropped
        }
      }
    }
    if (rewrites.isEmpty) None else Some(CleaningStep("column-type", rewrites))
  }
}
