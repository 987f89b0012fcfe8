package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.Assertions._
import repro.Oracle
import repro.util.SqlGen

/** The emitted script is the paper's product: replayed over the input it must
  * give exactly `cleaned`, on Spark and, in ANSI quoting, on DuckDB.
  */
object ScriptReplay {

  def assertReplays(spark: SparkSession, input: DataFrame, res: CocoonResult): Unit = {
    val columns = input.columns.toSeq
    assert(res.script == CocoonPipeline.renderScript(res.steps, columns, SqlGen.ident))
    input.createOrReplaceTempView("input")
    try {
      val replay = spark.sql(res.script)
      assert(replay.schema.map(f => (f.name, f.dataType)) == res.cleaned.schema.map(f => (f.name, f.dataType)))
      val rows = (df: DataFrame) => df.collect().toSeq.map(_.toSeq).sortBy(_.mkString("\u0001"))
      assert(rows(replay) == rows(res.cleaned), "Spark replay of the script differs from cleaned")
    } finally spark.catalog.dropTempView("input")
    Oracle.assertEquivalent(res.cleaned, CocoonPipeline.renderScript(res.steps, columns, SqlGen.identAnsi), "input" -> input)
  }
}
