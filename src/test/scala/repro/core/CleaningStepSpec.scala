package repro.core

import repro.{Oracle, SparkSpec}
import repro.util.SqlGen

class CleaningStepSpec extends SparkSpec {
  import spark.implicits._

  private lazy val df = Seq(
    (1L, "eng", "N/A"), (2L, "English", "12"), (3L, "fre", "15"), (4L, "French", "99"),
  ).toDF("row_id", "lang", "score")

  test("renderExpr MapValues produces a CASE WHEN") {
    val sql = CleaningStep.renderExpr("lang", MapValues(Seq("English" -> "eng")), SqlGen.ident)
    assert(sql == "CASE WHEN `lang` = 'English' THEN 'eng' ELSE `lang` END")
  }

  test("renderExpr FdRepair guards on both lhs and rhs") {
    val sql = CleaningStep.renderExpr("city", FdRepair(Seq(FdCase("zip", "36000", "Boston", "Dothan"))), SqlGen.ident)
    assert(sql.contains("`zip` = '36000' AND `city` = 'Boston' THEN 'Dothan'"))
  }

  test("renderExpr FdRepair with no cases is the bare column") {
    assert(CleaningStep.renderExpr("c", FdRepair(Seq.empty), SqlGen.ident) == "`c`")
  }

  test("renderSelect passes through untouched columns and comments rewrites") {
    val step = CleaningStep("string-outliers", Seq(ColumnRewrite("lang", MapValues(Seq("English" -> "eng")), "why")))
    val sql = CleaningStep.renderSelect(step, Seq("row_id", "lang", "score"), "t", SqlGen.ident)
    assert(sql.contains("-- lang: why") && sql.contains("`row_id`") && sql.contains("AS `lang`"))
  }

  test("apply executes the generated SQL and rewrites values") {
    val step = CleaningStep("s", Seq(ColumnRewrite("lang", MapValues(Seq("English" -> "eng", "French" -> "fre")), "r")))
    val out = CleaningStep.apply(df, step)
    val langs = out.select("lang").as[String].collect().toSet
    assert(langs == Set("eng", "fre"))
  }

  test("apply MapToNull nulls DMV tokens") {
    val step = CleaningStep("dmv", Seq(ColumnRewrite("score", MapToNull(Seq("N/A")), "r")))
    val out = CleaningStep.apply(df, step)
    assert(out.filter("score IS NULL").count() == 1)
  }

  test("apply RangeClamp nulls out-of-range values") {
    val step = CleaningStep("num", Seq(ColumnRewrite("score", RangeClamp(None, Some(50)), "r")))
    val out = CleaningStep.apply(df, step)
    // "99" clamped to NULL; "N/A" is not numeric, TRY_CAST yields NULL which
    // fails the predicate, so the token survives for the DMV stage.
    assert(out.filter("score IS NULL").count() == 1)
    assert(out.filter("score = 'N/A'").count() == 1)
  }

  test("apply on a noop step returns the input unchanged") {
    val out = CleaningStep.apply(df, CleaningStep("noop", Seq.empty))
    assert(out eq df)
  }

  test("dropExactDuplicates dedupes rows") {
    val dup = Seq(("a", "1"), ("a", "1"), ("b", "2")).toDF("x", "y")
    val out = CleaningStep.apply(dup, CleaningStep("dup", Seq.empty, DropDuplicates))
    assert(out.count() == 2)
  }

  test("generated SQL is portable: Spark and DuckDB agree on a MapValues step") {
    val step = CleaningStep("s", Seq(ColumnRewrite("lang", MapValues(Seq("English" -> "eng", "French" -> "fre")), "r")))
    val sparkOut = CleaningStep.apply(df, step)
    val duckSql = CleaningStep.renderSelect(step, Seq("row_id", "lang", "score"), "input", SqlGen.identAnsi)
    Oracle.assertEquivalent(sparkOut, duckSql, "input" -> df)
    // ...and the oracle rejects a result the SQL does not produce.
    intercept[IllegalArgumentException](Oracle.assertEquivalent(df, duckSql, "input" -> df))
  }

  test("generated SQL is portable: FdRepair step") {
    val fdf = Seq((1L, "z1", "Boston"), (2L, "z1", "Dothan"), (3L, "z2", "Reno")).toDF("row_id", "zip", "city")
    val step = CleaningStep("fd", Seq(ColumnRewrite("city", FdRepair(Seq(FdCase("zip", "z1", "Boston", "Dothan"))), "r")))
    val sparkOut = CleaningStep.apply(fdf, step)
    val duckSql = CleaningStep.renderSelect(step, Seq("row_id", "zip", "city"), "input", SqlGen.identAnsi)
    Oracle.assertEquivalent(sparkOut, duckSql, "input" -> fdf)
    assert(sparkOut.filter("city = 'Boston'").count() == 0)
  }

  test("generated SQL is portable: MapToNull and RangeClamp steps") {
    val step = CleaningStep("x", Seq(
      ColumnRewrite("score", MapToNull(Seq("N/A")), "dmv"),
    ))
    val sparkOut = CleaningStep.apply(df, step)
    val duckSql = CleaningStep.renderSelect(step, Seq("row_id", "lang", "score"), "input", SqlGen.identAnsi)
    Oracle.assertEquivalent(sparkOut, duckSql, "input" -> df)
  }
}
