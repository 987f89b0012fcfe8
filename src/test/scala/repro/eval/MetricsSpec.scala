package repro.eval

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.datasets.BenchDataset

class MetricsSpec extends SparkSpec {

  private def strDf(cols: Seq[String], rows: Seq[Seq[Any]]) = {
    val schema = StructType(StructField("row_id", LongType, nullable = false) +:
      cols.map(StructField(_, StringType, nullable = true)))
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows.map(Row.fromSeq), 2), schema)
  }

  private def labelsDf(rows: Seq[(Long, String, String)]) = {
    val schema = StructType(Seq(
      StructField("row_id", LongType, nullable = false),
      StructField("column", StringType, nullable = false),
      StructField("error_type", StringType, nullable = false)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows.map(Row.fromTuple), 2), schema)
  }

  private val cols = Seq("a", "b")
  // row 0: a has a typo error; row 1: b has a coltype error; row 2: clean.
  private lazy val ds = BenchDataset(
    name = "toy",
    dirty  = strDf(cols, Seq(Seq(0L, "bxd", "yes"), Seq(1L, "ok", "yes"), Seq(2L, "ok", "no"))),
    clean  = strDf(cols, Seq(Seq(0L, "bad", "True"), Seq(1L, "ok", "True"), Seq(2L, "ok", "False"))),
    labels = labelsDf(Seq((0L, "a", "typo"), (0L, "b", "coltype"), (1L, "b", "coltype"), (2L, "b", "coltype"))),
    dataColumns = cols,
    fdConstraints = Seq.empty,
  )

  test("perfect repair scores 1/1/1") {
    val s = Metrics.score(ds, "sys", ds.clean, excludeTypes = Set.empty)
    assert(s.precision == 1.0 && s.recall == 1.0 && s.f1 == 1.0)
  }

  test("no-op output scores 0/0/0") {
    val s = Metrics.score(ds, "sys", ds.dirty, excludeTypes = Set.empty)
    assert(s.precision == 0.0 && s.recall == 0.0 && s.f1 == 0.0 && s.changedCells == 0)
  }

  test("excluded error types are dropped from every count") {
    val s = Metrics.score(ds, "sys", ds.dirty, excludeTypes = Set("coltype"))
    assert(s.errorCells == 1) // only the typo remains
  }

  test("a system is not rewarded or punished for excluded cells") {
    // Fix only the coltype cells; under Table-1 rules this counts as nothing.
    val out = strDf(cols, Seq(Seq(0L, "bxd", "True"), Seq(1L, "ok", "True"), Seq(2L, "ok", "False")))
    val s = Metrics.score(ds, "sys", out, excludeTypes = Set("coltype"))
    assert(s.changedCells == 0 && s.recall == 0.0)
    val s3 = Metrics.score(ds, "sys", out, excludeTypes = Set.empty)
    assert(s3.changedCells == 3 && s3.precision == 1.0 && s3.recall == 0.75)
  }

  test("wrong changes to clean cells cost precision") {
    val out = strDf(cols, Seq(Seq(0L, "bad", "yes"), Seq(1L, "WRONG", "yes"), Seq(2L, "ok", "no")))
    val s = Metrics.score(ds, "sys", out, excludeTypes = Set("coltype"))
    assert(s.changedCells == 2 && s.correctChanges == 1 && s.precision == 0.5 && s.recall == 1.0)
  }

  test("null-safe comparison: repairing to NULL counts when clean is NULL") {
    val dsNull = ds.copy(
      clean = strDf(cols, Seq(Seq(0L, null, "True"), Seq(1L, "ok", "True"), Seq(2L, "ok", "False"))),
      labels = labelsDf(Seq((0L, "a", "dmv"), (0L, "b", "coltype"), (1L, "b", "coltype"), (2L, "b", "coltype"))),
    )
    val out = strDf(cols, Seq(Seq(0L, null, "yes"), Seq(1L, "ok", "yes"), Seq(2L, "ok", "no")))
    val s = Metrics.score(dsNull, "sys", out, excludeTypes = Set.empty)
    assert(s.correctChanges == 1)
  }

  test("f1 is the harmonic mean") {
    val out = strDf(cols, Seq(Seq(0L, "bad", "yes"), Seq(1L, "WRONG", "yes"), Seq(2L, "ok", "no")))
    val s = Metrics.score(ds, "sys", out, excludeTypes = Set("coltype"))
    assert(math.abs(s.f1 - 2 * 0.5 * 1.0 / 1.5) < 1e-9)
  }

  test("scoring broadcasts nothing, even where broadcast joins are on") {
    val s = spark.newSession()
    s.conf.set("spark.sql.autoBroadcastJoinThreshold", "10MB")
    def in(df: org.apache.spark.sql.DataFrame) = s.createDataFrame(df.rdd, df.schema)
    val toy = ds.copy(dirty = in(ds.dirty), clean = in(ds.clean), labels = in(ds.labels))
    val cells = Metrics.cells(toy, toy.dirty, Set.empty)
    assert(cells.collect().length == 6)
    assert(!cells.queryExecution.executedPlan.toString.contains("Broadcast"))
  }

  test("melt produces one row per (row, column)") {
    val m = Metrics.melt(ds.dirty, "row_id", cols)
    assert(m.count() == 6)
    assert(m.columns.toSeq == Seq("row_id", "column", "value"))
  }

  test("table1Excluded is coltype and dmv") {
    assert(Metrics.table1Excluded == Set("coltype", "dmv"))
  }
}
