package repro.core

import repro.{Oracle, SparkSpec}
import repro.llm.SimulatedLLM
import repro.util.SqlGen

class DuplicationUniquenessSpec extends SparkSpec {
  import spark.implicits._

  private val llm = new SimulatedLLM()

  test("duplication: erroneous duplicates are dropped via SELECT DISTINCT") {
    val df = (Seq.fill(3)(("a", "1")) ++ Seq(("b", "2"))).toDF("x", "y")
    val step = Duplication.step(df, llm, "customers").get
    assert(step.rows == DropDuplicates)
    assert(CleaningStep.apply(df, step).count() == 2)
  }

  test("duplication: log-like tables keep duplicates (semantic acceptance)") {
    val df = (Seq.fill(3)(("a", "1")) ++ Seq(("b", "2"))).toDF("x", "y")
    assert(Duplication.step(df, llm, "sensor event log").isEmpty)
  }

  test("duplication: no duplicates, no step") {
    val df = Seq(("a", "1"), ("b", "2")).toDF("x", "y")
    assert(Duplication.step(df, llm, "customers").isEmpty)
  }

  test("uniqueness: near-unique key column deduped keeping latest by order column") {
    // 19 distinct keys over 20 rows: ratio 0.95 clears the uniqueness bar.
    val rows = (0 until 19).map(i => (s"k$i", s"2020-01-${10 + i}", "old")) :+
      (("k0", "2021-06-01", "new"))
    val df = rows.toDF("customer_id", "updated_at", "payload")
    val step = Uniqueness.step(df, llm).get
    assert(step.rows match {
      case DedupeBy(key, order, why) => key == "customer_id" && order == "updated_at" && why.nonEmpty
      case _                         => false
    })
    val out = CleaningStep.apply(df, step)
    assert(out.count() == 19)
    assert(out.filter("customer_id = 'k0'").select("payload").collect().head.getString(0) == "new")
    assert(out.columns.toSeq == df.columns.toSeq)
  }

  /** 19 keys over 20 rows where k0's two rows tie on `updated_at`. */
  private def tiedDf(third: String) =
    ((0 until 19).map(i => (s"k$i", "2020-01-01", s"p$i")) :+ (("k0", "2020-01-01", "a")))
      .toDF("customer_id", "updated_at", third)

  test("uniqueness: ties on the order column keep the same row at 1 and 8 partitions") {
    val df   = tiedDf("payload")
    val step = Uniqueness.step(df, llm).get
    val outs = Seq(df.repartition(1), df.orderBy($"payload".desc).repartition(8))
      .map(d => CleaningStep.apply(d, step).collect().map(_.toSeq).toSet)
    assert(outs.head == outs(1) && outs.head.size == 19)
    // The remaining columns break the tie in ascending order: "a" < "p0".
    assert(outs.head.contains(Seq("k0", "2020-01-01", "a")))
  }

  test("uniqueness: an input column named __rn dedupes correctly") {
    val df   = tiedDf("__rn")
    val step = Uniqueness.step(df, llm).get
    val out  = CleaningStep.apply(df, step)
    assert(out.columns.toSeq == df.columns.toSeq)
    assert(out.count() == 19 && out.filter("`__rn` = 'a'").count() == 1)
    val sql = CleaningStep.renderSelect(step, df.columns.toSeq, "input", SqlGen.identAnsi)
    Oracle.assertEquivalent(out, sql, "input" -> df)
  }

  test("uniqueness: fully unique key needs no plan") {
    val df = Seq(("k1", "a"), ("k2", "b")).toDF("customer_id", "v")
    assert(Uniqueness.step(df, llm).isEmpty)
  }

  test("uniqueness: non-key columns are not deduped") {
    val df = Seq(("Boston", "a"), ("Boston", "b"), ("Denver", "c")).toDF("city", "v")
    assert(Uniqueness.step(df, llm).isEmpty)
  }

  test("uniqueness: order column prefers time-like names") {
    assert(Uniqueness.pickOrderColumn(Seq("id", "name", "created_at"), "id") == "created_at")
    assert(Uniqueness.pickOrderColumn(Seq("id", "name"), "id") == "name")
  }

  test("uniqueness: key column below the ratio bar is left alone") {
    val df = (Seq.fill(10)(("k1", "x")) ++ Seq.fill(10)(("k2", "y"))).toDF("customer_id", "v")
    assert(Uniqueness.step(df, llm).isEmpty)
  }
}
