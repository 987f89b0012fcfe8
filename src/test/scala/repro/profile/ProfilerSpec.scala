package repro.profile

import repro.SparkSpec

class ProfilerSpec extends SparkSpec {
  import spark.implicits._

  private lazy val df = Seq(
    ("a", "1", "x"), ("a", "1", "y"), ("a", "1", "x"),
    ("b", "2", "x"), ("b", "2", "y"), ("b", "3", "x"),
    (null, null, "x"),
  ).toDF("k", "v", "w")

  test("profileColumn counts rows, nulls, distincts") {
    val p = Profiler.profileColumn(df, "k")
    assert(p.rowCount == 7 && p.nullCount == 1 && p.distinctCount == 2)
  }

  test("profileColumn frequent values are ordered most-frequent first") {
    val p = Profiler.profileColumn(df, "k")
    assert(p.frequentValues.map(_.value) == Seq("a", "b"))
    assert(p.frequentValues.map(_.count) == Seq(3L, 3L))
  }

  test("profileColumn caps the value list") {
    val p = Profiler.profileColumn(df, "v", maxValues = 2)
    assert(p.frequentValues.size == 2)
  }

  test("profileColumn numeric stats over the parseable subset") {
    val p = Profiler.profileColumn(df, "v")
    assert(p.minNumeric.contains(1.0) && p.maxNumeric.contains(3.0))
    assert(p.numericParseRate == 1.0)
  }

  test("profileColumn parse rate reflects non-numeric values") {
    val p = Profiler.profileColumn(df, "k")
    assert(p.numericParseRate == 0.0 && p.minNumeric.isEmpty)
  }

  test("nullRate and uniqueRatio derive correctly") {
    val p = Profiler.profileColumn(df, "k")
    assert(math.abs(p.nullRate - 1.0 / 7) < 1e-9)
    assert(math.abs(p.uniqueRatio - 2.0 / 7) < 1e-9)
  }

  test("duplicateRowCount counts beyond-first duplicates") {
    val d = Seq(("a", 1), ("a", 1), ("a", 1), ("b", 2)).toDF("x", "y")
    assert(Profiler.duplicateRowCount(d) == 2)
    assert(Profiler.duplicateRowCount(d.distinct()) == 0)
  }

  test("scoreFd gives 1.0 on an exact FD") {
    val d = Seq(("a", "1"), ("a", "1"), ("b", "2")).toDF("l", "r")
    val fd = Profiler.scoreFd(d, "l", "r")
    assert(fd.strength == 1.0 && fd.violatingGroups == 0)
  }

  test("scoreFd plurality-agreement strength dents proportionally to violations") {
    // group a: 3 of 4 agree; group b: 2 of 2 agree → 5/6
    val d = Seq(("a", "1"), ("a", "1"), ("a", "1"), ("a", "9"), ("b", "2"), ("b", "2")).toDF("l", "r")
    val fd = Profiler.scoreFd(d, "l", "r")
    assert(math.abs(fd.strength - 5.0 / 6) < 1e-9 && fd.violatingGroups == 1)
  }

  test("fdViolatingGroups lists per-group rhs values most-frequent first") {
    val rows = Seq.fill(5)(("a", "1")) ++ Seq(("a", "2")) ++ Seq.fill(3)(("b", "9"))
    val d = rows.toDF("l", "r")
    val groups = Profiler.fdViolatingGroups(d, "l", "r")
    assert(groups.size == 1)
    val (lhs, vals) = groups.head
    assert(lhs == "a" && vals.map(_.value) == Seq("1", "2") && vals.map(_.count) == Seq(5L, 1L))
  }

  test("fdViolatingGroups caps the number of groups") {
    val rows = (0 until 20).flatMap(i => Seq((s"g$i", "1"), (s"g$i", "2")))
    val d = rows.toDF("l", "r")
    assert(Profiler.fdViolatingGroups(d, "l", "r", maxGroups = 5).size == 5)
  }
}
