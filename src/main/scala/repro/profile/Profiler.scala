package repro.profile

import org.apache.spark.sql.{DataFrame, functions => F}

/** A value with its occurrence count, from a column's frequency profile. */
final case class ValueCount(value: String, count: Long)

/** Profile of a single column (paper §2: "Cocoon leverages traditional
  * statistical methods to profile the tables ... and includes these in the
  * prompt").
  */
final case class ColumnProfile(
    name: String,
    rowCount: Long,
    nullCount: Long,
    distinctCount: Long,
    frequentValues: Seq[ValueCount],
    minNumeric: Option[Double],
    maxNumeric: Option[Double],
    numericParseRate: Double,
) {
  def nullRate: Double     = if (rowCount == 0) 0.0 else nullCount.toDouble / rowCount
  def uniqueRatio: Double  = if (rowCount == 0) 0.0 else distinctCount.toDouble / rowCount
}

/** Candidate single-attribute functional dependency lhs → rhs with its
  * statistical strength (1.0 = exact FD on non-null pairs).
  */
final case class FdCandidate(lhs: String, rhs: String, strength: Double, violatingGroups: Long)

/** Statistical error-detection substrate.
  *
  * Every measurement is a DataFrame aggregation (Catalyst-executed); nothing
  * is collected beyond bounded profile summaries. This is the "statistical
  * detection" half of every Cocoon issue pipeline; the semantic half consumes
  * these profiles via the simulated LLM.
  */
object Profiler {

  /** Profile one string-typed column: null/distinct counts, top frequent
    * values (most-frequent first, capped at `maxValues`), and numeric
    * min/max over the parseable subset.
    */
  def profileColumn(df: DataFrame, col: String, maxValues: Int = 1000): ColumnProfile = {
    val c = F.col(col)
    // try_cast: under Spark 4 ANSI semantics a plain cast on malformed
    // strings throws instead of yielding NULL.
    val num = c.try_cast("double")
    val agg = df
      .agg(
        F.count(F.lit(1)).as("rows"),
        F.sum(F.when(c.isNull, 1L).otherwise(0L)).as("nulls"),
        F.countDistinct(c).as("distinct"),
        F.min(num).as("minn"),
        F.max(num).as("maxn"),
        F.sum(F.when(c.isNotNull && num.isNotNull, 1L).otherwise(0L)).as("numOk"),
      )
      .collect()(0)
    val rows  = agg.getLong(0)
    val nulls = Option(agg.get(1)).map(_.asInstanceOf[Long]).getOrElse(0L)
    val nonNull = rows - nulls
    val freq = df
      .filter(c.isNotNull)
      .groupBy(c.cast("string").as("v"))
      .agg(F.count(F.lit(1)).as("n"))
      .orderBy(F.desc("n"), F.asc("v"))
      .limit(maxValues)
      .collect()
      .map(r => ValueCount(r.getString(0), r.getLong(1)))
      .toSeq
    ColumnProfile(
      name = col,
      rowCount = rows,
      nullCount = nulls,
      distinctCount = agg.getLong(2),
      frequentValues = freq,
      minNumeric = Option(agg.get(3)).map(_.asInstanceOf[Double]),
      maxNumeric = Option(agg.get(4)).map(_.asInstanceOf[Double]),
      numericParseRate = if (nonNull == 0) 0.0 else agg.getLong(5).toDouble / nonNull,
    )
  }

  /** Number of fully duplicated rows beyond the first occurrence (§2.1.7). */
  def duplicateRowCount(df: DataFrame): Long = {
    val total    = df.count()
    val distinct = df.distinct().count()
    total - distinct
  }

  /** Strength of one single-attribute lhs → rhs candidate (§2.1.6, after
    * Baran): the share of rows agreeing with their group's plurality rhs
    * value — 1.0 means the FD holds exactly, and a few corrupted cells per
    * group only dent it proportionally (an entropy-style measure, after
    * [Beskales et al.]). `violatingGroups` counts lhs groups with >1 rhs.
    */
  def scoreFd(df: DataFrame, lhs: String, rhs: String): FdCandidate = {
    val pairs = df
      .filter(F.col(lhs).isNotNull && F.col(rhs).isNotNull)
      .groupBy(F.col(lhs), F.col(rhs))
      .agg(F.count(F.lit(1)).as("n"))
    val grouped = pairs
      .groupBy(F.col(lhs))
      .agg(F.sum("n").as("sz"), F.max("n").as("mx"), F.count(F.lit(1)).as("d"))
      .agg(
        F.sum("sz").as("rows"),
        F.sum("mx").as("agree"),
        F.sum(F.when(F.col("d") > 1, 1L).otherwise(0L)).as("viol"),
      )
      .collect()(0)
    val total = Option(grouped.get(0)).map(_.asInstanceOf[Long]).getOrElse(0L)
    val agree = Option(grouped.get(1)).map(_.asInstanceOf[Long]).getOrElse(0L)
    val viol  = Option(grouped.get(2)).map(_.asInstanceOf[Long]).getOrElse(0L)
    FdCandidate(lhs, rhs, if (total == 0) 0.0 else agree.toDouble / total, viol)
  }

  /** For a violated FD lhs → rhs: each lhs group with >1 distinct rhs value,
    * with per-value counts (most frequent first). Groups are capped at
    * `maxGroups` largest to bound the prompt size, as Cocoon batches LLM work.
    */
  def fdViolatingGroups(df: DataFrame, lhs: String, rhs: String, maxGroups: Int = 500): Seq[(String, Seq[ValueCount])] = {
    val pairs = df
      .filter(F.col(lhs).isNotNull && F.col(rhs).isNotNull)
      .groupBy(F.col(lhs).cast("string").as("l"), F.col(rhs).cast("string").as("r"))
      .agg(F.count(F.lit(1)).as("n"))
    val bad = pairs
      .groupBy("l")
      .agg(F.countDistinct("r").as("d"), F.sum("n").as("sz"))
      .filter(F.col("d") > 1)
      .orderBy(F.desc("sz"))
      .limit(maxGroups)
      .select("l")
    bad
      .join(pairs, "l")
      .orderBy(F.asc("l"), F.desc("n"), F.asc("r"))
      .collect()
      .toSeq
      .map(r => (r.getString(0), ValueCount(r.getString(1), r.getLong(2))))
      .groupBy(_._1)
      .map { case (k, vs) => (k, vs.map(_._2)) }
      .toSeq
      .sortBy(_._1)
  }
}
