package repro.jobs

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{CocoonConfig, CocoonPipeline, MapValues, MapToNull, FdRepair, RangeClamp}
import repro.eval.{Harness, Metrics}
import repro.llm.SimulatedLLM

/** Diagnostic entrypoint: runs Cocoon on one benchmark, prints each step's
  * rewrites, and breaks wrong changes down by column.
  */
object DebugJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("cocoon-debug")
      .config("spark.sql.shuffle.partitions", "16")
      .getOrCreate()
    val ds = Harness.dataset(spark, args.headOption.getOrElse("hospital"))
    val res = CocoonPipeline.run(spark, ds.dirty, new SimulatedLLM(), CocoonConfig(keyCol = ds.keyCol, tableDesc = ds.name))
    res.steps.foreach { st =>
      println(s"[debug] step=${st.issue} rows=${st.rows}")
      st.rewrites.foreach { rw =>
        val size = rw.rewrite match {
          case MapValues(m)  => s"map(${m.size})"
          case MapToNull(v)  => s"null(${v.size})"
          case FdRepair(c)   => s"fd(${c.size})"
          case RangeClamp(a, b) => s"clamp($a,$b)"
        }
        println(s"[debug] step=${st.issue} col=${rw.column} $size")
      }
    }
    // Wrong changes by column, on the cells Table 1 scores.
    val wrong = Metrics.cells(ds, res.cleaned, Metrics.table1Excluded).filter(Metrics.changed && !Metrics.correct)
    wrong.groupBy("column", "error_type").agg(count(lit(1)).as("wrong"))
      .orderBy(desc("wrong")).collect()
      .foreach(r => println(s"[debug] wrong col=${r.get(0)} label=${r.get(1)} n=${r.get(2)}"))
    wrong.select("column", "dirty_v", "clean_v", "out_v").limit(12).collect()
      .foreach(r => println(s"[debug] ex col=${r.get(0)} dirty=${r.get(1)} clean=${r.get(2)} out=${r.get(3)}"))
    spark.stop()
  }
}
