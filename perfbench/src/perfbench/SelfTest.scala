package perfbench

import org.apache.spark.scheduler.PerfbenchAccess
import org.apache.spark.sql.{functions => F}
import repro.core.{CocoonConfig, CocoonPipeline}
import repro.datasets.Hospital
import repro.llm.SimulatedLLM
import repro.profile.Profiler

/** The benchmark's own tests: its instruments measure without changing what
  * they measure. Usage: perfbench.SelfTest --cores N --work-dir DIR
  */
object SelfTest {

  def main(argv: Array[String]): Unit = {
    val opts  = argv.grouped(2).collect { case Array(k, v) => k.drop(2) -> v }.toMap
    val spark = Main.session(opts("cores").toInt, opts("work-dir"))
    spark.sparkContext.setLogLevel("ERROR")
    var failures = 0
    def test(name: String)(body: => Unit): Unit =
      try { body; println(s"PASS $name") }
      catch { case e: Throwable => failures += 1; println(s"FAIL $name: $e") }

    test("a Profiler.profileColumn call lands in the profile layer") {
      import spark.implicits._
      val df = Seq((1L, "a"), (2L, "b"), (3L, "b")).toDF("row_id", "v")
      val l  = new LayerListener
      spark.sparkContext.addSparkListener(l)
      try {
        Profiler.profileColumn(df, "v")
        PerfbenchAccess.drainListenerBus(spark.sparkContext)
        val c = l.snapshot(0L).withDefaultValue(0.0)
        assert(c("jobs") >= 2, s"expected at least the aggregate and frequency jobs, saw ${c("jobs")}")
        assert(c("profile.jobs") == c("jobs"), s"profile.jobs ${c("profile.jobs")} of ${c("jobs")} jobs; counters $c")
      } finally spark.sparkContext.removeSparkListener(l)
    }

    test("the timing LLMClient decorator leaves steps and script byte-identical") {
      val ds    = Hospital.generate(spark, 42)
      val input = ds.dirty.filter(F.col("row_id") < 300).select("row_id", "provider_id", "hospital_name", "city", "zip")
      val cfg   = CocoonConfig(keyCol = ds.keyCol, tableDesc = ds.name)
      val plain = CocoonPipeline.run(spark, input, new SimulatedLLM(), cfg)
      val llm   = new TimingLLM(new SimulatedLLM())
      val timed = CocoonPipeline.run(spark, input, llm, cfg)
      assert(plain.steps.nonEmpty, "the slice should need cleaning")
      assert(llm.calls.values.sum > 0, "the decorator saw no calls")
      assert(plain.steps.toString == timed.steps.toString, "steps differ")
      assert(plain.script == timed.script, "scripts differ")
    }

    spark.stop()
    println(if (failures == 0) "self-test passed" else s"self-test: $failures failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
