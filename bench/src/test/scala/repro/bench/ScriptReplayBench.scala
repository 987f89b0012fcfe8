package repro.bench

import java.security.MessageDigest
import repro.SparkSpec
import repro.core.{CocoonConfig, CocoonPipeline, ScriptReplay}
import repro.eval.Harness
import repro.llm.SimulatedLLM

/** The emitted script of every benchmark at its default seed: it replays to
  * `cleaned` on Spark and on DuckDB, and its bytes are pinned by SHA-256, so
  * a refactor of the step model cannot silently change Cocoon's output.
  */
class ScriptReplayBench extends SparkSpec {

  private val pinnedSha256 = Map(
    "hospital" -> "0f89aa631f5002511118849003cb3bf7c8813d77f3a738f0667f2d1daca4a253",
    "flights"  -> "11dc8c073ac4a34a7996f0d9c277899be2603a92ed354e97d95f2c206bd57a5a",
    "beers"    -> "ea496550da3b10600734d2af6839742e19b30bbff6d2e91dc1e7debd05bec4ea",
    "rayyan"   -> "aaba6c632ac433279cbd8f74139da02ed029e43af4b2c521f64d25d810e25dff",
    "movies"   -> "f41cacd40044e5bc41088a1a4be221f941fb10cbfa33a959a54abe501928ecc8",
  )

  private def sha256(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8")).map("%02x".format(_)).mkString

  for (name <- Harness.table1Datasets)
    test(s"$name: the script is pinned and replays to cleaned on Spark and DuckDB") {
      val ds  = Harness.dataset(spark, name)
      val res = CocoonPipeline.run(spark, ds.dirty, new SimulatedLLM(), CocoonConfig(keyCol = ds.keyCol, tableDesc = ds.name))
      assert(sha256(res.script) == pinnedSha256(name))
      ScriptReplay.assertReplays(spark, ds.dirty, res)
    }
}
