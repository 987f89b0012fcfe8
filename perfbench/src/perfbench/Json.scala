package perfbench

/** The result line: `{"correct", "attempted", "failed", "metrics"}`. */
object Json {
  private def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  private def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v is not a number")
    java.lang.Double.toString(v)
  }

  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) => s"${str(n)}: {${str("value")}: ${num(v)}, ${str("unit")}: ${str(u)}}" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
