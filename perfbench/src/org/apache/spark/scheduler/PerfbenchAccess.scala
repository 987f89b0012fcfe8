package org.apache.spark.scheduler

import org.apache.spark.SparkContext

/** The two hooks the benchmark needs that Spark keeps package-private,
  * reached from inside Spark's scheduler package so that the program under
  * test needs no change.
  */
object PerfbenchAccess {

  /** Blocks until every event posted so far has reached every listener. */
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Jobs submitted since the context started; needs no listener. */
  def jobsSubmitted(sc: SparkContext): Int = sc.dagScheduler.numTotalJobs
}
