package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Access to Spark's package-private listener bus, so the benchmark can
  * wait until every posted event has reached its listeners.
  */
object Bus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
