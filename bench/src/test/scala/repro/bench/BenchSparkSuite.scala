package repro.bench

import repro.SparkSpec

/** T18 — the Spark micro-batch PIM-Tree join table. */
class BenchSparkSuite extends SparkSpec {

  test("T18: micro-batch PIM-Tree join, routed on the driver, one Spark stage per batch") {
    val rows = ExperimentsSpark.sparkMicroBatch(spark, fast = true)
    assert(rows.size == 4)
    // result cardinality must match the single-threaded reference exactly
    rows.foreach(r => assert(Harness.cell(r, "match") == "OK", r.toString))
  }
}
