package repro.bench

import org.apache.spark.sql.SparkSession

import repro.join.{CountingSink, SingleThreadedJoin}
import repro.stream.MicroBatchPimJoin
import repro.stream.MicroBatchPimJoin.Config

import Harness._

/** T18 — the Spark layer: the PIM-Tree join run per key-range partition,
  * one Spark task each, over micro-batches (the calibration hint's target
  * shape). Reports throughput vs partition count and cross-checks
  * the result cardinality against the single-threaded reference join.
  */
object ExperimentsSpark {

  def sparkMicroBatch(spark: SparkSession, fast: Boolean = true): Seq[Row] = {
    val logW = if (fast) 12 else 14
    val w    = 1 << logW
    val n    = if (fast) 40000 else 120000
    val batchSize = 4096
    val wl = repro.StreamGen.twoWay(
      repro.StreamGen.uniform(n / 2, seed = 7),
      repro.StreamGen.uniform(n - n / 2, seed = 107))
    val diff = repro.StreamGen.diffForMatchRate(w, 2.0)
    val expected = {
      val sink = new CountingSink
      SingleThreadedJoin.ibwj(wl, w, w, diff, bplus(), bplus(), sink)
      sink.count
    }
    val tuples = MicroBatchPimJoin.toTuples(wl)
    val rows = Seq(1, 2, 4, 8).map { parts =>
      val cfg = Config(parts, w, w, diff, repro.StreamGen.DefaultKeySpace)
      val jobId = s"bench-mb-$parts"
      // warmup (JIT + Spark planning)
      MicroBatchPimJoin.runBatches(spark, jobId + "-warm",
        tuples.take(math.min(tuples.size, 8192)), cfg, batchSize)
      val t0  = System.nanoTime()
      val out = MicroBatchPimJoin.runBatches(spark, jobId, tuples, cfg, batchSize)
      val dt  = System.nanoTime() - t0
      Vector(
        "partitions" -> Count(parts),
        "throughput" -> Tps(n.toDouble * 1e9 / dt),
        "results"    -> Count(out.size),
        "expected"   -> Count(expected.toDouble),
        "match"      -> Text(if (out.size == expected) "OK" else "MISMATCH"),
      )
    }
    printTable(s"T18: Spark micro-batch PIM-Tree join, w=2^$logW, n=$n", rows)
  }
}
