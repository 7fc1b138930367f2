package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench.{ExperimentsCore => C, ExperimentsParallel => P, ExperimentsSpark => S}

/** spark-submit entrypoint regenerating any evaluation table.
  *
  * Usage:  RunExperiment [tableId ...] [--fast]
  *   tableId in {T1..T18, model, all}; `--fast` uses the bench-suite
  *   scale, otherwise the larger EXPERIMENTS.md sweep runs.
  *
  * Example: spark-submit --class repro.jobs.RunExperiment repro.jar T6 T16
  */
object RunExperiment {
  def main(args: Array[String]): Unit = {
    val fast   = args.contains("--fast")
    val wanted = args.filterNot(_.startsWith("--")).toSeq match {
      case Nil => Seq("all")
      case xs  => xs
    }
    def on(id: String): Boolean = wanted.contains("all") || wanted.contains(id)

    if (on("T1")) C.roundRobin(fast)
    if (on("T2")) C.chainedIndex(fast)
    if (on("T3")) C.insertionDepth(fast)
    if (on("T4")) C.mergeRatio(fast)
    if (on("T5")) C.costBreakdown(fast)
    if (on("T6")) C.singleThreaded(fast)
    if (on("T7")) C.matchRate(fast)
    if (on("T8")) C.taskSize(fast)
    if (on("T9")) C.memoryFootprint(fast)
    if (on("model")) C.costModelTable()
    if (on("T10")) P.asymmetric(fast)
    if (on("T11")) P.memoryTraffic(fast)
    if (on("T12")) P.scalability(fast)
    if (on("T13")) P.skewedDistributions(fast)
    if (on("T14")) P.selfJoin(fast)
    if (on("T15")) P.shiftingGaussian(fast)
    if (on("T16")) P.efficiency(fast)
    if (on("T17")) P.mergeCost(fast)
    if (on("T18")) {
      val spark = SparkSession.builder()
        .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
        .appName("repro-T18")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
      try S.sparkMicroBatch(spark, fast)
      finally spark.stop()
    }
  }
}
