package repro.perfbench

import scala.collection.mutable

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

import repro.StreamGen
import repro.join.CountingSink
import repro.stream.MicroBatchPimJoin
import repro.stream.MicroBatchPimJoin.{Config, InTuple, PartitionJoiner}

/** `MicroBatchPimJoin.processBatch` per micro-batch on `local[cores]`:
  * two-way uniform keys, `cores` key-range partitions and as many shuffle
  * partitions, w = 2^14, 2048-tuple batches. Here the stream layer does
  * most of the work and the index little; it is the one workload with a
  * real per-batch latency.
  *
  * A run is `segments` segments; each starts a fresh join state (a new
  * job id), fills the windows with untimed batches, then times batches
  * for its share of `seconds`.
  */
final class SparkBench(cores: Int, w: Int = SparkBench.W, segments: Int = 3,
                       warmBatches: Int = 200) extends Workload {
  import SparkBench._

  override val name: String          = "spark_microbatch"
  override def workerThreads: Int    = cores
  override def sparkMaster: String   = s"local[$cores]"

  override def run(cfg: RunConfig, log: SpanLog): Outcome = {
    val startS = JvmStats.uptimeS
    val spark = SparkSession.builder
      .master(sparkMaster)
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", cores.toLong)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", cfg.outDir.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", cfg.outDir.resolve("spark-warehouse").toAbsolutePath.toString)
      // Spark's status store keeps every finished job, stage and query up
      // to these limits; kept small, it does not make the retained heap
      // grow with the number of batches run
      .config("spark.ui.retainedJobs", StatusRetained.toLong)
      .config("spark.ui.retainedStages", StatusRetained.toLong)
      .config("spark.sql.ui.retainedExecutions", StatusRetained.toLong)
      .getOrCreate()
    try runIn(spark, cfg, log, startS)
    finally spark.stop()
  }

  private def runIn(spark: SparkSession, cfg: RunConfig, log: SpanLog, startS: Double): Outcome = {
    val sessionS = JvmStats.uptimeS
    import spark.implicits._
    val perSegmentNs = cfg.seconds * 1000000000L / segments
    // enough input for the fastest plausible rate
    val timedCap = (cfg.seconds * MaxRate / segments / BatchSize + 1) * BatchSize
    val in       = Inputs.uniformTwoWay(w, timedCap, cfg.seed)
    val jcfg     = Config(cores, w, w, in.diff, StreamGen.DefaultKeySpace)
    val batches  = MicroBatchPimJoin.toTuples(in.wl).grouped(BatchSize).toVector
    val firstTimed = (in.prefill + BatchSize - 1) / BatchSize
    val inputS     = JvmStats.uptimeS

    def batch(jobId: String, b: Int, parent: Int): Batch = {
      val startMs = System.currentTimeMillis()
      val t0      = System.nanoTime()
      val ds      = batches(b).toDS()
      val t1      = System.nanoTime()
      val out     = MicroBatchPimJoin.processBatch(spark, jobId, ds, jcfg).collect()
      val t2      = System.nanoTime()
      val span    = if (parent >= 0) log.record("stream.batch", parent, t0, t2) else -1
      val sink    = new CountingSink
      out.foreach(p => sink.emit(p.rSeq, p.sSeq))
      Batch(b, batches(b).size, t2 - t1, t2 - t0, sink.count, sink.checksum, startMs,
            System.currentTimeMillis(), span)
    }

    def segment(k: Int, traced: Boolean): Seg = {
      val jobId = s"${if (traced) "traced" else "timed"}-$k"
      val span  = if (traced) log.begin("stream.segment", -1) else -1
      val t0    = System.nanoTime()
      val prefill = (0 until firstTimed).map(batch(jobId, _, span))
      val setup = System.nanoTime() - t0
      val jvm0  = JvmStats.sample()
      val start = System.nanoTime()
      val timed = mutable.ArrayBuffer.empty[Batch]
      var b = firstTimed
      while (b < batches.size && System.nanoTime() - start < perSegmentNs) { timed += batch(jobId, b, span); b += 1 }
      val jvm  = JvmStats.sample() - jvm0
      if (traced) log.end(span)
      // the segment's joiners are still registered here
      val heap = JvmStats.retainedHeapMb()
      MicroBatchPimJoin.Registry.clear(jobId)
      Seg(timed.toSeq, prefill ++ timed, setup, heap, jvm, timed.map(_.tuples.toLong).sum)
    }

    // exactly warmBatches whatever the input size: each pass over the
    // batches starts a fresh join state
    val warm = (0 until warmBatches).map(i => batch(s"warm-${i / batches.size}", i % batches.size, -1))
    (0 to (warmBatches - 1) / batches.size).foreach(p => MicroBatchPimJoin.Registry.clear(s"warm-$p"))
    val processSetupS = JvmStats.uptimeS
    // with tracing, untraced and traced segments alternate so that both
    // see the same machine; the listener sees every job, and only the
    // traced batches' jobs are read
    val listener = if (cfg.trace) new StageListener else null
    if (cfg.trace) spark.sparkContext.addSparkListener(listener)
    val (timed, traced) = (0 until segments).map { k =>
      (segment(k, traced = false), if (cfg.trace) Some(segment(k, traced = true)) else None)
    }.unzip match { case (u, t) => (u, t.flatten) }
    val layers =
      if (!cfg.trace) Map.empty[String, Double]
      else {
        listener.awaitQuiet()
        spark.sparkContext.removeSparkListener(listener)
        perLayer(spark, jcfg, batches, firstTimed, timed, traced, listener, log, cfg.seed)
      }

    val refError = Reference.selfCheck(in)
    val ref      = Reference.compute(in, BatchSize)
    val all      = warm ++ (timed ++ traced).flatMap(_.all)
    val failed   = all.count(b => b.count != ref(b.index).count || b.checksum != ref(b.index).checksum)

    val latencies = timed.flatMap(_.timed).map(_.latencyNs / 1e6)
    val e2e = Map(
      "throughput_tps"   -> Stats.median(timed.map(_.tps)),
      "batch_p50_ms"     -> Stats.percentile(latencies, 50),
      "batch_p90_ms"     -> Stats.percentile(latencies, 90),
      "retained_heap_mb" -> Stats.median(timed.map(_.heapMb)),
      "setup_s"          -> (processSetupS + Stats.median(timed.map(_.setupNs.toDouble)) / 1e9),
    )
    val notes = Seq(
      s"segments: ${timed.size} of ${timed.map(_.timed.size).mkString("/")} timed batches of $BatchSize tuples " +
        s"after $firstTimed prefill batches; $warmBatches warm-up batches",
      s"batch samples: ${latencies.size}; ${JoinBench.tailNote(latencies)}",
      f"setup: JVM start $startS%.3f s, Spark session ${sessionS - startS}%.3f s, inputs ${inputS - sessionS}%.3f s, " +
        f"warm-up ${processSetupS - inputS}%.3f s, median segment prefill ${Stats.median(timed.map(_.setupNs.toDouble)) / 1e9}%.3f s",
      "segment throughput (tuples/s): " + timed.map(s => f"${s.tps}%.0f").mkString(" ") +
        f"; warm-up batch: first ${warm.head.wallNs / 1e6}%.0f ms, median of the last 20 " +
        f"${Stats.median(warm.takeRight(20).map(_.wallNs / 1e6))}%.0f ms",
    ) ++ refError.toSeq
    Outcome(e2e ++ layers, all.size, failed, refError.isEmpty, notes)
  }

  private def perLayer(spark: SparkSession, jcfg: Config, batches: Vector[Seq[InTuple]],
                       firstTimed: Int, timed: Seq[Seg], traced: Seq[Seg], listener: StageListener,
                       log: SpanLog, seed: Long): Map[String, Double] = {
    val tracedBatches = traced.flatMap(_.timed)
    val perBatch      = listener.byBatch(tracedBatches.map(b => (b.startMs, b.endMs)))
    val stages        = perBatch.flatMap(_.stages)
    val reduce        = stages.filterNot(_.isMap)
    val tuples        = tracedBatches.map(_.tuples.toLong).sum.toDouble
    listener.recordSpans(log, tracedBatches.map(_.span), perBatch)

    // replays of one segment's arrivals, outside Spark
    val used   = batches.take(firstTimed + traced.head.timed.size)
    val arr    = used.flatten
    val routeT = System.nanoTime()
    val routed = arr.map(t => MicroBatchPimJoin.route(t, jcfg).size.toLong).sum
    val routeNs = System.nanoTime() - routeT
    val joiners = Array.fill(jcfg.numPartitions)(new PartitionJoiner(jcfg))
    var joinerNs = 0L
    used.foreach { b =>
      val parts = b.flatMap(MicroBatchPimJoin.route(_, jcfg)).groupBy(_.part)
      parts.foreach { case (p, rows) =>
        val sorted = rows.sortBy(_.gseq)
        val t = System.nanoTime()
        joiners(p).process(sorted.iterator).size
        joinerNs += System.nanoTime() - t
      }
    }
    val jvm    = timed.map(_.jvm).foldLeft(JvmStats.Zero)(_ + _)
    val timedTuples = timed.map(_.tuples).sum.toDouble

    // PartitionJoiner keeps its PIM-Trees private, so their calls and
    // counters cannot be read: every index.* metric reads 0 here, and
    // stream.joiner_ns_per_tuple covers the index work
    Metrics.layer("index").map(_ -> 0.0).toMap ++ Map(
      "join.coord_ns_per_tuple" -> 0.0,
      "join.results_per_tuple"  -> JoinBench.ratio(timed.flatMap(_.timed).map(_.count).sum.toDouble, timedTuples),
      "join.task_latency_us_mean" -> 0.0,
      "join.emit_gap_ms_max"    -> 0.0,
      "join.emit_stall_ms"      -> 0.0,
      "stream.route_ns_per_tuple"  -> routeNs.toDouble / arr.size,
      "stream.replication"         -> routed.toDouble / arr.size,
      "stream.joiner_ns_per_tuple" -> joinerNs.toDouble / arr.size,
      "stream.map_stage_ms"     -> Stats.median(perBatch.map(_.stages.filter(_.isMap).map(_.durationMs).sum.toDouble)),
      "stream.reduce_stage_ms"  -> Stats.median(perBatch.map(_.stages.filterNot(_.isMap).map(_.durationMs).sum.toDouble)),
      "stream.driver_ms"        -> Stats.median(tracedBatches.zip(perBatch).map { case (b, p) => b.latencyNs / 1e6 - p.jobMs }),
      "stream.shuffle_bytes_per_tuple" -> stages.map(_.shuffleWriteBytes).sum / tuples,
      "stream.partition_skew"   -> (if (reduce.isEmpty) 0.0 else Stats.median(reduce.map(_.recordSkew))),
      "stream.tasks_per_batch"  -> stages.map(_.tasks.size).sum.toDouble / perBatch.size,
      "jvm.cpu_ns_per_tuple"    -> jvm.cpuNs / timedTuples,
      "jvm.alloc_bytes_per_tuple" -> jvm.allocBytes / timedTuples,
      "jvm.gc_ms"               -> jvm.gcMs.toDouble,
      "jvm.gc_count"            -> jvm.gcCount.toDouble,
      "trace.overhead_frac"     -> (1 - Stats.median(traced.map(_.tps)) / Stats.median(timed.map(_.tps))),
      "check.full_domain_lost_pairs" -> fullDomainLost(spark, seed).toDouble,
    )
  }

  /** Pairs `processBatch` loses on keys over the full Int domain. */
  private def fullDomainLost(spark: SparkSession, seed: Long): Long = {
    import spark.implicits._
    val pin  = Inputs.fullDomain(selfJoin = false, seed)
    val pcfg = Config(cores, pin.w, pin.w, pin.diff, StreamGen.DefaultKeySpace)
    val got  = MicroBatchPimJoin.toTuples(pin.wl).grouped(BatchSize).flatMap { chunk =>
      MicroBatchPimJoin.processBatch(spark, "full-domain", chunk.toDS(), pcfg).collect()
    }.map(p => (p.rSeq, p.sSeq)).toVector
    MicroBatchPimJoin.Registry.clear("full-domain")
    Reference.lostPairs(pin, got)
  }
}

object SparkBench {
  val W: Int         = 1 << 14
  val BatchSize: Int = 2048
  /** Tuples/s no run is expected to exceed; sizes the generated input. */
  val MaxRate: Int   = 60000
  /** Finished jobs, stages and queries Spark's status store keeps. */
  val StatusRetained: Int = 20

  private final case class Batch(index: Int, tuples: Int, latencyNs: Long, wallNs: Long,
                                 count: Long, checksum: Long, startMs: Long, endMs: Long, span: Int)
  private final case class Seg(timed: Seq[Batch], all: Seq[Batch], setupNs: Long, heapMb: Double,
                               jvm: JvmStats.Sample, tuples: Long) {
    def tps: Double = timed.map(_.tuples).sum * 1e9 / timed.map(_.wallNs).sum
  }
}

/** Collects job, stage and task events of the traced batches. */
final class StageListener extends SparkListener {
  import StageListener._

  private val jobStart   = mutable.HashMap.empty[Int, (Long, Seq[Int])]
  private val jobs       = mutable.ArrayBuffer.empty[(Long, Long, Seq[Int])]
  private val tasks      = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Task]]
  private val stages     = mutable.HashMap.empty[Int, Stage]
  private var lastEvent  = System.nanoTime()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobStart(e.jobId) = (e.time, e.stageInfos.map(_.stageId)); lastEvent = System.nanoTime()
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (t, s) => jobs += ((t, e.time, s)) }; lastEvent = System.nanoTime()
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = Option(e.taskMetrics)
    tasks.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += Task(
      e.taskInfo.launchTime, e.taskInfo.finishTime, e.taskType == "ShuffleMapTask",
      m.fold(0L)(_.shuffleReadMetrics.recordsRead), m.fold(0L)(_.shuffleWriteMetrics.bytesWritten))
    lastEvent = System.nanoTime()
  }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val si = e.stageInfo
    stages(si.stageId) = Stage(si.stageId, si.submissionTime.getOrElse(0L), si.completionTime.getOrElse(0L),
                               tasks.remove(si.stageId).fold(Seq.empty[Task])(_.toSeq))
    lastEvent = System.nanoTime()
  }

  /** Wait until every started job has ended and no event came for 200 ms. */
  def awaitQuiet(timeoutMs: Long = 10000): Unit = {
    val deadline = System.nanoTime() + timeoutMs * 1000000L
    while (System.nanoTime() < deadline &&
           synchronized(jobStart.nonEmpty || System.nanoTime() - lastEvent < 200000000L))
      Thread.sleep(20)
  }

  /** Jobs and stages by the batch whose wall-clock interval (epoch ms,
    * inclusive) saw the job start.
    */
  def byBatch(intervals: Seq[(Long, Long)]): Seq[PerBatch] = synchronized {
    intervals.map { case (from, until) =>
      val js = jobs.filter(j => j._1 >= from && j._1 <= until)
      PerBatch(js.flatMap(_._3).distinct.flatMap(stages.get).toSeq, Stats.unionLength(js.map(j => (j._1, j._2)).toSeq))
    }
  }

  /** Stage and task spans under each batch's span. */
  def recordSpans(log: SpanLog, batchSpans: Seq[Int], perBatch: Seq[PerBatch]): Unit = {
    // listener times are epoch ms; spans are System.nanoTime
    val offset = System.nanoTime() - System.currentTimeMillis() * 1000000L
    def ns(ms: Long) = ms * 1000000L + offset
    batchSpans.zip(perBatch).foreach { case (parent, pb) =>
      pb.stages.foreach { s =>
        val id = log.record(if (s.isMap) "spark.stage.map" else "spark.stage.reduce", parent, ns(s.startMs), ns(s.endMs))
        s.tasks.foreach(t => log.record("spark.task", id, ns(t.launchMs), ns(t.finishMs)))
      }
    }
  }

}

object StageListener {
  final case class Task(launchMs: Long, finishMs: Long, isMap: Boolean, recordsRead: Long, bytesWritten: Long)
  final case class Stage(id: Int, startMs: Long, endMs: Long, tasks: Seq[Task]) {
    def isMap: Boolean = tasks.exists(_.isMap)
    def durationMs: Long = endMs - startMs
    def shuffleWriteBytes: Long = tasks.map(_.bytesWritten).sum
    /** Largest task input over the mean task input. */
    def recordSkew: Double = {
      val r = tasks.map(_.recordsRead)
      if (r.isEmpty || r.sum == 0) 1.0 else r.max * r.size.toDouble / r.sum
    }
  }
  final case class PerBatch(stages: Seq[Stage], jobMs: Long)
}
