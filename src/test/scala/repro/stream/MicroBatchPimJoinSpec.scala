package repro.stream

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.Dataset
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

import repro.{Oracle, SparkSpec, StreamGen, TestRefs}
import repro.stream.MicroBatchPimJoin.{Config, InTuple}

class MicroBatchPimJoinSpec extends SparkSpec {

  private def workload(n: Int, keySpace: Int, seed: Long) =
    StreamGen.twoWay(StreamGen.uniform(n / 2, keySpace, seed),
                     StreamGen.uniform(n - n / 2, keySpace, seed + 50))

  test("toTuples mirrors the workload geometry") {
    val wl = workload(200, 1 << 8, 1)
    val ts = MicroBatchPimJoin.toTuples(wl)
    assert(ts.length == wl.length)
    assert(ts.map(_.gseq) == (0 until wl.length).map(_.toLong))
    ts.foreach(t => assert(t.oppHead < t.gseq))
    assert(ts.count(_.isR) == wl.fromR.count(identity))
  }

  test("route replicates to the partitions overlapping the band, one home") {
    val cfg = Config(numPartitions = 8, wR = 16, wS = 16, diff = 40, keySpace = 1 << 10)
    val t   = InTuple(0, isR = true, 0, -1, 128)
    val routed = MicroBatchPimJoin.route(t, cfg)
    assert(routed.count(_.home) == 1)
    assert(routed.map(_.part).distinct.size == routed.size)
    val homeP = cfg.partOf(128)
    assert(routed.find(_.home).get.part == homeP)
    // band [88, 168] spans exactly the partitions covering those keys
    val wanted = (cfg.partOf(88) to cfg.partOf(168)).toSet
    assert(routed.map(_.part).toSet == wanted)
  }

  for (parts <- Seq(1, 2, 4, 8); batchSize <- Seq(256, 1000)) {
    test(s"micro-batch join equals reference (partitions=$parts, batch=$batchSize)") {
      val w    = 64
      val wl   = workload(2000, 1 << 10, parts * 3 + batchSize)
      val diff = 12
      val cfg  = Config(parts, w, w, diff, 1 << 10)
      val tuples = MicroBatchPimJoin.toTuples(wl)
      val got = MicroBatchPimJoin
        .runBatches(spark, s"t-$parts-$batchSize", tuples, cfg, batchSize)
        .map(p => (p.rSeq, p.sSeq)).sorted.toVector
      val ref = TestRefs.referencePairs(wl, w, w, diff).sorted
      assert(got == ref)
    }
  }

  for (parts <- Seq(1, 4)) {
    test(s"keys at the Int and key-space edges are routed and joined (partitions=$parts)") {
      val keySpace = 1 << 10
      val edge = Array(Int.MinValue, Int.MinValue + 1, -1, 0, keySpace - 1, keySpace, Int.MaxValue - 1, Int.MaxValue)
      val rnd  = new scala.util.Random(parts)
      def keys(n: Int) = Array.fill(n)(edge(rnd.nextInt(edge.length)))
      val wl   = StreamGen.twoWay(keys(200), keys(200))
      val w    = 16
      val diff = 1
      val got = MicroBatchPimJoin
        .runBatches(spark, s"t-edge-$parts", MicroBatchPimJoin.toTuples(wl), Config(parts, w, w, diff, keySpace), 64)
        .map(p => (p.rSeq, p.sSeq)).sorted.toVector
      assert(got == TestRefs.referencePairs(wl, w, w, diff).sorted)
    }
  }

  test("micro-batch join with merges equals reference (small merge ratio)") {
    val w    = 64
    val wl   = workload(4000, 1 << 10, 9)
    val diff = 10
    val cfg  = Config(4, w, w, diff, 1 << 10, mergeRatio = 0.25)
    val got = MicroBatchPimJoin
      .runBatches(spark, "t-merge", MicroBatchPimJoin.toTuples(wl), cfg, 512)
      .map(p => (p.rSeq, p.sSeq)).sorted.toVector
    val ref = TestRefs.referencePairs(wl, w, w, diff).sorted
    assert(got == ref)
  }

  test("micro-batch join result matches DuckDB oracle") {
    import spark.implicits._
    val w    = 48
    val wl   = workload(700, 1 << 10, 10)
    val diff = 15
    val cfg  = Config(4, w, w, diff, 1 << 10)
    val pairs = MicroBatchPimJoin
      .runBatches(spark, "t-oracle", MicroBatchPimJoin.toTuples(wl), cfg, 256)
    val got = pairs.map(p => (p.rSeq, p.sSeq)).toDF("rid", "sid")
    val (r, s) = SparkBandJoin.toDataFrames(spark, wl)
    Oracle.assertEquivalent(got, SparkBandJoin.windowedBandJoinSql(w, w, diff),
                            "r" -> r, "s" -> s)
  }

  test("structured-streaming driver (MemoryStream + foreachBatch) equals reference") {
    val w    = 32
    val wl   = workload(1200, 1 << 9, 11)
    val diff = 8
    val cfg  = Config(4, w, w, diff, 1 << 9)
    val got = MicroBatchPimJoin
      .runStreaming(spark, "t-stream", MicroBatchPimJoin.toTuples(wl), cfg, batchSize = 300)
      .map(p => (p.rSeq, p.sSeq)).sorted.toVector
    val ref = TestRefs.referencePairs(wl, w, w, diff).sorted
    assert(got == ref)
  }

  test("asymmetric windows through the micro-batch path") {
    val (wR, wS) = (16, 128)
    val wl   = workload(1500, 1 << 10, 12)
    val diff = 10
    val cfg  = Config(4, wR, wS, diff, 1 << 10)
    val got = MicroBatchPimJoin
      .runBatches(spark, "t-asym", MicroBatchPimJoin.toTuples(wl), cfg, 500)
      .map(p => (p.rSeq, p.sSeq)).sorted.toVector
    val ref = TestRefs.referencePairs(wl, wR, wS, diff).sorted
    assert(got == ref)
  }

  test("self-join through the micro-batch path") {
    val w    = 64
    val keys = StreamGen.uniform(1500, 1 << 10, 13)
    val wl   = StreamGen.selfJoin(keys)
    val diff = 10
    val cfg  = Config(4, w, w, diff, 1 << 10, selfJoin = true)
    val got = MicroBatchPimJoin
      .runBatches(spark, "t-self", MicroBatchPimJoin.toTuples(wl, selfJoin = true), cfg, 400)
      .map(p => (p.rSeq, p.sSeq)).sorted.toVector
    val ref = TestRefs.referencePairs(wl, w, w, diff, selfJoin = true).sorted
    assert(got == ref)
    // a self-join has one window, wR's: a different wS changes nothing
    val oneWindow = MicroBatchPimJoin
      .runBatches(spark, "t-self-ws", MicroBatchPimJoin.toTuples(wl, selfJoin = true),
                  Config(4, w, 16, diff, 1 << 10, selfJoin = true), 400)
      .map(p => (p.rSeq, p.sSeq)).sorted.toVector
    assert(oneWindow == TestRefs.referencePairs(wl, w, 16, diff, selfJoin = true).sorted)
  }

  test("processBatch joins each batch once: repeated collects agree") {
    import spark.implicits._
    val w    = 64
    val wl   = workload(1000, 1 << 10, 14)
    val diff = 12
    val cfg  = Config(4, w, w, diff, 1 << 10)
    val ref  = TestRefs.referencePairs(wl, w, w, diff).sorted
    val rnd  = new scala.util.Random(14)
    // local rows, a projection and an RDD (both collected), and local rows
    // out of gseq order
    val shapes: Seq[(String, Seq[InTuple] => Dataset[InTuple])] = Seq(
      "local"     -> (_.toDS()),
      "projected" -> (_.toDS().toDF().select($"x", $"gseq", $"isR", $"sseq", $"oppHead").as[InTuple]),
      "rdd"       -> (chunk => spark.createDataset(spark.sparkContext.parallelize(chunk, 3))),
      "shuffled"  -> (chunk => rnd.shuffle(chunk).toDS()),
    )
    for ((shape, toBatch) <- shapes) {
      val jobId = s"t-once-$shape"
      val got =
        try MicroBatchPimJoin.toTuples(wl).grouped(250).flatMap { chunk =>
          val pairs  = MicroBatchPimJoin.processBatch(spark, jobId, toBatch(chunk), cfg)
          val first  = pairs.collect().map(p => (p.rSeq, p.sSeq)).sorted.toVector
          val second = pairs.collect().map(p => (p.rSeq, p.sSeq)).sorted.toVector
          assert(first == second, shape)
          first
        }.toVector.sorted
        finally MicroBatchPimJoin.Registry.clear(jobId)
      assert(got == ref, shape)
    }
  }

  test("a local batch runs one Spark job and no SQL execution") {
    import spark.implicits._
    val sc       = spark.sparkContext
    val tag      = "t-no-sql"
    val sentinel = "t-no-sql-sentinel"
    val jobs, sqlExecutions = new AtomicInteger
    val sentinelJob  = new AtomicInteger(-1)
    val sentinelDone = new CountDownLatch(1)
    def tags(props: java.util.Properties) =
      Option(props).flatMap(p => Option(p.getProperty("spark.job.tags"))).toSeq.flatMap(_.split(","))
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        if (tags(e.properties).contains(tag)) jobs.incrementAndGet()
        if (tags(e.properties).contains(sentinel)) sentinelJob.set(e.jobId)
      }
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (e.jobId == sentinelJob.get) sentinelDone.countDown()
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case s: SparkListenerSQLExecutionStart if s.jobTags.contains(tag) => sqlExecutions.incrementAndGet()
        case _ =>
      }
    }
    val cfg   = Config(2, 64, 64, 12, 1 << 10)
    val batch = MicroBatchPimJoin.toTuples(workload(500, 1 << 10, 17)).toDS()
    sc.addSparkListener(listener)
    try {
      sc.addJobTag(tag)
      val pairs = try MicroBatchPimJoin.processBatch(spark, tag, batch, cfg).collect()
                  finally { sc.removeJobTag(tag); MicroBatchPimJoin.Registry.clear(tag) }
      assert(pairs.nonEmpty)
      // the listener bus is FIFO: once the sentinel job's end is delivered,
      // so is every event of the batch
      sc.addJobTag(sentinel)
      try sc.parallelize(Seq(1), 1).count() finally sc.removeJobTag(sentinel)
      assert(sentinelDone.await(30, TimeUnit.SECONDS))
    } finally sc.removeSparkListener(listener)
    assert(sqlExecutions.get == 0)
    assert(jobs.get == 1)
  }

  for (selfJoin <- Seq(false, true)) {
    test(s"all keys in one partition of 8, 7 slices empty (selfJoin=$selfJoin)") {
      val w    = 64
      val diff = 10
      val cfg  = Config(8, w, w, diff, 1 << 10, selfJoin = selfJoin)
      // keys in [280, 360): every band stays inside partition 2 = [256, 384)
      def keys(n: Int, seed: Long) = StreamGen.uniform(n, 80, seed).map(_ + 280)
      val wl =
        if (selfJoin) StreamGen.selfJoin(keys(1200, 15))
        else StreamGen.twoWay(keys(600, 15), keys(600, 65))
      val tuples = MicroBatchPimJoin.toTuples(wl, selfJoin)
      assert(tuples.flatMap(MicroBatchPimJoin.route(_, cfg)).map(_.part).toSet == Set(2))
      val got = MicroBatchPimJoin
        .runBatches(spark, s"t-skew-$selfJoin", tuples, cfg, 300)
        .map(p => (p.rSeq, p.sSeq)).sorted.toVector
      assert(got == TestRefs.referencePairs(wl, w, w, diff, selfJoin).sorted)
    }
  }

  test("Config rejects bad parameters at construction") {
    val bad: Seq[() => Config] = Seq(
      () => Config(0, 16, 16, 4, 1 << 8),
      () => Config(2, 0, 16, 4, 1 << 8),
      () => Config(2, 16, 0, 4, 1 << 8),
      () => Config(2, 16, 16, -1, 1 << 8),
      () => Config(2, 16, 16, 4, 0),
      () => Config(2, 16, 16, 4, 1 << 8, mergeRatio = 0.0),
      () => Config(2, 16, 16, 4, 1 << 8, mergeRatio = Double.NaN),
    )
    bad.foreach(mk => assertThrows[IllegalArgumentException](mk()))
    val e = intercept[IllegalArgumentException](Config(2, 16, 16, -3, 1 << 8))
    assert(e.getMessage.contains("diff"))
  }

  test("Config's partition width does not overflow near Int.MaxValue") {
    val cfg = Config(4, 16, 16, 1, Int.MaxValue)
    assert(cfg.partWidth == 536870912)
    assert(Seq(0, Int.MaxValue / 2, Int.MaxValue - 1).map(cfg.partOf) == Seq(0, 1, 3))
  }

  test("a failing run leaves no joiner registered") {
    val cfg    = Config(2, 16, 16, 4, 1 << 8)
    val tuples = MicroBatchPimJoin.toTuples(workload(100, 1 << 8, 16))
    // the input fails after the first batch has registered its joiners
    val failing = LazyList.tabulate(tuples.size)(i => if (i < 50) tuples(i) else sys.error("input lost"))
    assertThrows[RuntimeException](MicroBatchPimJoin.runBatches(spark, "t-fail", failing, cfg, 50))
    assert(MicroBatchPimJoin.Registry.registered("t-fail") == 0)
  }

  test("registry isolates jobs and clears state") {
    val cfg = Config(2, 16, 16, 4, 1 << 8)
    val j1  = MicroBatchPimJoin.Registry.joinerFor("job-a", 0, cfg)
    val j2  = MicroBatchPimJoin.Registry.joinerFor("job-b", 0, cfg)
    assert(!(j1 eq j2))
    assert(MicroBatchPimJoin.Registry.joinerFor("job-a", 0, cfg) eq j1)
    MicroBatchPimJoin.Registry.clear("job-a")
    assert(!(MicroBatchPimJoin.Registry.joinerFor("job-a", 0, cfg) eq j1))
  }
}
