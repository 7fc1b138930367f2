package repro.stream

import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.TaskContext
import org.apache.spark.sql.{Dataset, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream

import repro.StreamGen.Workload
import repro.core.{Arrivals, Band, IntVec, LongVec}
import repro.index.PIMTree
import repro.join.{ResultSink, WindowJoin}

/** The calibration target: the partitioned in-memory merge-tree join run
  * per key-range partition, one Spark task per partition, within
  * micro-batches.
  *
  * Keys are range-partitioned into `numPartitions` disjoint intervals
  * (content-sensitive, like PIM-Tree's own partitioning — not round-
  * robin). Each partition owns a [[PartitionJoiner]]: a pair of PIM-Trees
  * plus window bookkeeping, held in a JVM singleton registry (valid under
  * `local[*]` where driver and executors share one JVM — stated in
  * DESIGN.md). Per batch, every tuple is routed to its *home* partition
  * (which indexes it) and replicated to the partitions whose range
  * overlaps [x − diff, x + diff] for lookup, so each result pair is
  * produced exactly once, by the later-arriving tuple.
  *
  * A batch is routed once, on the driver, into one primitive slice per
  * partition, and the slices are joined by a single shuffle-free Spark
  * stage: the batch and its pairs pass through the driver, which already
  * holds the batch in both drivers below. A local batch is read from its
  * rows and its pairs are returned as they are, so it runs no Catalyst
  * query.
  *
  * Batches can be driven either directly ([[processBatch]]) or through
  * Structured Streaming micro-batches ([[runStreaming]] via MemoryStream
  * + foreachBatch).
  */
object MicroBatchPimJoin {

  /** One stream arrival: global seq, stream tag, stream-local seq, the
    * opposite stream's latest seq at arrival, and the join key.
    */
  final case class InTuple(gseq: Long, isR: Boolean, sseq: Int, oppHead: Int, x: Int)

  /** A tuple routed to one partition (`home` = this partition indexes it). */
  final case class Routed(part: Int, gseq: Long, isR: Boolean, sseq: Int,
                          oppHead: Int, x: Int, home: Boolean)

  final case class OutPair(rSeq: Int, sSeq: Int)

  final case class Config(
      numPartitions: Int,
      wR: Int,
      wS: Int,
      diff: Int,
      keySpace: Int,
      mergeRatio: Double = 1.0,
      selfJoin: Boolean = false,
  ) {
    require(numPartitions >= 1, s"numPartitions must be >= 1, got $numPartitions")
    require(wR >= 1 && wS >= 1, s"window sizes must be >= 1, got wR=$wR, wS=$wS")
    require(keySpace >= 1, s"keySpace must be >= 1, got $keySpace")
    require(mergeRatio > 0, s"mergeRatio must be > 0, got $mergeRatio")
    private[stream] val band = Band(diff)

    val partWidth: Int = math.max(1, ((keySpace.toLong + numPartitions - 1) / numPartitions).toInt)

    /** The home partition of key `x`: the one that indexes it. Keys below 0
      * or at or above `keySpace` belong to the first or last partition.
      */
    def partOf(x: Int): Int = math.min(numPartitions - 1, math.max(0, x) / partWidth)

    /** The partitions whose key range overlaps x's band [x − diff, x + diff]:
      * each probes for x, and `partOf(x)` among them also indexes it.
      */
    def bandParts(x: Int): Range = partOf(band.lo(x)) to partOf(band.hi(x))
  }

  /** Ints per row of a routed slice: sseq, oppHead, x, flags. */
  private final val RowInts = 4
  private final val IsRFlag  = 1
  private final val HomeFlag = 2

  @inline private def flags(isR: Boolean, home: Boolean): Int =
    (if (isR) IsRFlag else 0) | (if (home) HomeFlag else 0)
  @inline private def packPair(rSeq: Int, sSeq: Int): Long = (rSeq.toLong << 32) | (sSeq & 0xffffffffL)
  @inline private def unpackPair(p: Long): OutPair = OutPair((p >>> 32).toInt, p.toInt)

  /** Single-partition joiner: two PIM-Trees (R and S sides) over the
    * partition's key interval, joined by one [[WindowJoin]] that indexes
    * only the tuples this partition is home to (a PIM-Tree merges only
    * right after an insert). Single-threaded per partition — Spark's
    * task-per-partition is the unit of parallelism here, so the window is
    * always fully indexed and no edge-tuple machinery is needed.
    */
  final class PartitionJoiner(cfg: Config) {
    /** The PIM-Trees' insertion depth D_I. */
    private final val InsertionDepth = 2
    private def mkIndex(w: Int) =
      new PIMTree(InsertionDepth,
                  math.max(1, (cfg.mergeRatio * w / cfg.numPartitions).toInt))
    private val indexR = mkIndex(cfg.wR)
    private val indexS = if (cfg.selfJoin) indexR else mkIndex(cfg.wS)
    private val join   = new WindowJoin(cfg.wR, cfg.wS, cfg.diff, indexR, indexS, cfg.selfJoin)

    /** Join one routed slice (see [[processBatch]]); returns the packed pairs. */
    private[stream] def processSlice(slice: Array[Int]): Array[Long] = {
      val res = new LongVec(slice.length)
      val sink: ResultSink = (rSeq, sSeq) => res.add(packPair(rSeq, sSeq))
      var i = 0
      while (i < slice.length) {
        val flags = slice(i + 3)
        join.offer((flags & IsRFlag) != 0, slice(i), slice(i + 1), slice(i + 2), (flags & HomeFlag) != 0, sink)
        i += RowInts
      }
      res.toArray
    }

    /** Process one batch slice, pre-sorted by gseq. */
    def process(rows: Iterator[Routed]): Iterator[OutPair] =
      processSlice(rows.flatMap(r => Iterator(r.sseq, r.oppHead, r.x, flags(r.isR, r.home))).toArray)
        .iterator.map(unpackPair)
  }

  /** JVM singleton state, keyed by (jobId, partition). */
  object Registry {
    private val joiners = new ConcurrentHashMap[(String, Int), PartitionJoiner]
    def joinerFor(jobId: String, part: Int, cfg: Config): PartitionJoiner =
      joiners.computeIfAbsent((jobId, part), _ => new PartitionJoiner(cfg))
    /** Number of joiners held for `jobId`. */
    def registered(jobId: String): Int = joiners.keySet.stream.filter(_._1 == jobId).count.toInt
    def clear(jobId: String): Unit = {
      val it = joiners.keySet.iterator
      while (it.hasNext) if (it.next()._1 == jobId) it.remove()
    }
  }

  /** Route one arrival: replicate to every partition overlapping its band
    * for lookup; exactly one of those is also its indexing home.
    */
  def route(t: InTuple, cfg: Config): Seq[Routed] = {
    val home = cfg.partOf(t.x)
    cfg.bandParts(t.x).map(p => Routed(p, t.gseq, t.isR, t.sseq, t.oppHead, t.x, home = p == home))
  }

  /** Route a batch, sorted by gseq, into one slice per partition: rows of
    * [[RowInts]] ints (sseq, oppHead, x, isR/home flags) in gseq order.
    */
  private def slices(batch: Array[InTuple], cfg: Config): Array[Array[Int]] = {
    val parts = Array.fill(cfg.numPartitions)(new IntVec(RowInts * batch.length / cfg.numPartitions + RowInts))
    batch.foreach { t =>
      val home = cfg.partOf(t.x)
      cfg.bandParts(t.x).foreach { p =>
        val v = parts(p)
        v.add(t.sseq); v.add(t.oppHead); v.add(t.x); v.add(flags(t.isR, p == home))
      }
    }
    parts.map(_.toArray)
  }

  /** The schema of a `Dataset[InTuple]` built from local tuples. */
  private lazy val inSchema = Encoders.product[InTuple].schema

  /** A batch's tuples in gseq order. A local batch (a `LocalRelation` with
    * [[InTuple]]'s schema, as `toDS()` builds) is decoded from its rows by
    * ordinal, without running a query; any other plan is collected.
    */
  private def sortedTuples(batch: Dataset[InTuple]): Array[InTuple] = {
    val tuples = batch.queryExecution.analyzed match {
      case rel: LocalRelation if rel.schema == inSchema =>
        rel.data.iterator.map(r => InTuple(r.getLong(0), r.getBoolean(1), r.getInt(2), r.getInt(3), r.getInt(4))).toArray
      case _ => batch.collect()
    }
    tuples.sortBy(_.gseq)
  }

  /** One batch's result pairs, held on the driver as the packed `Long`s the
    * partition tasks returned.
    */
  final class BatchPairs private[stream] (packed: Array[Array[Long]]) {
    def collect(): Array[OutPair] = packed.flatMap(_.map(unpackPair))
  }

  /** One micro-batch, joined before this returns: read its tuples (from
    * the rows of a local batch, else by a collect), route each tuple once
    * into its partitions' slices, and run every non-empty slice through its
    * partition's joiner in one shuffle-free Spark stage. The pairs stay on
    * the driver, so every `collect()` sees the same pairs and none re-runs
    * the join.
    */
  def processBatch(spark: SparkSession, jobId: String, batch: Dataset[InTuple],
                   cfg: Config): BatchPairs = {
    val sliced = slices(sortedTuples(batch), cfg)
    val sc     = spark.sparkContext
    new BatchPairs(sc.runJob(sc.parallelize(sliced.toSeq, cfg.numPartitions),
                             (ctx: TaskContext, it: Iterator[Array[Int]]) =>
                               Registry.joinerFor(jobId, ctx.partitionId(), cfg).processSlice(it.next()),
                             sliced.indices.filter(sliced(_).nonEmpty)))
  }

  /** Convert a generated workload into arrival tuples. */
  def toTuples(workload: Workload, selfJoin: Boolean = false): Seq[InTuple] = {
    val c = new Arrivals.Cursor(workload, selfJoin)
    Vector.tabulate(workload.length) { i => c.next(i); InTuple(i, c.isR, c.seq, c.oppHead, workload.keys(i)) }
  }

  /** Drive the join through Structured Streaming: a MemoryStream fed in
    * `batchSize` chunks, joined per micro-batch via foreachBatch. Returns
    * all result pairs.
    */
  def runStreaming(spark: SparkSession, jobId: String, tuples: Seq[InTuple],
                   cfg: Config, batchSize: Int): Seq[OutPair] = {
    import spark.implicits._
    implicit val sq: org.apache.spark.sql.SQLContext = spark.sqlContext
    // foreachBatch joins on the query's thread; stop() joins that thread
    // before the pairs are read
    drive(spark, jobId, cfg) { join =>
      val stream = MemoryStream[InTuple]
      val query  = stream.toDS().writeStream.outputMode("append")
        .foreachBatch((df: Dataset[InTuple], _: Long) => join(df)).start()
      try tuples.grouped(batchSize).foreach { chunk =>
        stream.addData(chunk)
        query.processAllAvailable()
      } finally query.stop()
    }
  }

  /** Drive the join as a plain sequence of micro-batch Datasets (the
    * bench path — no streaming engine overhead in the measurement).
    */
  def runBatches(spark: SparkSession, jobId: String, tuples: Seq[InTuple],
                 cfg: Config, batchSize: Int): Seq[OutPair] = {
    import spark.implicits._
    drive(spark, jobId, cfg)(join => tuples.grouped(batchSize).foreach(chunk => join(chunk.toDS())))
  }

  /** The one driver loop: `batches` hands each batch, in order, to the
    * function it is given, which joins it with [[processBatch]] and keeps
    * its pairs. The job's joiners are dropped however it ends.
    */
  private def drive(spark: SparkSession, jobId: String, cfg: Config)
                   (batches: (Dataset[InTuple] => Unit) => Unit): Seq[OutPair] = {
    val res = Vector.newBuilder[OutPair]
    try batches(batch => res ++= processBatch(spark, jobId, batch, cfg).collect())
    finally Registry.clear(jobId)
    res.result()
  }
}
