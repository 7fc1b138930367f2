package repro.perfbench

import repro.bench.Harness
import repro.index.PIMTree
import repro.join.{CollectingSink, JoinStats, ParallelIBWJ, SingleThreadedJoin}

/** An in-JVM [[ParallelIBWJ]] workload. A run is a sequence of segments;
  * each segment builds fresh indexes and a fresh join over the same inputs,
  * fills the windows with the untimed prefill, then joins the timed
  * arrivals.
  *
  * The runners are offline (they take the whole input), so a "batch" here
  * is a block of `blockSize` consecutive timed arrivals, timed at the
  * join's in-order output.
  *
  * @param threads  worker threads of [[ParallelIBWJ]]
  */
final class JoinBench(val name: String, inputs: Long => Inputs, threads: Int,
                      mkIndex: Int => PIMTree, blockSize: Int = JoinBench.BlockSize) extends Workload {
  import JoinBench._

  override def workerThreads: Int = threads

  private final class Tracing(val log: SpanLog) {
    val gaps = new EmitGaps(log)
  }

  private def segment(in: Inputs, tr: Tracing): Seg = {
    val t0   = System.nanoTime()
    val pimR = mkIndex(in.w)
    val pimS = if (in.selfJoin) pimR else mkIndex(in.w)
    val pims = Seq(pimR, pimS).distinct
    var span = -1
    if (tr != null) {
      span = tr.log.begin("join.run", -1)
      tr.gaps.parent = span
      tr.gaps.restart()
    }
    // count inserts per subindex over the timed arrivals only: during the
    // prefill the immutable part is small and has few subindexes
    val sink =
      if (tr == null) new CheckSink(in, blockSize)
      else new CheckSink(in, blockSize, tr.gaps, () => pims.foreach(_.trackInsertDistribution(true)))
    val jvm0  = JvmStats.sample()
    val join  = new ParallelIBWJ(in.wl, in.w, in.w, in.diff, pimR, pimS, threads, TaskSize,
                                 in.selfJoin, nonblockingMerge = true,
                                 trackLatency = tr != null, timedFrom = in.prefill)
    val built = System.nanoTime()
    val stats = join.run(sink)
    val end   = System.nanoTime()
    val jvm   = JvmStats.sample() - jvm0
    if (tr != null) tr.log.end(span)
    // the join and its indexes are still reachable here
    val heap = JvmStats.retainedHeapMb()
    java.lang.ref.Reference.reachabilityFence(join)
    Seg(stats, in.length, sink.counts.count, sink.counts.checksum, sink.blockMillis(end),
        setupNs = (built - t0) + (end - built - stats.nanos), heap, jvm,
        pims.map(_.mergeCount).sum, pims.map(_.totalMergeNanos).sum,
        pimR.currentState.numPartitions, pims.map(insertSkew), pims.map(_.memoryBytes).sum,
        join.latencySumNanos.get, join.latencyCount.get)
  }

  /** Segments until `seconds` of wall time per kind have passed: untraced
    * ones, and with `tr` traced ones too, alternating so that both kinds
    * see the same machine.
    */
  private def measure(in: Inputs, seconds: Int, tr: Tracing): (Seq[Seg], Seq[Seg]) = {
    val kinds = if (tr == null) Seq(null) else Seq(null, tr)
    val segs  = kinds.map(_ => Seq.newBuilder[Seg])
    val start = System.nanoTime()
    do kinds.zip(segs).foreach { case (k, b) => b += segment(in, k) }
    while (System.nanoTime() - start < kinds.size * seconds * 1000000000L)
    (segs.head.result(), segs.last.result())
  }

  override def run(cfg: RunConfig, log: SpanLog): Outcome = {
    val startS = JvmStats.uptimeS
    val in     = inputs(cfg.seed)
    val inputS = JvmStats.uptimeS
    val warm   = (1 to WarmSegments).map(_ => segment(in, null))
    val processSetupS = JvmStats.uptimeS
    val tracing = if (cfg.trace) new Tracing(log) else null
    val (timed, tracedOrTimed) = measure(in, cfg.seconds, tracing)
    val traced = if (cfg.trace) tracedOrTimed else Nil

    val refError = Reference.selfCheck(in)
    val ref      = Reference.compute(in, in.length).head
    val all      = warm ++ timed ++ traced
    val failed   = all.count(s => s.count != ref.count || s.checksum != ref.checksum)

    val blocks = timed.flatMap(_.blocksMs)
    val tps    = Stats.median(timed.map(_.tps))
    // block percentiles per segment, then the median over segments as for
    // throughput: a stretch of slow blocks caused from outside the process
    // moves one segment's tail, not the run's
    val e2e = Map(
      "throughput_tps"   -> tps,
      "batch_p50_ms"     -> Stats.median(timed.map(s => Stats.percentile(s.blocksMs, 50))),
      "batch_p90_ms"     -> Stats.median(timed.map(s => Stats.percentile(s.blocksMs, 90))),
      "retained_heap_mb" -> Stats.median(timed.map(_.heapMb)),
      "setup_s"          -> (processSetupS + Stats.median(timed.map(_.setupNs.toDouble)) / 1e9),
    )
    val notes = Seq(
      s"segments: ${timed.size} timed of ${in.length - in.prefill} arrivals after a ${in.prefill}-arrival prefill, " +
        s"$WarmSegments warm-up; batch = block of $blockSize arrivals",
      s"batch samples: ${blocks.size}; ${tailNote(blocks)}",
      f"setup: JVM start $startS%.3f s, inputs ${inputS - startS}%.3f s, warm-up ${processSetupS - inputS}%.3f s, " +
        f"median segment setup ${Stats.median(timed.map(_.setupNs.toDouble)) / 1e9}%.3f s",
      "segment throughput (tuples/s): warm-up " + warm.map(s => f"${s.tps}%.0f").mkString(" ") +
        "; timed " + timed.map(s => f"${s.tps}%.0f").mkString(" "),
    ) ++ refError.toSeq
    val layers = if (cfg.trace) perLayer(in, cfg, log, timed, traced, tracing) else Map.empty[String, Double]
    Outcome(e2e ++ layers, all.size, failed, refError.isEmpty, notes)
  }

  private def perLayer(in: Inputs, cfg: RunConfig, log: SpanLog, timed: Seq[Seg],
                       traced: Seq[Seg], tr: Tracing): Map[String, Double] = {
    val tpsUntraced = Stats.median(timed.map(_.tps))
    val tpsTraced   = Stats.median(traced.map(_.tps))
    // ParallelIBWJ merges only into bare PIMTrees, so its index calls are
    // timed on an uncontended single-threaded replay of the same arrivals
    val (calls, callResults) = replay(in, log)
    val indexNsPerTuple = calls.timedNs.toDouble / (in.length - in.prefill)
    val arrivals = timed.map(_.arrivals.toLong).sum.toDouble
    val jvm      = timed.map(_.jvm).foldLeft(JvmStats.Zero)(_ + _)
    val merges   = traced.map(_.merges).sum
    Map(
      "index.insert_ns_p50"     -> calls.insertNs.percentile(50),
      "index.insert_ns_p99"     -> calls.insertNs.percentile(99),
      "index.probe_ns_p50"      -> calls.probeNs.percentile(50),
      "index.probe_ns_p99"      -> calls.probeNs.percentile(99),
      "index.probe_candidates"  -> ratio(calls.candidates.toDouble, calls.probeNs.count.toDouble),
      "index.probe_live_ratio"  -> ratio(callResults.toDouble, calls.candidates.toDouble),
      "index.merges"            -> merges.toDouble / traced.size,
      "index.merge_ms_mean"     -> ratio(traced.map(_.mergeNs).sum / 1e6, merges.toDouble),
      "index.merge_ns_per_elem" -> ratio(calls.mergeNs.toDouble, calls.mergeElems.toDouble),
      "index.subindexes"        -> traced.last.subindexes.toDouble,
      "index.insert_skew"       -> Stats.median(traced.flatMap(_.skews)),
      "index.bytes"             -> Stats.median(traced.map(_.indexBytes.toDouble)),
      // an estimate: worker time per arrival beyond the replayed index time
      "join.coord_ns_per_tuple" -> (threads * 1e9 / tpsUntraced - indexNsPerTuple),
      "join.results_per_tuple"  -> ratio(timed.map(_.stats.results).sum.toDouble, arrivals),
      "join.task_latency_us_mean" ->
        ratio(traced.map(_.latencySumNs).sum / 1e3, traced.map(_.latencyCount).sum.toDouble),
      "join.emit_gap_ms_max"    -> tr.gaps.maxGapNs / 1e6,
      "join.emit_stall_ms"      -> tr.gaps.stallNs / 1e6,
      "jvm.cpu_ns_per_tuple"    -> jvm.cpuNs / arrivals,
      "jvm.alloc_bytes_per_tuple" -> jvm.allocBytes / arrivals,
      "jvm.gc_ms"               -> jvm.gcMs.toDouble,
      "jvm.gc_count"            -> jvm.gcCount.toDouble,
      "trace.overhead_frac"     -> (1 - tpsTraced / tpsUntraced),
      "check.full_domain_lost_pairs" -> fullDomainLost(in.selfJoin, cfg.seed).toDouble,
    ) ++ Metrics.layer("stream").map(_ -> 0.0)
  }

  /** Index calls and results of a single-threaded replay through bare
    * indexes of the workload's geometry.
    */
  private def replay(in: Inputs, log: SpanLog): (IndexCalls, Long) = {
    val calls = new IndexCalls
    val span  = log.begin("replay.ibwj", -1)
    def wrap() = { val t = new TimedIndex(mkIndex(in.w), calls, log); t.parent = span; t }
    val iR = wrap()
    val iS = if (in.selfJoin) iR else wrap()
    val st = SingleThreadedJoin.ibwj(in.wl, in.w, in.w, in.diff, iR, iS,
                                     new CheckSink(in, blockSize, onTimed = () => calls.timedStart()),
                                     in.selfJoin, timedFrom = in.prefill)
    calls.timedEnd()
    log.end(span)
    (calls, st.results)
  }

  /** Pairs the workload's runner loses on keys over the full Int domain. */
  private def fullDomainLost(selfJoin: Boolean, seed: Long): Long = {
    val pin = Inputs.fullDomain(selfJoin, seed)
    val got = new CollectingSink
    val iR  = mkIndex(pin.w)
    val iS  = if (selfJoin) iR else mkIndex(pin.w)
    new ParallelIBWJ(pin.wl, pin.w, pin.w, pin.diff, iR, iS, threads, TaskSize, selfJoin).run(got)
    Reference.lostPairs(pin, got.pairs)
  }
}

object JoinBench {
  /** w = 2^16 per window: the paper's Fig. 10 scale, cut to fit this
    * benchmark's run length.
    */
  val W: Int = 1 << 16
  /** Timed arrivals per segment, and per batch: 16 batches a segment. */
  val Timed: Int     = 1 << 20
  val BlockSize: Int = 1 << 16
  /** ParallelIBWJ's arrivals per task. */
  val TaskSize: Int  = 8
  /** Untimed segments that warm the code paths before measuring. */
  val WarmSegments: Int = 3

  /** The product path: every in-JVM layer does real work. */
  def parUniform(threads: Int, w: Int = W, timed: Int = Timed, blockSize: Int = BlockSize) =
    new JoinBench("par_uniform", Inputs.uniformTwoWay(w, timed, _), threads, Harness.pimPar(_), blockSize = blockSize)

  /** One shared index takes probes and skewed inserts. */
  def parShiftSelf(threads: Int, w: Int = W, timed: Int = Timed, blockSize: Int = BlockSize) =
    new JoinBench("par_shift_self", Inputs.shiftingSelf(w, timed, _), threads, Harness.pimPar(_), blockSize = blockSize)

  private[perfbench] final case class Seg(
      stats: JoinStats, arrivals: Int, count: Long, checksum: Long, blocksMs: Seq[Double],
      setupNs: Long, heapMb: Double, jvm: JvmStats.Sample, merges: Long, mergeNs: Long,
      subindexes: Int, skews: Seq[Double], indexBytes: Long,
      latencySumNs: Long, latencyCount: Long) {
    def tps: Double = stats.throughput
  }

  /** Heaviest subindex's share of inserts, times the subindex count
    * (1 = even), from the index's own insert distribution counter.
    */
  def insertSkew(p: PIMTree): Double = {
    val d = p.insertDistribution
    if (d.isEmpty || d.sum == 0) 0.0 else d.max.toDouble / d.sum * d.length
  }

  def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  def tailNote(samples: Seq[Double]): String =
    Stats.tail(samples) match {
      case Some(t) => f"highest percentile with >= 10 samples beyond it: p${t.percentile}%.1f = ${t.value}%.3f ms of ${t.samples}"
      case None    => s"only ${samples.size} samples: no percentile has 10 beyond it"
    }
}
