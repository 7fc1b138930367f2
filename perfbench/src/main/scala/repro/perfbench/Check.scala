package repro.perfbench

import repro.core.LongVec
import repro.join.{CollectingSink, CountingSink, ResultSink, SingleThreadedJoin}
import repro.bench.Harness

/** Result sink of the timed runs. Count and checksum use the program's
  * own [[CountingSink]] formula. It also notes when the in-order output
  * first reached each boundary of `blockSize` timed arrivals, calls
  * `onTimed` (if given) when it first reaches a timed arrival, and, when
  * `gaps` is given, times the gaps between consecutive emits.
  */
final class CheckSink(in: Inputs, blockSize: Int, gaps: EmitGaps = null,
                      onTimed: () => Unit = null) extends ResultSink {
  val counts = new CountingSink
  private val (arrR, arrS) = in.arrivalOf
  private var next         = in.prefill
  private val crossings    = new LongVec(64)

  override def emit(rSeq: Int, sSeq: Int): Unit = {
    counts.emit(rSeq, sSeq)
    // the later of the pair's two tuples is the arrival that produced it
    val a = math.max(arrR(rSeq), arrS(sSeq))
    if (a >= next) {
      val now = System.nanoTime()
      if (crossings.size == 0 && onTimed != null) onTimed()
      while (a >= next) { crossings.add(now); next += blockSize }
    }
    if (gaps != null) gaps.tick()
  }

  /** Wall time of each block of timed arrivals, in ms, from the moment
    * the output reached it to the moment it reached the next; the last
    * block ends at `endNs`, when the run returned.
    */
  def blockMillis(endNs: Long): Seq[Double] =
    (0 until crossings.size).map { j =>
      val until = if (j + 1 < crossings.size) crossings(j + 1) else endNs
      (until - crossings(j)) / 1e6
    }
}

/** Gaps between consecutive sink emits; those of 1 ms or more are
  * recorded as spans under `parent`. Emits arrive in arrival order under
  * the join's propagation lock, so a merge that stalls the output shows
  * up here.
  */
final class EmitGaps(log: SpanLog) {
  var parent: Int  = -1
  var maxGapNs     = 0L
  var stallNs      = 0L
  private var last = 0L

  /** Forget the previous emit: the next segment starts here. */
  def restart(): Unit = last = 0L

  def tick(): Unit = {
    val now = System.nanoTime()
    if (last != 0L) {
      val gap = now - last
      if (gap > maxGapNs) maxGapNs = gap
      if (gap >= 1000000L) { stallNs += gap; log.record("join.emit_gap", parent, last, now) }
    }
    last = now
  }
}

/** The reference answer each timed run is checked against, computed with
  * a different runner than any workload times: single-threaded IBWJ over
  * B+-Trees, itself checked against the nested-loop join on prefixes.
  */
object Reference {

  /** Count and checksum of the results produced by each batch of
    * `batchSize` consecutive arrivals, by batch.
    */
  def compute(in: Inputs, batchSize: Int): Array[CountingSink] = {
    val (arrR, arrS) = in.arrivalOf
    val batches = Array.fill((in.length + batchSize - 1) / batchSize)(new CountingSink)
    val sink = new ResultSink {
      override def emit(rSeq: Int, sSeq: Int): Unit =
        batches(math.max(arrR(rSeq), arrS(sSeq)) / batchSize).emit(rSeq, sSeq)
    }
    SingleThreadedJoin.ibwj(in.wl, in.w, in.w, in.diff, Harness.bplus(), Harness.bplus(), sink, in.selfJoin)
    batches
  }

  /** Compare the reference runner with the nested loop on two prefixes:
    * one with the workload's window, and a longer one with a small window
    * so that expiry is exercised. Returns the first disagreement.
    */
  def selfCheck(in: Inputs): Option[String] = {
    val smallW = 512
    val cases = Seq(
      (math.min(in.length, 12000), in.w, in.diff),
      (math.min(in.length, 20000), smallW, math.min(Int.MaxValue.toLong, in.diff.toLong * in.w / smallW).toInt),
    )
    cases.collectFirst(Function.unlift { case (n, w, diff) =>
      val wl  = Harness.truncate(in.wl, n)
      val ref = new CountingSink
      val nl  = new CountingSink
      SingleThreadedJoin.ibwj(wl, w, w, diff, Harness.bplus(), Harness.bplus(), ref, in.selfJoin)
      SingleThreadedJoin.nlwj(wl, w, w, diff, nl, in.selfJoin)
      if (ref.count == nl.count && ref.checksum == nl.checksum) None
      else Some(s"reference IBWJ over B+ disagrees with NLWJ on $n arrivals, w=$w: " +
                s"${ref.count} vs ${nl.count} results")
    })
  }

  /** Pairs of the nested-loop join that `got` misses. */
  def lostPairs(in: Inputs, got: Iterable[(Int, Int)]): Long = {
    val nl = new CollectingSink
    SingleThreadedJoin.nlwj(in.wl, in.w, in.w, in.diff, nl, in.selfJoin)
    (nl.pairs.toSet -- got).size.toLong
  }
}
