package repro.join

import repro.StreamGen.Workload
import repro.core.{Arrivals, Band, Elem, LongVec, Telemetry}
import repro.index.WindowIndex

/** Per-step time accounting for the cost-breakdown experiment (Fig. 9b).
  * All values are nanoseconds summed over the run.
  */
final class StepTimers {
  var searchNanos: Long = 0 // index traversal to the first match
  var scanNanos: Long   = 0 // leaf scan + expiry filtering beyond traversal
  var insertNanos: Long = 0
  var deleteNanos: Long = 0
  var mergeNanos: Long  = 0
}

/** Single-threaded window band join runners: nested-loop (NLWJ) and
  * index-based (IBWJ) over any [[WindowIndex]] (Sections 2.1–2.2).
  *
  * Stream-local sequence numbers are the sliding-window references; the
  * window content of stream X right after its n-th tuple arrived is the
  * seq range [n - w, n - 1]. Expired entries possibly returned by
  * coarse-disposal indexes are filtered here by ref — the moral
  * equivalent of the paper's expired-flag check.
  */
object SingleThreadedJoin {

  /** Nested-loop window join: probe = linear scan of the opposite window.
    *
    * @param timedFrom arrivals before this index only fill the windows
    *                  (no probe, no timing) — steady-state measurement
    */
  def nlwj(workload: Workload, wR: Int, wS: Int, diff: Int, sink: ResultSink,
           selfJoin: Boolean = false, timedFrom: Int = 0): JoinStats = {
    require(wR >= 1 && wS >= 1, s"window sizes must be >= 1, got wR=$wR, wS=$wS")
    val band = Band(diff)
    val a    = Arrivals(workload, selfJoin)
    val n    = a.length
    var res  = 0L
    var t0   = System.nanoTime()
    var i    = 0
    while (i < n) {
      if (i == timedFrom) t0 = System.nanoTime()
      if (i >= timedFrom) {
        val isR     = a.isR(i)
        val k       = a.key(i)
        val seq     = a.streamSeq(i)
        val oppR    = a.probesR(i)
        val oppKeys = a.keys(oppR)
        val tl      = a.oppHead(i)
        var j       = Arrivals.windowStart(tl, if (oppR) wR else wS)
        while (j <= tl) {
          if (band.matches(oppKeys(j), k)) {
            res += 1
            if (isR) sink.emit(seq, j) else sink.emit(j, seq)
          }
          j += 1
        }
      }
      i += 1
    }
    JoinStats(n - timedFrom, res, System.nanoTime() - t0)
  }

  /** Index-based window join, Section 2.2: per arrival — (1) probe the
    * opposite index, (2) delete/flag the expired own tuple, (3) insert
    * into the own index, then run index maintenance (merges, segment
    * disposal).
    *
    * @param timers when non-null, per-step nanos are accumulated (the
    *               runner then pays ~4 extra nanoTime calls per tuple, so
    *               keep it off for throughput measurements)
    */
  def ibwj(workload: Workload, wR: Int, wS: Int, diff: Int,
           indexR: WindowIndex, indexS: WindowIndex, sink: ResultSink,
           selfJoin: Boolean = false, timers: StepTimers = null,
           timedFrom: Int = 0): JoinStats = {
    require(wR >= 1 && wS >= 1, s"window sizes must be >= 1, got wR=$wR, wS=$wS")
    val band  = Band(diff)
    val a     = Arrivals(workload, selfJoin)
    val n     = a.length
    val out   = new LongVec(64)
    val empty = new LongVec(1)
    var res   = 0L
    var t0    = System.nanoTime()
    var i     = 0
    while (i < n) {
      if (i == timedFrom) t0 = System.nanoTime()
      val tm     = if (i >= timedFrom) timers else null
      val isR    = a.isR(i)
      val k      = a.key(i)
      val seq    = a.streamSeq(i)
      val oppR   = a.probesR(i)
      val oppIdx = if (oppR) indexR else indexS
      val ownIdx = if (isR) indexR else indexS
      val ownW   = if (isR) wR else wS

      // Step 1: probe
      val oppValidFrom = Arrivals.windowStart(a.oppHead(i), if (oppR) wR else wS)
      val lo = band.lo(k)
      val hi = band.hi(k)
      out.clear()
      if (tm != null) {
        // traversal only: an empty range at lo (lo + 1 when lo - 1 would wrap)
        val tlo = math.max(lo, Int.MinValue + 1)
        var t = System.nanoTime()
        oppIdx.rangeSearch(tlo, tlo - 1, empty)
        val t1 = System.nanoTime()
        tm.searchNanos += t1 - t
        t = t1
        oppIdx.rangeSearch(lo, hi, out)
        tm.scanNanos += System.nanoTime() - t
      } else oppIdx.rangeSearch(lo, hi, out)
      var j = 0
      while (j < out.size) {
        val ref = Elem.ref(out(j))
        if (ref >= oppValidFrom) {
          res += 1
          if (isR) sink.emit(seq, ref) else sink.emit(ref, seq)
          Telemetry.load(8)
        }
        j += 1
      }

      // Step 2: expire (incremental indexes delete; others flag-only)
      if (seq >= ownW) {
        val exp = seq - ownW
        if (tm != null) {
          val t = System.nanoTime()
          ownIdx.expire(a.keys(isR)(exp), exp)
          tm.deleteNanos += System.nanoTime() - t
        } else ownIdx.expire(a.keys(isR)(exp), exp)
      }

      // Step 3: insert + maintenance
      if (tm != null) {
        var t = System.nanoTime()
        ownIdx.insert(k, seq)
        val t1 = System.nanoTime()
        tm.insertNanos += t1 - t
        ownIdx.maintain(Arrivals.windowStart(seq, ownW))
        tm.mergeNanos += System.nanoTime() - t1
      } else {
        ownIdx.insert(k, seq)
        ownIdx.maintain(Arrivals.windowStart(seq, ownW))
      }
      Telemetry.store(8)
      i += 1
    }
    JoinStats(n - timedFrom, res, System.nanoTime() - t0)
  }
}
