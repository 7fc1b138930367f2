package repro.join

import repro.StreamGen.Workload
import repro.core.{Arrivals, Band, IntVec}
import repro.index.WindowIndex

/** Single-threaded window band join runners: nested-loop (NLWJ) and
  * index-based (IBWJ) over any [[WindowIndex]] (Sections 2.1–2.2).
  *
  * Stream-local sequence numbers are the sliding-window references; the
  * window content of stream X right after its n-th tuple arrived is the
  * seq range [n - w, n - 1]. Both runners read the arrivals through an
  * [[Arrivals.Cursor]] and keep only the windows (NLWJ's keys in a
  * [[Side]] per stream), so their state does not grow with the stream.
  */
object SingleThreadedJoin {

  /** Nested-loop window join: probe = linear scan of the opposite window,
    * a [[Side.probe]] whose edge is the window's oldest seq.
    *
    * @param timedFrom arrivals before this index only fill the windows
    *                  (no probe, no timing) — steady-state measurement
    */
  def nlwj(workload: Workload, wR: Int, wS: Int, diff: Int, sink: ResultSink,
           selfJoin: Boolean = false, timedFrom: Int = 0): JoinStats = {
    require(wR >= 1 && wS >= 1, s"window sizes must be >= 1, got wR=$wR, wS=$wS")
    val band  = Band(diff)
    val sideR = new Side(wR, null, wR)
    val sideS = if (selfJoin) sideR else new Side(wS, null, wS)
    val c     = new Arrivals.Cursor(workload, selfJoin)
    val refs  = new IntVec(64)
    drive(workload.length, timedFrom) { i =>
      c.next(i)
      val k   = workload.keys(i)
      val own = if (c.isR) sideR else sideS
      refs.clear()
      if (i >= timedFrom) {
        val opp = if (c.isR) sideS else sideR
        // an edge at t_e leaves the whole window to the scan: NLWJ has no index
        opp.probe(band, k, c.oppHead, Arrivals.windowStart(c.oppHead, opp.w), hits = null, refs)
        var j = 0
        while (j < refs.size) {
          if (c.isR) sink.emit(c.seq, refs(j)) else sink.emit(refs(j), c.seq)
          j += 1
        }
      }
      // after the scan: in a self-join this slot held the window's oldest key
      own.keys(c.seq) = k
      refs.size.toLong
    }
  }

  /** Index-based window join, Section 2.2: every arrival goes through one
    * [[WindowJoin.offer]] — probe, expire, insert, maintain.
    *
    * @param timedFrom arrivals before this index are joined but not timed
    */
  def ibwj(workload: Workload, wR: Int, wS: Int, diff: Int,
           indexR: WindowIndex, indexS: WindowIndex, sink: ResultSink,
           selfJoin: Boolean = false, timedFrom: Int = 0): JoinStats = {
    val join = new WindowJoin(wR, wS, diff, indexR, indexS, selfJoin)
    val c    = new Arrivals.Cursor(workload, selfJoin)
    drive(workload.length, timedFrom) { i =>
      c.next(i)
      join.offer(c.isR, c.seq, c.oppHead, workload.keys(i), home = true, sink).toLong
    }
  }

  /** Runs `step` over arrivals 0 until n in order, summing the result counts
    * it returns; the clock and the tuple count start at `timedFrom` (at most n).
    */
  private def drive(n: Int, timedFrom: Int)(step: Int => Long): JoinStats = {
    val from = math.min(timedFrom, n)
    var res  = 0L
    var t0   = System.nanoTime()
    var i    = 0
    while (i < n) {
      if (i == from) t0 = System.nanoTime()
      res += step(i)
      i += 1
    }
    JoinStats(n - from, res, System.nanoTime() - t0)
  }
}
