package repro.join

import repro.core.{Arrivals, Band, Elem, IntVec, KeyRing, LongVec, Telemetry}
import repro.index.WindowIndex

/** One stream's side of a window join: its window size, its index (none
  * for NLWJ) and the keys of its newest `slots` tuples. A self-join joins
  * a stream with its own window (Section 2.1), so its S side is its R side.
  */
private[join] class Side(val w: Int, val idx: WindowIndex, slots: Long) {
  val keys = new KeyRing(slots)

  /** Section 4.1's probe of this side's window [t_e, tl] for `key`: the
    * index (searched into the scratch `hits`) owns the seqs before `edge`,
    * which must all be indexed, and a scan of the key ring owns [edge, tl],
    * so each match is added to `refs` once. `edge = tl + 1` leaves the
    * whole window, even an empty one, to the index (one search per IBWJ
    * step), `edge = t_e` to the scan; a side without an index only scans.
    */
  def probe(band: Band, key: Int, tl: Int, edge: Int, hits: LongVec, refs: IntVec): Unit = {
    val te   = Arrivals.windowStart(tl, w)
    val last = math.min(tl, edge - 1)
    if (idx != null && (edge > te || edge > tl)) {
      hits.clear()
      idx.rangeSearch(band.lo(key), band.hi(key), hits)
      var j = 0
      while (j < hits.size) {
        val ref = Elem.ref(hits(j))
        if (ref >= te && ref <= last) refs.add(ref)
        j += 1
      }
    }
    val from = math.max(te, edge)
    var s    = from
    while (s <= tl) {
      if (band.matches(keys(s), key)) refs.add(s)
      s += 1
    }
    // the scanned region is read linearly (Fig. 11d: it grows with the
    // parallel join's thread count and shifts the traffic toward loads)
    if (tl >= from) Telemetry.load((tl - from + 1).toLong * 4)
  }
}

/** The IBWJ step of Section 2.2 for one arrival, on one thread: probe the
  * opposite side's whole window through its index, expire the own tuple
  * that leaves the window, insert, then run maintenance (merges, segment
  * disposal). Besides the indexes, each stream keeps only the keys of its
  * last `w` tuples, in a [[KeyRing]], for expiry.
  */
final class WindowJoin(wR: Int, wS: Int, diff: Int, indexR: WindowIndex, indexS: WindowIndex,
                       selfJoin: Boolean) {
  require(wR >= 1 && wS >= 1, s"window sizes must be >= 1, got wR=$wR, wS=$wS")
  private val band  = Band(diff)
  private val sideR = new Side(wR, indexR, wR)
  private val sideS = if (selfJoin) sideR else new Side(wS, indexS, wS)
  private val hits  = new LongVec(64)
  private val refs  = new IntVec(64)

  @inline private def side(isR: Boolean): Side = if (isR) sideR else sideS

  /** Join tuple `seq` of stream R (`isR`) or S with key `key`, arriving
    * when the newest tuple of the stream it probes is `oppHead`: emit each
    * match to `sink` as (rSeq, sSeq) and return how many there were. When
    * `home`, also expire, index and maintain. Arrivals come in order; a
    * joiner home to only some of a stream's tuples needs indexes that
    * ignore `expire`, as its ring lacks the other tuples' keys.
    */
  def offer(isR: Boolean, seq: Int, oppHead: Int, key: Int, home: Boolean, sink: ResultSink): Int = {
    refs.clear()
    side(!isR).probe(band, key, oppHead, oppHead + 1, hits, refs)
    var j = 0
    while (j < refs.size) {
      if (isR) sink.emit(seq, refs(j)) else sink.emit(refs(j), seq)
      j += 1
    }
    if (home) {
      val own = side(isR)
      // the expired tuple's slot is the one this arrival's key takes
      if (seq >= own.w) own.idx.expire(own.keys(seq - own.w), seq - own.w)
      own.keys(seq) = key
      own.idx.insert(key, seq)
      own.idx.maintain(Arrivals.windowStart(seq, own.w))
    }
    refs.size
  }
}
