package repro.join

import repro.core.{Arrivals, Band, Elem, KeyRing, LongVec}
import repro.index.WindowIndex

/** One stream's side of a window join: its window size, its index (none
  * for NLWJ) and the keys of its newest `slots` tuples. A self-join joins
  * a stream with its own window (Section 2.1), so its S side is its R side.
  */
private[join] class Side(val w: Int, val idx: WindowIndex, slots: Long) {
  val keys = new KeyRing(slots)
}

/** The IBWJ step of Section 2.2 for one arrival, on one thread: probe the
  * opposite index over the band and keep the refs in [t_e, t_l], expire
  * the own tuple that leaves the window, insert, then run maintenance
  * (merges, segment disposal). Besides the indexes, each stream keeps
  * only the keys of its last `w` tuples, in a [[KeyRing]], for expiry.
  */
final class WindowJoin(wR: Int, wS: Int, diff: Int, indexR: WindowIndex, indexS: WindowIndex,
                       selfJoin: Boolean) {
  require(wR >= 1 && wS >= 1, s"window sizes must be >= 1, got wR=$wR, wS=$wS")
  private val band  = Band(diff)
  private val sideR = new Side(wR, indexR, wR)
  private val sideS = if (selfJoin) sideR else new Side(wS, indexS, wS)
  private val out   = new LongVec(64)

  @inline private def side(isR: Boolean): Side = if (isR) sideR else sideS

  /** Join tuple `seq` of stream R (`isR`) or S with key `key`, arriving
    * when the newest tuple of the stream it probes is `oppHead`: emit each
    * match to `sink` as (rSeq, sSeq) and return how many there were. When
    * `home`, also expire, index and maintain. Arrivals come in order; a
    * joiner home to only some of a stream's tuples needs indexes that
    * ignore `expire`, as its ring lacks the other tuples' keys.
    */
  def offer(isR: Boolean, seq: Int, oppHead: Int, key: Int, home: Boolean, sink: ResultSink): Int = {
    val opp = side(!isR)
    val te  = Arrivals.windowStart(oppHead, opp.w)
    out.clear()
    opp.idx.rangeSearch(band.lo(key), band.hi(key), out)
    var res = 0
    var j   = 0
    while (j < out.size) {
      val ref = Elem.ref(out(j))
      if (ref >= te && ref <= oppHead) {
        res += 1
        if (isR) sink.emit(seq, ref) else sink.emit(ref, seq)
      }
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
    res
  }
}
