package repro.join

import repro.core.{Arrivals, Band, Elem, KeyRing, LongVec}
import repro.index.WindowIndex

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
  private val keysR = new KeyRing(wR)
  private val keysS = if (selfJoin) keysR else new KeyRing(wS)
  private val out   = new LongVec(64)

  /** Join tuple `seq` of stream R (`isR`) or S with key `key`, arriving
    * when the newest tuple of the stream it probes is `oppHead`: emit each
    * match to `sink` as (rSeq, sSeq) and return how many there were. When
    * `home`, also expire, index and maintain. Arrivals come in order; a
    * joiner home to only some of a stream's tuples needs indexes that
    * ignore `expire`, as its ring lacks the other tuples' keys.
    */
  def offer(isR: Boolean, seq: Int, oppHead: Int, key: Int, home: Boolean, sink: ResultSink): Int = {
    val oppR = selfJoin || !isR
    val te   = Arrivals.windowStart(oppHead, if (oppR) wR else wS)
    out.clear()
    (if (oppR) indexR else indexS).rangeSearch(band.lo(key), band.hi(key), out)
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
      val ownR = selfJoin || isR
      val own  = if (ownR) indexR else indexS
      val keys = if (ownR) keysR else keysS
      val w    = if (ownR) wR else wS
      // the expired tuple's slot is the one this arrival's key takes
      if (seq >= w) own.expire(keys(seq - w), seq - w)
      keys(seq) = key
      own.insert(key, seq)
      own.maintain(Arrivals.windowStart(seq, w))
    }
    res
  }
}
