package repro.core

import repro.StreamGen.Workload

/** Count-based arrival geometry of a workload (Section 2.1), derived once
  * per join.
  *
  * Arrival i is tuple `streamSeq(i)` of its stream; stream-local seqs are
  * the sliding-window refs. When it arrives, the newest tuple of the stream
  * it probes is `oppHead(i)` (t_l, -1 if none), so that window is the seq
  * range [`windowStart(oppHead(i), w)`, `oppHead(i)`]. A self-join has one
  * stream: every arrival is an R tuple, probes R, and `keysS eq keysR`.
  */
final class Arrivals(workload: Workload, selfJoin: Boolean) {
  val length: Int = workload.length
  val streamSeq   = new Array[Int](length)
  val oppHead     = new Array[Int](length)
  /** Keys of each stream, addressed by stream seq. */
  val keysR: Array[Int] = new Array[Int](if (selfJoin) length else workload.fromR.count(identity))
  val keysS: Array[Int] = if (selfJoin) keysR else new Array[Int](length - keysR.length)

  locally {
    var r = 0; var s = 0; var i = 0
    while (i < length) {
      if (isR(i)) {
        streamSeq(i) = r; oppHead(i) = if (selfJoin) r - 1 else s - 1; keysR(r) = workload.keys(i); r += 1
      } else {
        streamSeq(i) = s; oppHead(i) = r - 1; keysS(s) = workload.keys(i); s += 1
      }
      i += 1
    }
  }

  /** Whether arrival i is an R tuple (always, in a self-join). */
  @inline def isR(i: Int): Boolean = selfJoin || workload.fromR(i)

  /** Whether arrival i probes stream R: the opposite one, or its own in a self-join. */
  @inline def probesR(i: Int): Boolean = selfJoin || !workload.fromR(i)

  @inline def key(i: Int): Int = workload.keys(i)

  @inline def keys(r: Boolean): Array[Int] = if (r) keysR else keysS

  /** Arrival index of each seq of stream R or S: the inverse of `streamSeq`. */
  def arrivalIndex(r: Boolean): Array[Int] = {
    val idx = new Array[Int](keys(r).length)
    var i   = 0
    while (i < length) {
      if (selfJoin || workload.fromR(i) == r) idx(streamSeq(i)) = i
      i += 1
    }
    idx
  }
}

object Arrivals {
  def apply(workload: Workload, selfJoin: Boolean = false): Arrivals = new Arrivals(workload, selfJoin)

  /** Oldest seq of a window of `w` tuples whose newest seq is `head`. */
  @inline def windowStart(head: Int, w: Int): Int = math.max(0, head - w + 1)
}
