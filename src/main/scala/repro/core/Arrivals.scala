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
  *
  * The arrays are the run of one [[Arrivals.Cursor]] over the whole
  * workload; a runner that must not hold per-arrival state uses cursors
  * directly.
  */
final class Arrivals(workload: Workload, selfJoin: Boolean) {
  val length: Int = workload.length
  val streamSeq   = new Array[Int](length)
  val oppHead     = new Array[Int](length)
  /** Keys of each stream, addressed by stream seq. */
  val keysR: Array[Int] = new Array[Int](if (selfJoin) length else workload.fromR.count(identity))
  val keysS: Array[Int] = if (selfJoin) keysR else new Array[Int](length - keysR.length)

  locally {
    val c = new Arrivals.Cursor(workload, selfJoin)
    var i = 0
    while (i < length) {
      c.next(i)
      streamSeq(i) = c.seq; oppHead(i) = c.oppHead; keys(c.isR)(c.seq) = workload.keys(i)
      i += 1
    }
  }

  /** Whether arrival i is an R tuple (always, in a self-join). */
  @inline def isR(i: Int): Boolean = selfJoin || workload.fromR(i)

  /** Whether arrival i probes stream R: the opposite one, or its own in a self-join. */
  @inline def probesR(i: Int): Boolean = selfJoin || !workload.fromR(i)

  @inline def key(i: Int): Int = workload.keys(i)

  @inline def keys(r: Boolean): Array[Int] = if (r) keysR else keysS
}

object Arrivals {
  def apply(workload: Workload, selfJoin: Boolean = false): Arrivals = new Arrivals(workload, selfJoin)

  /** Oldest seq of a window of `w` tuples whose newest seq is `head`. */
  @inline def windowStart(head: Int, w: Int): Int = math.max(0, head - w + 1)

  /** The arrival geometry one arrival at a time, in O(1) space: fed the
    * arrivals in order from any point whose stream counts it knows, it
    * yields each one's stream, seq and t_l.
    */
  final class Cursor(workload: Workload, selfJoin: Boolean) {
    /** R and S tuples before the next arrival. */
    var r: Int = 0
    var s: Int = 0
    /** The arrival last passed to `next`. */
    var isR: Boolean = false
    var seq: Int     = 0
    var oppHead: Int = -1

    /** Whether the arrival last passed to `next` probes stream R. */
    @inline def probesR: Boolean = selfJoin || !isR

    /** Continue from where `c` stands. */
    @inline def moveTo(c: Cursor): Unit = { r = c.r; s = c.s }

    /** Step over arrival i, which must follow the arrivals already counted. */
    @inline def next(i: Int): Unit =
      if (selfJoin || workload.fromR(i)) {
        isR = true; seq = r; oppHead = if (selfJoin) r - 1 else s - 1; r += 1
      } else {
        isR = false; seq = s; oppHead = r - 1; s += 1
      }
  }
}
