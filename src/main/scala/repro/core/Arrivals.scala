package repro.core

import repro.StreamGen.Workload

/** Count-based arrival geometry of a workload (Section 2.1): stream-local
  * seqs are the sliding-window refs.
  */
object Arrivals {
  /** Oldest seq of a window of `w` tuples whose newest seq is `head`. */
  @inline def windowStart(head: Int, w: Int): Int = math.max(0, head - w + 1)

  /** The arrivals one at a time, in O(1) space: fed them in order, it
    * yields each one's stream, its `seq`, and `oppHead`, the newest seq of
    * the stream it probes (t_l, -1 if none). A self-join has one stream:
    * every arrival is an R tuple and probes R, whose window a self-joining
    * runner keeps as its S side too.
    */
  class Cursor(workload: Workload, selfJoin: Boolean) {
    /** R and S tuples before the next arrival. */
    var r: Int = 0
    var s: Int = 0
    /** The arrival last passed to `next`. */
    var isR: Boolean = false
    var seq: Int     = 0
    var oppHead: Int = -1

    /** Step over arrival i, which must follow the arrivals already counted. */
    @inline def next(i: Int): Unit =
      if (selfJoin || workload.fromR(i)) {
        isR = true; seq = r; oppHead = if (selfJoin) r - 1 else s - 1; r += 1
      } else {
        isR = false; seq = s; oppHead = r - 1; s += 1
      }
  }
}

/** The keys of one stream's newest tuples (Section 4.1's circular
  * buffer): seq q lives at slot `q & mask` of a power-of-two ring of at
  * least `slots` slots, which holds the last `capacity` seqs written.
  */
final class KeyRing(slots: Long) {
  val capacity: Int = KeyRing.pow2AtLeast(slots)
  val mask: Int     = capacity - 1
  private val keys  = new Array[Int](capacity)

  @inline def apply(seq: Int): Int = keys(seq & mask)
  @inline def update(seq: Int, key: Int): Unit = keys(seq & mask) = key
}

object KeyRing {
  /** Smallest power of two >= x. */
  def pow2AtLeast(x: Long): Int = {
    require(x <= (1 << 30), s"ring of $x slots is too large")
    var c = 1
    while (c < x) c <<= 1
    c
  }
}
