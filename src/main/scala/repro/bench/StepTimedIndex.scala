package repro.bench

import repro.core.LongVec
import repro.index.WindowIndex

/** Per-step nanos of single-threaded IBWJ (Fig. 9b) over the arrivals
  * from `timedFrom` on, summed by the [[StepTimedIndex]]es of one run:
  * `search` is the traversal to the first match, `scan` the whole probe.
  * Each arrival ends with one `maintain` of its own index, which counts
  * it. The prefill is timed too, so that the timed arrivals run code the
  * JIT has already compiled, and its sums are dropped when it ends.
  */
final class StepNanos(timedFrom: Int) {
  var search, scan, insert, delete, merge: Long = 0
  private var arrivals = 0

  private[bench] def arrived(): Unit = {
    arrivals += 1
    if (arrivals == timedFrom) { search = 0; scan = 0; insert = 0; delete = 0; merge = 0 }
  }
}

/** A [[WindowIndex]] that times each call of `inner` into `nanos`, less
  * the timer's own cost ([[StepTimedIndex.TimerNs]]), and never below 0. A
  * probe runs twice: an empty range at its low end times the traversal
  * alone, then the real range.
  */
final class StepTimedIndex(inner: WindowIndex, nanos: StepNanos) extends WindowIndex {
  private val empty   = new LongVec(1)
  private val timerNs = StepTimedIndex.TimerNs

  /** A call's time from the readings around it. */
  @inline private def callNs(t0: Long, t1: Long): Long = math.max(0L, t1 - t0 - timerNs)

  override def name: String = inner.name
  override def size: Int = inner.size
  override def memoryBytes: Long = inner.memoryBytes

  override def rangeSearch(lo: Int, hi: Int, out: LongVec): Unit = {
    // traversal only: an empty range at lo (lo + 1 when lo - 1 would wrap)
    val tlo = math.max(lo, Int.MinValue + 1)
    val t0  = System.nanoTime()
    inner.rangeSearch(tlo, tlo - 1, empty)
    val t1 = System.nanoTime()
    inner.rangeSearch(lo, hi, out)
    val t2 = System.nanoTime()
    nanos.search += callNs(t0, t1)
    nanos.scan += callNs(t1, t2)
  }

  override def expire(key: Int, ref: Int): Unit = {
    val t0 = System.nanoTime()
    inner.expire(key, ref)
    nanos.delete += callNs(t0, System.nanoTime())
  }

  override def insert(key: Int, ref: Int): Unit = {
    val t0 = System.nanoTime()
    inner.insert(key, ref)
    nanos.insert += callNs(t0, System.nanoTime())
  }

  override def maintain(validFrom: Int): Unit = {
    val t0 = System.nanoTime()
    inner.maintain(validFrom)
    nanos.merge += callNs(t0, System.nanoTime())
    nanos.arrived()
  }
}

object StepTimedIndex {
  /** The part of a timed interval that is the timer's, not the call's: the
    * median gap between back-to-back `System.nanoTime` readings, measured
    * once per JVM; the rounds before the last warm the loop up.
    */
  lazy val TimerNs: Long = {
    val gaps = new Array[Long](1 << 16)
    for (_ <- 0 until 4; i <- gaps.indices) { val t0 = System.nanoTime(); gaps(i) = System.nanoTime() - t0 }
    gaps.sorted.apply(gaps.length / 2)
  }
}
