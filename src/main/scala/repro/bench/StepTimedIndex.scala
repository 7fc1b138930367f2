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

/** A [[WindowIndex]] that times each call of `inner` into `nanos`. A
  * probe runs twice: an empty range at its low end times the traversal
  * alone, then the real range.
  */
final class StepTimedIndex(inner: WindowIndex, nanos: StepNanos) extends WindowIndex {
  private val empty = new LongVec(1)

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
    nanos.search += t1 - t0
    nanos.scan += System.nanoTime() - t1
  }

  override def expire(key: Int, ref: Int): Unit = {
    val t0 = System.nanoTime()
    inner.expire(key, ref)
    nanos.delete += System.nanoTime() - t0
  }

  override def insert(key: Int, ref: Int): Unit = {
    val t0 = System.nanoTime()
    inner.insert(key, ref)
    nanos.insert += System.nanoTime() - t0
  }

  override def maintain(validFrom: Int): Unit = {
    val t0 = System.nanoTime()
    inner.maintain(validFrom)
    nanos.merge += System.nanoTime() - t0
    nanos.arrived()
  }
}
