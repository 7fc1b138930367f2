package repro.index

import java.util.concurrent.atomic.{AtomicLongArray, LongAdder}

import repro.core.{Elem, LongVec, SpinLock}

/** Partitioned In-memory Merge-Tree (Section 3.3) — the paper's primary
  * contribution. With `insertionDepth = 0` there is a single mutable
  * partition and the structure degenerates to the IM-Tree of Section 3.2
  * (see [[PIMTree.imTree]]).
  *
  * Two components:
  *  - `T_S`: an [[ImmutableBPlusTree]] holding the merged bulk; traversal
  *    is lock-free because the structure never changes in place.
  *  - `T_I`: one small mutable [[BPlusTree]] per inner node of `T_S` at the
  *    insertion level, each guarding a disjoint key range with one lock.
  *
  * Inserts route through `T_S` to the insertion level (Algorithm 1) and
  * take exactly one lock, a [[SpinLock]]: the sections are a few hundred
  * nanoseconds, shorter than parking and waking a thread. Each insert
  * counts itself in a `LongAdder`, so concurrent inserts into different
  * subindexes share no counter. Range searches scan `T_S` lock-free, then
  * walk the overlapping subindexes left to right with lock handover: the next
  * partition's lock is acquired before the current one is released
  * (Algorithm 2, lines 27–33).
  *
  * Merging (`merge` / the two-phase pair `buildMergedState` +
  * `installState` used by the nonblocking merge of Section 4.2) drops
  * expired entries of `T_S`, combines the survivors with all of `T_I`
  * into a sorted array, rebuilds `T_S` bottom-up and resets every
  * subindex to empty.
  */
final class PIMTree(
    val insertionDepth: Int,
    val mergeThreshold: Int,
    val bFanout: Int = 16,
    val ibFanout: Int = ImmutableBPlusTree.DefaultFanout,
    val ibLeafSize: Int = ImmutableBPlusTree.DefaultLeafNodeSize,
    val useLocks: Boolean = true,
) extends WindowIndex {
  require(insertionDepth >= 0, s"insertionDepth must be >= 0, got $insertionDepth")
  require(mergeThreshold >= 1, s"mergeThreshold must be >= 1, got $mergeThreshold")

  /** One generation of the structure: `T_S` plus its attached partitions.
    * Swapped wholesale at merge time; readers pin a generation by reading
    * the volatile `state` once per operation.
    */
  final class State(val ts: ImmutableBPlusTree) {
    val level: Int         = ts.effectiveInsertionLevel(insertionDepth)
    val numPartitions: Int = ts.nodesAtLevel(level)
    val subs: Array[BPlusTree] = Array.fill(numPartitions)(new BPlusTree(bFanout))
    val locks: Array[SpinLock] = Array.fill(numPartitions)(new SpinLock)
    /** inclusive max key of partition p's range; last is Int.MaxValue */
    val upper: Array[Int] = Array.tabulate(numPartitions)(p => ts.subtreeUpperBound(level, p))
    /** |T_I|: inserts into this generation */
    val tiSize = new LongAdder
  }

  @volatile private var state: State = new State(ImmutableBPlusTree.empty(ibFanout, ibLeafSize))

  /** current generation — exposed for tests and instrumentation */
  def currentState: State = state

  /** Inserts per subindex since tracking began (Fig. 13a instrumentation),
    * one slot per partition of the current generation; enabled by
    * [[trackInsertDistribution]]. [[installState]] resizes it to the new
    * generation, keeping the counts of the partitions both share.
    */
  @volatile private var insertCounts: AtomicLongArray = _
  def trackInsertDistribution(on: Boolean): Unit =
    synchronized { insertCounts = if (on) new AtomicLongArray(state.numPartitions) else null }
  def insertDistribution: Array[Long] = {
    val c = insertCounts
    if (c == null) Array.emptyLongArray else Array.tabulate(c.length)(c.get)
  }

  var mergeCount: Long      = 0
  var totalMergeNanos: Long = 0

  override def name: String = if (insertionDepth == 0) "IM-Tree" else "PIM-Tree"

  override def insert(key: Int, ref: Int): Unit = {
    val s = state
    val p = s.ts.nodeIndexAtLevel(key, s.level)
    // installState writes it before `state`, so it has a slot for s's p
    val c = insertCounts
    if (c != null) c.incrementAndGet(p)
    if (useLocks) {
      val l = s.locks(p)
      l.lock()
      try s.subs(p).insert(key, ref)
      finally l.unlock()
    } else s.subs(p).insert(key, ref)
    s.tiSize.increment()
  }

  override def expire(key: Int, ref: Int): Unit = () // coarse disposal at merge

  override def rangeSearch(lo: Int, hi: Int, out: LongVec): Unit = {
    val s = state
    // lock-free: T_S never changes; one walk finds lo's partition too
    var p = s.ts.rangeSearchAt(lo, hi, s.level, out)
    if (useLocks) s.locks(p).lock()
    var done = false
    while (!done) {
      s.subs(p).rangeSearch(lo, hi, out)
      if (hi <= s.upper(p) || p == s.numPartitions - 1) {
        if (useLocks) s.locks(p).unlock()
        done = true
      } else {
        // lock handover: acquire successor before releasing current
        if (useLocks) { s.locks(p + 1).lock(); s.locks(p).unlock() }
        p += 1
      }
    }
  }

  /** Entries currently buffered in the mutable component. */
  def tiSize: Int = state.tiSize.intValue

  def needsMerge: Boolean = tiSize >= mergeThreshold

  override def size: Int = { val s = state; s.ts.size + s.tiSize.intValue }

  override def maintain(validFrom: Int): Unit = if (needsMerge) merge(validFrom)

  /** Blocking merge: caller must guarantee quiescence (no concurrent
    * inserts/searches) — the parallel join drains active tasks first.
    */
  def merge(validFrom: Int): Unit = installState(buildMergedState(validFrom))

  /** Phase 1 of the nonblocking merge: build the next generation from the
    * current one without modifying it. Safe to run concurrently with
    * searches and with inserts *suspended* (the paper's no-index-update
    * mode); the caller applies tuples arriving meanwhile as pending
    * updates after [[installState]].
    */
  def buildMergedState(validFrom: Int): State = {
    val t0 = System.nanoTime()
    val s  = state

    // T_I: partitions hold disjoint ascending ranges, so concatenating the
    // per-partition sorted runs yields one key-sorted run.
    var tiLen = 0
    var p     = 0
    while (p < s.numPartitions) { tiLen += s.subs(p).size; p += 1 }
    val tiArr = new Array[Long](tiLen)
    var n     = 0
    p = 0
    while (p < s.numPartitions) {
      s.subs(p).foreachElement { e => tiArr(n) = e; n += 1 }
      p += 1
    }

    // T_S survivors: expired entries are dropped here, nowhere else
    val old = s.ts.leaves
    var m   = 0
    var i   = 0
    while (i < old.length) { if (Elem.ref(old(i)) >= validFrom) m += 1; i += 1 }

    // merge the survivors, skipping expired entries, with the T_I run
    val merged = new Array[Long](m + n)
    var a      = 0
    var b      = 0
    var o      = 0
    while (o < merged.length) {
      while (a < old.length && Elem.ref(old(a)) < validFrom) a += 1
      if (b == n || (a < old.length && Elem.key(old(a)) <= Elem.key(tiArr(b)))) { merged(o) = old(a); a += 1 }
      else { merged(o) = tiArr(b); b += 1 }
      o += 1
    }

    val st = new State(ImmutableBPlusTree.build(merged, ibFanout, ibLeafSize))
    totalMergeNanos += System.nanoTime() - t0
    mergeCount += 1
    st
  }

  /** Phase 2 of the nonblocking merge: swap in the next generation.
    * Caller guarantees no in-flight operations on the old generation.
    */
  def installState(st: State): Unit = synchronized {
    val c = insertCounts
    if (c != null && c.length != st.numPartitions) {
      val resized = new AtomicLongArray(st.numPartitions)
      var p = 0
      while (p < math.min(c.length, st.numPartitions)) { resized.set(p, c.get(p)); p += 1 }
      insertCounts = resized
    }
    state = st
  }

  override def memoryBytes: Long = {
    val s     = state
    var bytes = s.ts.memoryBytes
    var p     = 0
    while (p < s.numPartitions) { bytes += s.subs(p).memoryBytes; p += 1 }
    // nonblocking merge needs a buffer for the next generation's leaves
    bytes + s.ts.size.toLong * 8
  }
}

object PIMTree {
  /** The IM-Tree of Section 3.2: a PIM-Tree with a single mutable
    * partition and no routing step.
    */
  def imTree(mergeThreshold: Int, bFanout: Int = 16,
             ibFanout: Int = ImmutableBPlusTree.DefaultFanout,
             ibLeafSize: Int = ImmutableBPlusTree.DefaultLeafNodeSize): PIMTree =
    new PIMTree(0, mergeThreshold, bFanout, ibFanout, ibLeafSize, useLocks = false)
}
