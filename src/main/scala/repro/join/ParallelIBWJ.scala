package repro.join

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicIntegerArray, AtomicLong, AtomicReference}
import java.util.concurrent.locks.ReentrantLock

import repro.StreamGen.Workload
import repro.core.{Arrivals, Band, Elem, IntVec, LongVec}
import repro.index.{PIMTree, WindowIndex}

/** Parallel index-based window join over *shared* indexes — the Section 4
  * algorithm. Tuples are processed in four steps: task acquisition from a
  * shared work queue, result generation, index update, and in-arrival-
  * order result propagation.
  *
  * Invariants reproduced from the paper:
  *  - every arrival carries the opposite-window boundaries (t_l, t_e)
  *    fixed by its arrival position (count-based windows);
  *  - an *edge tuple* per stream marks the earliest non-indexed tuple:
  *    index probes keep hits strictly before the edge snapshot, and a
  *    linear window scan covers [edge, t_l] — no duplicates, no misses
  *    regardless of out-of-order indexing;
  *  - edge advance and result propagation use try-lock fast paths so a
  *    busy mutex never stalls a worker;
  *  - merges run under task-assignment quiescence; the nonblocking
  *    variant (Section 4.2) builds the next index generation while
  *    workers keep joining in no-index-update mode, then swaps and
  *    applies the pending inserts.
  *
  * Works over any thread-safe [[WindowIndex]]; merge coordination applies
  * when the indexes are [[PIMTree]]s, incremental expiry is used
  * otherwise (the Bw-Tree baseline).
  */
final class ParallelIBWJ(
    workload: Workload,
    wR: Int,
    wS: Int,
    diff: Int,
    indexR: WindowIndex,
    indexS: WindowIndex,
    numThreads: Int,
    taskSize: Int,
    selfJoin: Boolean = false,
    nonblockingMerge: Boolean = true,
    trackLatency: Boolean = false,
    /** arrivals before this index are processed but not timed (window
      * prefill for steady-state throughput measurement) */
    timedFrom: Int = 0,
) {
  require(numThreads >= 1 && taskSize >= 1)
  require(wR >= 1 && wS >= 1, s"window sizes must be >= 1, got wR=$wR, wS=$wS")

  private val n = workload.length
  @volatile private var steadyStart: Long = 0

  private val band     = Band(diff)
  private val arrivals = Arrivals(workload, selfJoin)
  import arrivals.{keysR, keysS, oppHead, streamSeq}
  val totalR: Int = keysR.length
  val totalS: Int = keysS.length

  // ---- shared mutable state -------------------------------------------
  private val StatusAvailable  = 0
  private val StatusActive     = 1
  private val StatusCompleted  = 2
  private val StatusPropagated = 3

  private val statuses  = new AtomicIntegerArray(n)
  private val results   = new Array[Array[Int]](n) // opposite refs per arrival
  private val queueLock = new ReentrantLock
  private var nextAvail = 0 // guarded by queueLock
  private var assignedR = 0 // R-arrivals handed out, guarded by queueLock
  private var assignedS = 0
  private val activeTasks = new AtomicInteger(0)
  @volatile private var assignmentBlocked = false
  @volatile private var indexUpdatesSuspended = false // nonblocking merge phase 1
  private val mergeOwner = new AtomicBoolean(false)
  // The first exception a worker threw (indexes and sinks are caller
  // code). Once set, workers and the merger's quiescence wait stop, since
  // the dead worker's arrivals never complete, and run() rethrows it.
  private val failure = new AtomicReference[Throwable](null)

  private val propLock = new ReentrantLock
  private val propHead = new AtomicInteger(0)

  private val edgeR     = new AtomicInteger(0)
  private val edgeS     = if (selfJoin) edgeR else new AtomicInteger(0)
  private val edgeLockR = new ReentrantLock
  private val edgeLockS = if (selfJoin) edgeLockR else new ReentrantLock
  private val indexedR  = new AtomicIntegerArray(math.max(1, totalR))
  private val indexedS  = if (selfJoin) indexedR else new AtomicIntegerArray(math.max(1, totalS))

  /** (isR, seq) pairs processed during nonblocking-merge phase 1, to be
    * applied as pending updates in phase 2. Packed: seq | isR << 32.
    */
  private val pendingInserts = new ConcurrentLinkedQueue[java.lang.Long]

  // ---- incremental expiry (non-merging indexes, e.g. the Bw-Tree) ----
  // A tuple with stream seq e may only be deleted once every probe whose
  // window can contain it has finished. Those are exactly the arrivals
  // before the own-stream arrival with seq e + w; once that arrival has
  // been *propagated* (propagation is in arrival order), all earlier
  // probes are complete and e is dead. Deleting eagerly instead loses
  // results for in-flight older probes — a real race caught in tests.
  // Merging indexes never expire incrementally, so they need no arrival index.
  private val arrIdxOfR = if (mergeCapable) null else arrivals.arrivalIndex(r = true)
  private val arrIdxOfS = if (mergeCapable || selfJoin) arrIdxOfR else arrivals.arrivalIndex(r = false)
  private val expLockR = new ReentrantLock
  private val expLockS = if (selfJoin) expLockR else new ReentrantLock
  private var nextExpR = 0 // guarded by expLockR
  private var nextExpS = 0 // guarded by expLockS

  // latency accounting (Fig. 10d): acquisition -> propagation, nanos
  private val acquiredAt = if (trackLatency) new Array[Long](n) else null
  val latencySumNanos    = new AtomicLong(0)
  val latencyCount       = new AtomicLong(0)

  val resultCount = new AtomicLong(0)

  private def idxFor(isR: Boolean): WindowIndex = if (isR) indexR else indexS
  private def mergeCapable: Boolean = indexR.isInstanceOf[PIMTree]

  // ---------------------------------------------------------------- run

  /** Run the join to completion with `numThreads` workers; `sink` sees
    * results in arrival order (called only under the propagation lock).
    * If a worker throws (in an index or the sink), the others stop and
    * the first such exception is rethrown here.
    */
  def run(sink: ResultSink): JoinStats = {
    val t0 = System.nanoTime()
    steadyStart = if (timedFrom == 0) t0 else 0
    val threads = (0 until numThreads).map { tid =>
      val t = new Thread(() => try workerLoop(sink) catch { case e: Throwable => failure.compareAndSet(null, e) },
                         s"ibwj-worker-$tid")
      t.setDaemon(true)
      t.start()
      t
    }
    threads.foreach(_.join())
    val end = System.nanoTime()
    if (failure.get != null) throw failure.get
    require(propHead.get == n, s"join did not drain: propagated=${propHead.get} of $n")
    val from = if (steadyStart == 0) t0 else steadyStart
    JoinStats(n - math.min(timedFrom, n), resultCount.get, end - from)
  }

  // ------------------------------------------------------------ workers

  private def workerLoop(sink: ResultSink): Unit = {
    val out = new LongVec(64)
    val acc = new IntVec(64)
    while (propHead.get < n && failure.get == null) {
      if (mergeCapable && !mergeOwner.get && needsAnyMerge && mergeOwner.compareAndSet(false, true)) {
        try runMerge()
        finally mergeOwner.set(false)
      }
      val task = acquireTask()
      if (task < 0) {
        tryPropagate(sink)
        Thread.onSpinWait()
      } else {
        val end = math.min(n, task + taskSize)
        var i   = task
        while (i < end) {
          processArrival(i, out, acc)
          i += 1
        }
        activeTasks.decrementAndGet()
        tryAdvanceEdges()
        tryPropagate(sink)
        if (!mergeCapable) tryExpire()
      }
    }
    if (!mergeCapable) tryExpire()
  }

  /** Delete tuples proven dead by the propagation barrier (see the field
    * comment above) — non-merging shared indexes only.
    */
  private def tryExpire(): Unit = {
    expireSide(expLockR, indexR, keysR, arrIdxOfR, wR, isR = true)
    if (!selfJoin) expireSide(expLockS, indexS, keysS, arrIdxOfS, wS, isR = false)
  }

  private def expireSide(lock: ReentrantLock, idx: WindowIndex, keys: Array[Int],
                         arrIdx: Array[Int], w: Int, isR: Boolean): Unit = {
    if (lock.tryLock()) {
      try {
        val ph = propHead.get
        var e  = if (isR) nextExpR else nextExpS
        while (e + w < keys.length && arrIdx(e + w) < ph) {
          idx.expire(keys(e), e)
          e += 1
        }
        if (isR) nextExpR = e else nextExpS = e
      } finally lock.unlock()
    }
  }

  /** Returns the first arrival index of the acquired task, or -1. */
  private def acquireTask(): Int = {
    if (assignmentBlocked) return -1
    queueLock.lock()
    try {
      if (assignmentBlocked || nextAvail >= n) -1
      else {
        val start = nextAvail
        val end   = math.min(n, start + taskSize)
        nextAvail = end
        if (steadyStart == 0 && start <= timedFrom && timedFrom < end)
          steadyStart = System.nanoTime()
        // the available->active transition is implicit in nextAvail (the
        // queue pointer IS the assignment record); per-tuple status only
        // needs the completed/propagated writes on the hot path
        var i = start
        val now = if (trackLatency) System.nanoTime() else 0L
        while (i < end) {
          if (trackLatency) acquiredAt(i) = now
          if (arrivals.isR(i)) assignedR += 1 else assignedS += 1
          i += 1
        }
        // counted inside the lock so the merger's quiescence wait is exact
        activeTasks.incrementAndGet()
        start
      }
    } finally queueLock.unlock()
  }

  /** Result generation + index update for one arrival (steps 2–3). */
  private def processArrival(i: Int, out: LongVec, acc: IntVec): Unit = {
    val isR     = arrivals.isR(i)
    val k       = arrivals.key(i)
    val seq     = streamSeq(i)
    val oppIsR  = arrivals.probesR(i)
    val oppKeys = if (oppIsR) keysR else keysS
    val tl      = oppHead(i)
    val te      = Arrivals.windowStart(tl, if (oppIsR) wR else wS)
    val edge    = if (oppIsR) edgeR.get else edgeS.get // snapshot before probing

    acc.clear()
    if (tl >= 0) {
      out.clear()
      idxFor(oppIsR).rangeSearch(band.lo(k), band.hi(k), out)
      var j = 0
      while (j < out.size) {
        val ref = Elem.ref(out(j))
        // keep index hits strictly before the edge snapshot; the linear
        // scan below owns [edge, t_l] — no duplicates either way
        if (ref >= te && ref <= tl && ref < edge) acc.add(ref)
        j += 1
      }
      val scanFrom = math.max(te, edge)
      var s = scanFrom
      while (s <= tl) {
        if (band.matches(oppKeys(s), k)) acc.add(s)
        s += 1
      }
      // non-indexed window region is read linearly (Fig. 11d: this grows
      // with thread count and shifts the traffic split toward loads)
      if (tl >= scanFrom) repro.core.Telemetry.load((tl - scanFrom + 1).toLong * 4)
    }
    results(i) = acc.toArray

    // ---- index update ----
    if (indexUpdatesSuspended && mergeCapable) {
      pendingInserts.add(java.lang.Long.valueOf(seq.toLong | (if (isR) 1L << 40 else 0L)))
    } else {
      val ownIdx = idxFor(isR)
      ownIdx.insert(k, seq)
      (if (isR) indexedR else indexedS).set(seq, 1)
    }
    statuses.set(i, StatusCompleted)
    // latency = task processing time (the paper's Fig 10d metric):
    // acquisition -> completion, not propagation (ordering backlog would
    // swamp the task-size signal)
    if (trackLatency) {
      latencySumNanos.addAndGet(System.nanoTime() - acquiredAt(i))
      latencyCount.incrementAndGet()
    }
  }

  /** Edge-tuple advance with the paper's test-and-set fast path. */
  private def tryAdvanceEdges(): Unit = {
    advanceEdge(edgeLockR, edgeR, indexedR, totalR)
    if (!selfJoin) advanceEdge(edgeLockS, edgeS, indexedS, totalS)
  }

  private def advanceEdge(lock: ReentrantLock, edge: AtomicInteger,
                          indexed: AtomicIntegerArray, total: Int): Unit = {
    if (lock.tryLock()) {
      try {
        var e = edge.get
        while (e < total && indexed.get(e) == 1) e += 1
        edge.set(e)
      } finally lock.unlock()
    }
  }

  /** In-order result propagation (step 4); skipped if another thread
    * holds the propagation mutex.
    */
  private def tryPropagate(sink: ResultSink): Unit = {
    if (propLock.tryLock()) {
      try {
        var h = propHead.get
        while (h < n && statuses.get(h) == StatusCompleted) {
          val isR  = arrivals.isR(h)
          val seq  = streamSeq(h)
          val res  = results(h)
          var j = 0
          while (j < res.length) {
            if (isR) sink.emit(seq, res(j)) else sink.emit(res(j), seq)
            j += 1
          }
          resultCount.addAndGet(res.length.toLong)
          results(h) = null
          statuses.set(h, StatusPropagated)
          h += 1
        }
        propHead.set(h)
      } finally propLock.unlock()
    }
  }

  // ------------------------------------------------------------- merges

  private def needsAnyMerge: Boolean =
    indexR.asInstanceOf[PIMTree].needsMerge ||
      (!selfJoin && indexS.asInstanceOf[PIMTree].needsMerge)

  /** Earliest live ref of stream X given how many of its tuples have been
    * handed out (head = assigned - 1, live = [head - w + 1, head]).
    */
  private def validFrom(isR: Boolean): Int = {
    val (assigned, w) = if (isR) (assignedR, wR) else (assignedS, wS)
    math.max(0, assigned - w)
  }

  /** Block task assignment and wait until running tasks drain. */
  private def quiesce(): Unit = {
    queueLock.lock()
    try assignmentBlocked = true
    finally queueLock.unlock()
    while (activeTasks.get > 0 && failure.get == null) Thread.onSpinWait()
  }

  private def resume(): Unit = assignmentBlocked = false

  private def runMerge(): Unit = {
    val pimR = indexR.asInstanceOf[PIMTree]
    val pimS = if (selfJoin) pimR else indexS.asInstanceOf[PIMTree]
    if (nonblockingMerge) {
      // phase 1: build next generation(s) while others join without
      // index updates
      quiesce()
      val mergeR = pimR.needsMerge
      val mergeS = !selfJoin && pimS.needsMerge
      val vfR = validFrom(isR = true)
      val vfS = validFrom(isR = false)
      indexUpdatesSuspended = true
      resume()
      val newR = if (mergeR) pimR.buildMergedState(vfR) else null
      val newS = if (mergeS) pimS.buildMergedState(vfS) else null
      // phase 2: swap under quiescence, then apply pending updates while
      // normal processing restarts
      quiesce()
      if (newR != null) pimR.installState(newR)
      if (newS != null) pimS.installState(newS)
      indexUpdatesSuspended = false
      resume()
      var p = pendingInserts.poll()
      while (p != null) {
        val packed = p.longValue()
        val isR    = (packed & (1L << 40)) != 0
        val seq    = (packed & 0xffffffffL).toInt
        idxFor(isR).insert(arrivals.keys(isR)(seq), seq)
        (if (isR) indexedR else indexedS).set(seq, 1)
        p = pendingInserts.poll()
      }
      tryAdvanceEdges()
    } else {
      // blocking merge: everything stalls for the duration
      quiesce()
      if (pimR.needsMerge) pimR.merge(validFrom(isR = true))
      if (!selfJoin && pimS.needsMerge) pimS.merge(validFrom(isR = false))
      resume()
    }
  }
}
