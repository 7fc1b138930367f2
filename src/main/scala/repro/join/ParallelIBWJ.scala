package repro.join

import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicIntegerArray, AtomicLong, AtomicReference}
import java.util.concurrent.locks.ReentrantLock

import repro.StreamGen.Workload
import repro.core.{Arrivals, Band, Elem, IntVec, KeyRing, LongVec}
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
  * State is bounded by the windows and the tasks in flight, not by the
  * stream (Section 4.1's circular buffers): each stream's side (a
  * self-join has one) keeps its keys and indexed flags in rings addressed
  * by `seq & mask`, and each task in flight has one slot of a task ring
  * holding its completion stamp and its results. A task is handed out
  * only when its slot and the ring slots its seqs take are free;
  * otherwise the workers propagate, advance edges and expire until they
  * are.
  *
  * Works over any thread-safe [[WindowIndex]]; merge coordination applies
  * when both indexes are [[PIMTree]]s, incremental expiry is used when
  * neither is (the Bw-Tree baseline).
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
  require(numThreads >= 1, s"numThreads must be >= 1, got $numThreads")
  require(taskSize >= 1, s"taskSize must be >= 1, got $taskSize")
  require(wR >= 1 && wS >= 1, s"window sizes must be >= 1, got wR=$wR, wS=$wS")

  import ParallelIBWJ._

  private val n        = workload.length
  private val numTasks = n / taskSize + (if (n % taskSize == 0) 0 else 1)
  @volatile private var steadyStart: Long = 0

  private val band = Band(diff)

  // ---- task ring ------------------------------------------------------
  // Task t covers arrivals [t * taskSize, (t + 1) * taskSize) and uses
  // slot t & taskMask; four slots per worker let workers run ahead of a
  // slow task before its result propagation holds them back.
  private val taskSlots = KeyRing.pow2AtLeast(4L * numThreads)
  private val taskMask  = taskSlots - 1
  /** Number of the last task completed in each slot (the status word). */
  private val completed = new AtomicIntegerArray(Array.fill(taskSlots)(-1))
  /** Each slot's results: the opposite refs of its arrivals in arrival
    * order, with arrival k's ending at `resultEnds(slot * taskSize + k)`.
    */
  private val results    = Array.fill(taskSlots)(new IntVec(64))
  private val resultEnds = new Array[Int](taskSlots * taskSize)

  // ---- stream sides ---------------------------------------------------
  /** One stream's side: its index and, in rings of `keys.capacity` slots
    * (enough for the window plus a task per worker; beyond that, tasks
    * wait for ring slots to free up), its keys and indexed flags. It
    * follows a cursor's `r` count if `isR`, else its `s` count.
    */
  private final class Window(size: Int, index: WindowIndex, isR: Boolean)
      extends Side(size, index, size.toLong + numThreads.toLong * taskSize) {
    /** The index if it is a PIM-Tree, which merges; else null. */
    val pim: PIMTree = idx match { case p: PIMTree => p; case _ => null }
    /** Seq last indexed in each slot: q is indexed iff slot q & mask reads q. */
    val indexed = new AtomicIntegerArray(Array.fill(keys.capacity)(-1))
    /** Earliest seq not yet indexed (the edge tuple). */
    val edge     = new AtomicInteger(0)
    val edgeLock = new ReentrantLock
    /** Seqs whose arrivals have been propagated. */
    @volatile var propagated = 0
    /** Seqs deleted from a non-merging index. */
    @volatile var expired = 0
    val expLock = new ReentrantLock
    /** The generation a merge built, until it is installed. */
    private var built: pim.State = _

    /** This stream's arrivals before where `c` stands. */
    @inline def count(c: Arrivals.Cursor): Int = if (isR) c.r else c.s

    def insert(key: Int, seq: Int): Unit = {
      idx.insert(key, seq)
      indexed.lazySet(seq & keys.mask, seq)
    }

    /** Whether a task's worth of new seqs finds its ring slots free: the
      * seqs they held must be older than every seq an in-flight probe, the
      * edge advance or expiry can still read.
      */
    def fits: Boolean =
      count(assigned) + taskSize - keys.capacity <= math.min(edge.get, if (mergeCapable) propagated - w else expired)

    /** Edge-tuple advance with the paper's test-and-set fast path. */
    def advanceEdge(): Unit =
      if (edgeLock.tryLock()) {
        try {
          var e = edge.get
          while (indexed.get(e & keys.mask) == e) e += 1
          edge.set(e)
        } finally edgeLock.unlock()
      }

    /** Delete tuples proven dead by the propagation barrier — non-merging
      * shared indexes only. A tuple with stream seq e may only be deleted
      * once every probe whose window can contain it has finished: those
      * are exactly the arrivals before the own-stream arrival with seq
      * e + w, so e is dead once that arrival has been propagated
      * (propagation is in arrival order). Deleting eagerly instead loses
      * results for in-flight older probes — a real race caught in tests.
      */
    def expire(): Unit =
      if (expLock.tryLock()) {
        try {
          val dead = propagated - w
          var e    = expired
          while (e < dead) { idx.expire(keys(e), e); e += 1 }
          expired = e
        } finally expLock.unlock()
      }

    /** Earliest live ref given the tuples handed out (head = assigned - 1,
      * live = [head - w + 1, head]).
      */
    def validFrom: Int = math.max(0, count(assigned) - w)

    def buildMerge(from: Int): Unit = built = pim.buildMergedState(from)
    def installMerge(): Unit = { pim.installState(built); built = null }
  }

  private val winR = new Window(wR, indexR, isR = true)
  private val winS = if (selfJoin) winR else new Window(wS, indexS, isR = false)
  /** The distinct sides: a self-join has one. */
  private val sides        = if (selfJoin) Array(winR) else Array(winR, winS)
  private val mergeCapable = winR.pim != null
  require(sides.forall(x => (x.pim != null) == mergeCapable), "indexR and indexS must both be PIM-Trees or both not")

  /** A step's own side is `side(isR)`, the side it probes `side(!isR)`. */
  @inline private def side(isR: Boolean): Window = if (isR) winR else winS

  // ---- shared mutable state -------------------------------------------
  private val queueLock = new ReentrantLock
  private var nextAvail = 0 // guarded by queueLock
  /** Stream counts of the arrivals handed out; guarded by queueLock. */
  private val assigned  = new Arrivals.Cursor(workload, selfJoin)
  private val activeTasks = new AtomicInteger(0)
  @volatile private var assignmentBlocked = false
  @volatile private var indexUpdatesSuspended = false // nonblocking merge phase 1
  private val mergeOwner = new AtomicBoolean(false)
  // The first exception a worker threw (indexes and sinks are caller
  // code). Once set, workers and the merger's quiescence wait stop, since
  // the dead worker's arrivals never complete, and run() rethrows it.
  private val failure = new AtomicReference[Throwable](null)

  private val propLock = new ReentrantLock
  /** Tasks propagated so far; written under propLock. */
  @volatile private var propTask = 0
  /** Stream counts of the propagated arrivals; guarded by propLock. */
  private val propagated = new Arrivals.Cursor(workload, selfJoin)

  // latency accounting (Fig. 10d): acquisition -> completion, nanos
  val latencySumNanos = new AtomicLong(0)
  val latencyCount    = new AtomicLong(0)

  val resultCount = new AtomicLong(0)

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
    require(propTask == numTasks, s"join did not drain: propagated $propTask of $numTasks tasks")
    val from = if (steadyStart == 0) t0 else steadyStart
    JoinStats(n - math.min(timedFrom, n), resultCount.get, end - from)
  }

  // ------------------------------------------------------------ workers

  private def workerLoop(sink: ResultSink): Unit = {
    val out  = new LongVec(64)
    val cur  = new Arrivals.Cursor(workload, selfJoin)
    var idle = 0
    while (propTask < numTasks && failure.get == null) {
      if (mergeCapable && !mergeOwner.get && needsAnyMerge && mergeOwner.compareAndSet(false, true)) {
        try runMerge()
        finally mergeOwner.set(false)
      }
      val task = acquireTask(cur)
      if (task >= 0) {
        processTask(task, cur, out)
        activeTasks.decrementAndGet()
        idle = 0
      } else {
        pause(idle)
        idle += 1
      }
      tryAdvanceEdges()
      tryPropagate(sink)
      if (!mergeCapable) tryExpire()
    }
    if (!mergeCapable) tryExpire()
  }

  /** Hands out the next task and sets `cur` to the stream counts before
    * it; returns the task's number, or -1 when assignment is blocked,
    * the stream is exhausted, or the task's ring slots are not free yet.
    */
  private def acquireTask(cur: Arrivals.Cursor): Int = {
    if (assignmentBlocked) return -1
    queueLock.lock()
    try {
      val t = nextAvail / taskSize
      if (assignmentBlocked || nextAvail >= n || t - propTask >= taskSlots || !sidesFit) -1
      else {
        val start = nextAvail
        val end   = math.min(n, start + taskSize)
        nextAvail = end
        if (steadyStart == 0 && start <= timedFrom && timedFrom < end)
          steadyStart = System.nanoTime()
        cur.moveTo(assigned)
        var i = start
        while (i < end) {
          assigned.next(i)
          side(assigned.isR).keys(assigned.seq) = workload.keys(i)
          i += 1
        }
        // counted inside the lock so the merger's quiescence wait is exact
        activeTasks.incrementAndGet()
        t
      }
    } finally queueLock.unlock()
  }

  private def sidesFit: Boolean = {
    var i = 0
    while (i < sides.length && sides(i).fits) i += 1
    i == sides.length
  }

  /** Result generation + index update (steps 2–3) for task t's arrivals;
    * `cur` stands at the task's first arrival.
    */
  private def processTask(t: Int, cur: Arrivals.Cursor, out: LongVec): Unit = {
    val acquiredAt = if (trackLatency) System.nanoTime() else 0L
    val slot   = t & taskMask
    val res    = results(slot)
    val start  = t * taskSize
    val end    = math.min(n, start + taskSize)
    val update = !indexUpdatesSuspended // fixed for a task: merges flip it under quiescence
    var latency = 0L
    res.clear()
    var i = start
    while (i < end) {
      cur.next(i)
      val k   = workload.keys(i)
      val opp = side(!cur.isR)
      val tl  = cur.oppHead
      if (tl >= 0) {
        val te   = Arrivals.windowStart(tl, opp.w)
        val edge = opp.edge.get // snapshot before probing
        out.clear()
        opp.idx.rangeSearch(band.lo(k), band.hi(k), out)
        var j = 0
        while (j < out.size) {
          val ref = Elem.ref(out(j))
          // keep index hits strictly before the edge snapshot; the linear
          // scan below owns [edge, t_l] — no duplicates either way
          if (ref >= te && ref <= tl && ref < edge) res.add(ref)
          j += 1
        }
        val scanFrom = math.max(te, edge)
        var s = scanFrom
        while (s <= tl) {
          if (band.matches(opp.keys(s), k)) res.add(s)
          s += 1
        }
        // non-indexed window region is read linearly (Fig. 11d: this grows
        // with thread count and shifts the traffic split toward loads)
        if (tl >= scanFrom) repro.core.Telemetry.load((tl - scanFrom + 1).toLong * 4)
      }
      resultEnds(slot * taskSize + i - start) = res.size
      // ---- index update; in merge phase 1 the merger inserts it later ----
      if (update) side(cur.isR).insert(k, cur.seq)
      // latency = task processing time (the paper's Fig 10d metric):
      // acquisition -> completion, not propagation (ordering backlog would
      // swamp the task-size signal)
      if (trackLatency) latency += System.nanoTime() - acquiredAt
      i += 1
    }
    if (trackLatency) {
      latencySumNanos.addAndGet(latency)
      latencyCount.addAndGet(end - start)
    }
    completed.lazySet(slot, t)
  }

  private def tryExpire(): Unit = {
    var i = 0
    while (i < sides.length) { sides(i).expire(); i += 1 }
  }

  private def tryAdvanceEdges(): Unit = {
    var i = 0
    while (i < sides.length) { sides(i).advanceEdge(); i += 1 }
  }

  /** In-order result propagation (step 4), a completed task at a time;
    * skipped if another thread holds the propagation mutex.
    */
  private def tryPropagate(sink: ResultSink): Unit = {
    if (propLock.tryLock()) {
      try {
        var t = propTask
        while (t < numTasks && completed.get(t & taskMask) == t) {
          val slot  = t & taskMask
          val res   = results(slot)
          val start = t * taskSize
          val end   = math.min(n, start + taskSize)
          var j = 0
          var i = start
          while (i < end) {
            propagated.next(i)
            val seq  = propagated.seq
            val last = resultEnds(slot * taskSize + i - start)
            while (j < last) {
              if (propagated.isR) sink.emit(seq, res(j)) else sink.emit(res(j), seq)
              j += 1
            }
            i += 1
          }
          resultCount.addAndGet(res.size.toLong)
          i = 0
          while (i < sides.length) { sides(i).propagated = sides(i).count(propagated); i += 1 }
          t += 1
          propTask = t
        }
      } finally propLock.unlock()
    }
  }

  // ------------------------------------------------------------- merges

  private def needsAnyMerge: Boolean = {
    var i = 0
    while (i < sides.length && !sides(i).pim.needsMerge) i += 1
    i < sides.length
  }

  /** Block task assignment and wait until running tasks drain. */
  private def quiesce(): Unit = {
    queueLock.lock()
    try assignmentBlocked = true
    finally queueLock.unlock()
    var spins = 0
    while (activeTasks.get > 0 && failure.get == null) { pause(spins); spins += 1 }
  }

  private def resume(): Unit = assignmentBlocked = false

  /** One merge: quiesce, pick the sides whose PIM-Trees need a merge,
    * build their next generations, install them, resume, then index the
    * arrivals handed out while they were built. A nonblocking merge
    * (Section 4.2) resumes assignment for the build, with index updates
    * suspended, and quiesces again to install; a blocking one stalls
    * throughout, so no arrival is handed out meanwhile.
    */
  private def runMerge(): Unit = {
    quiesce()
    val merging     = sides.filter(_.pim.needsMerge)
    val from        = merging.map(_.validFrom)
    val pending     = new Arrivals.Cursor(workload, selfJoin)
    val pendingFrom = nextAvail
    pending.moveTo(assigned)
    if (nonblockingMerge) {
      indexUpdatesSuspended = true
      resume()
    }
    merging.indices.foreach(k => merging(k).buildMerge(from(k)))
    if (nonblockingMerge) quiesce()
    val pendingTo = nextAvail
    merging.foreach(_.installMerge())
    indexUpdatesSuspended = false
    resume()
    var i = pendingFrom
    while (i < pendingTo) {
      pending.next(i)
      side(pending.isR).insert(workload.keys(i), pending.seq)
      i += 1
    }
    tryAdvanceEdges()
  }
}

object ParallelIBWJ {
  /** Busy-wait rounds before a waiting thread starts yielding its core,
    * so idle workers do not starve busy ones when threads outnumber cores.
    */
  private val SpinRounds = 64

  private def pause(round: Int): Unit =
    if (round < SpinRounds) Thread.onSpinWait() else Thread.`yield`()
}
