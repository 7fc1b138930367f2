package repro.join

import java.util.concurrent.atomic.{AtomicIntegerArray, AtomicLong, AtomicReference}

import repro.StreamGen.Workload
import repro.core.{Arrivals, Band, IntVec, KeyRing, LongVec, Padded, SpinLock}
import repro.core.SpinLock.pause
import repro.index.{PIMTree, WindowIndex}

/** Parallel index-based window join over *shared* indexes — the Section 4
  * algorithm. Tuples are processed in four steps: task acquisition from a
  * shared work queue, result generation, index update, and in-arrival-
  * order result propagation.
  *
  * Invariants reproduced from the paper:
  *  - every arrival carries the opposite-window boundaries (t_l, t_e)
  *    fixed by its arrival position (count-based windows), stamped once
  *    when its task is handed out;
  *  - an *edge tuple* per stream marks the earliest non-indexed tuple:
  *    index probes keep hits strictly before the edge snapshot, and a
  *    linear window scan covers [edge, t_l] — no duplicates, no misses
  *    regardless of out-of-order indexing;
  *  - edge advance and result propagation use try-lock fast paths so a
  *    busy mutex never stalls a worker, and test their next status word
  *    before touching the lock;
  *  - propagation is where an arrival's effects become final, so it is
  *    also where a non-merging index (the Bw-Tree baseline) loses the
  *    tuples that arrival pushed out of every window still probed;
  *  - merges run under task-assignment quiescence, owned by the worker
  *    whose hand-out filled T_I; the nonblocking variant (Section 4.2)
  *    builds the next index generation while workers keep joining in
  *    no-index-update mode, then swaps and applies the pending inserts.
  *
  * State is bounded by the windows and the tasks in flight, not by the
  * stream (Section 4.1's circular buffers): each stream's side (a
  * self-join has one) keeps its keys and indexed flags in rings addressed
  * by `seq & mask`, and each task in flight has one slot of a task ring
  * holding its completion stamp and its results. A task is handed out
  * only when its slot and the ring slots its seqs take are free;
  * otherwise the workers propagate and advance edges until they are.
  *
  * Every lock is a [[SpinLock]] and every wait spins, then yields, by
  * `SpinLock.pause`; nothing parks. No counter that all workers write is
  * touched per arrival: the merge trigger counts each side's arrivals
  * under the queue lock the acquirer already holds, quiescence reads the
  * task ring's status words, and each worker counts the results it
  * propagates. Each word that one thread writes while the others read it
  * (a lock, the task cursor, the propagated task, a status word, a side's
  * edge and counts) has a cache line of its own ([[Padded]]), away from
  * the fields every worker reads on each step.
  *
  * Works over any thread-safe [[WindowIndex]]; merges apply when both
  * indexes are [[PIMTree]]s, incremental expiry when neither is.
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
  /** Number of the last task completed in each slot (the status word), at
    * `Padded.at(slot)`.
    */
  private val completed = Padded.ints(taskSlots)
  (0 until taskSlots).foreach(slot => completed.set(Padded.at(slot), -1))
  /** Each slot's results: the opposite refs of its arrivals in arrival
    * order, with arrival k's ending at `resultEnds(slot * stride + k)`.
    */
  private val results    = Array.fill(taskSlots)(new IntVec(64))
  // slots of the Int arrays below start a multiple of 64 entries (256 bytes)
  // apart, so workers reading their own slots seldom share a cache line
  private val stride     = (taskSize + 63) & ~63
  private val resultEnds = new Array[Int](taskSlots * stride)
  /** Seq (`~seq` for stream S) and t_l of arrival k of a slot's task, at
    * `slot * stride + k`, stamped once when the task is handed out. */
  private val arrivalSeq = new Array[Int](taskSlots * stride)
  private val arrivalTl  = new Array[Int](taskSlots * stride)

  // ---- stream sides ---------------------------------------------------
  /** One stream's side: its index and, in rings of `keys.capacity` slots
    * (enough for the window plus a task per worker; beyond that, tasks
    * wait for ring slots to free up), its keys and indexed flags. Its
    * stream is R if `isR`, else S.
    */
  private final class Window(size: Int, index: WindowIndex, isR: Boolean)
      extends Side(size, index, size.toLong + numThreads.toLong * taskSize) {
    /** The index if it is a PIM-Tree, which merges; else null. */
    val pim: PIMTree = idx match { case p: PIMTree => p; case _ => null }
    /** Seq last indexed in each slot: q is indexed iff slot q & mask reads q. */
    val indexed = new AtomicIntegerArray(Array.fill(keys.capacity)(-1))
    /** The edge and propagated counts below. */
    private val counts   = Padded.ints(2)
    private val edgeLock = new SpinLock

    /** Earliest seq not yet indexed (the edge tuple); written under edgeLock. */
    @inline def edge: Int = counts.get(Padded.at(0))
    private def edge_=(q: Int): Unit = counts.set(Padded.at(0), q)
    /** Seqs whose arrivals have been propagated; written under propLock. */
    @inline def propagated: Int = counts.get(Padded.at(1))

    /** Publish q as the propagated count (under propLock), first deleting
      * from a non-merging index the seqs in [propagated - w, q - w), whose
      * keys `fits` keeps in the ring. Seq e is dead once this stream's
      * arrival e + w has been propagated: every probe whose window can hold
      * e comes before that arrival, and propagation is in arrival order.
      * Deleting eagerly instead loses results for in-flight older probes,
      * a real race caught in tests.
      */
    def propagated_=(q: Int): Unit = {
      if (pim == null) {
        var e = math.max(0, propagated - w)
        while (e < q - w) { idx.expire(keys(e), e); e += 1 }
      }
      counts.set(Padded.at(1), q)
    }

    /** Arrivals handed out before the index's current generation began,
      * so its |T_I| is `count - genStart` once they are all indexed (a
      * tree handed in with a non-empty T_I starts below 0). Guarded by
      * queueLock.
      */
    private var genStart = if (pim == null) 0 else -pim.tiSize
    /** The generation a merge built, until it is installed. */
    private var built: pim.State = _

    /** This stream's arrivals handed out so far (written under queueLock). */
    @inline def count: Int = if (isR) assigned.r else assigned.s

    /** Whether the arrivals handed out fill T_I to the m·w merge threshold
      * (under queueLock).
      */
    def tiFull: Boolean = count - genStart >= pim.mergeThreshold

    def insert(key: Int, seq: Int): Unit = {
      idx.insert(key, seq)
      indexed.lazySet(seq & keys.mask, seq)
    }

    /** The oldest seq an in-flight probe, the edge advance or expiry can
      * still read, as last seen under queueLock. It only grows, so a stale
      * value is a safe bound, and `fits` reads the counts other threads
      * write only when this one is too low.
      */
    private var oldestRead = 0

    /** Whether a task's worth of new seqs finds its ring slots free: the
      * seqs they held must be older than `oldestRead` (under queueLock).
      */
    def fits: Boolean = {
      val reused = count + taskSize - keys.capacity
      reused <= oldestRead || {
        oldestRead = math.min(edge, propagated - w)
        reused <= oldestRead
      }
    }

    /** Whether the edge tuple has been indexed, so the edge can move. */
    private def edgeIndexed: Boolean = { val e = edge; indexed.get(e & keys.mask) == e }

    /** Edge-tuple advance with the paper's test-and-set fast path, tested
      * first: a worker reads the edge's indexed flag and takes the lock
      * only if the edge can move. The holder tests again after unlocking,
      * since a worker that indexed the new edge meanwhile may have found
      * the lock held and moved on; an advance both miss is made on a later
      * loop, as every worker runs this on each loop until the join drains.
      */
    def advanceEdge(): Unit =
      while (edgeIndexed && edgeLock.tryLock()) {
        try {
          var e = edge
          while (indexed.get(e & keys.mask) == e) e += 1
          edge = e
        } finally edgeLock.unlock()
      }

    /** Earliest live ref given the tuples handed out (head = assigned - 1,
      * live = [head - w + 1, head]).
      */
    def validFrom: Int = math.max(0, count - w)

    /** Index the seqs in [edge, head) that a nonblocking merge's phase 1
      * handed out without indexing, reading their keys from the ring. A
      * seq at or above the edge keeps its ring slots (see `fits`); a slot
      * holding a newer seq was indexed, passed by the edge and reused.
      */
    def indexPending(head: Int): Unit = {
      var q = edge
      while (q < head) {
        if (indexed.get(q & keys.mask) < q) insert(keys(q), q)
        q += 1
      }
    }

    /** Count the next generation's T_I from the arrivals handed out so
      * far: called at the quiescence that starts its merge, after which
      * every arrival handed out goes into the next generation.
      */
    def startGeneration(): Unit = genStart = count

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
  private val queueLock = new SpinLock
  /** The first arrival not handed out (under queueLock) and the first task
    * not propagated (under propLock).
    */
  private val cursors = Padded.ints(2)
  @inline private def nextAvail: Int = cursors.get(Padded.at(0))
  @inline private def propTask: Int  = cursors.get(Padded.at(1))
  /** `propTask` as last seen under queueLock; like `oldestRead`, re-read
    * only when a task's slot looks taken.
    */
  private var propagatedTasks = 0
  /** Stream counts of the arrivals handed out; guarded by queueLock. */
  private val assigned  = new Arrivals.Cursor(workload, selfJoin)
  @volatile private var assignmentBlocked = false
  @volatile private var indexUpdatesSuspended = false // nonblocking merge phase 1
  /** The task whose hand-out found a side's T_I full, or -1: set under
    * queueLock while it is -1, so only that task's worker reads its own
    * task here. That worker runs the merge after processing the task, and
    * writes -1 only once the merge has replayed its pending inserts, so no
    * second merge reads a T_I the first is still filling.
    */
  @volatile private var mergeTask = -1
  // The first exception a worker threw (indexes and sinks are caller
  // code), or the interrupt of run()'s caller. Once set, workers and the
  // merger's quiescence wait stop, since the dead worker's arrivals never
  // complete, and run() rethrows it.
  private val failure = new AtomicReference[Throwable](null)

  private val propLock = new SpinLock

  // latency accounting (Fig. 10d): acquisition -> completion, nanos
  val latencySumNanos = new AtomicLong(0)
  val latencyCount    = new AtomicLong(0)

  // ---------------------------------------------------------------- run

  /** Run the join to completion with `numThreads` workers; `sink` sees
    * results in arrival order (called only under the propagation lock).
    * If a worker throws (in an index or the sink), the others stop and
    * the first such exception is rethrown here. So is the
    * `InterruptedException` of a caller interrupted while it waits, which
    * stops the workers the same way: a join that stops making progress
    * can be ended from outside.
    */
  def run(sink: ResultSink): JoinStats = {
    val t0 = System.nanoTime()
    steadyStart = if (timedFrom == 0) t0 else 0
    val results = new AtomicLong(0)
    val threads = (0 until numThreads).map { tid =>
      val t = new Thread(() =>
                           try results.addAndGet(workerLoop(sink))
                           catch { case e: Throwable => failure.compareAndSet(null, e) },
                         s"ibwj-worker-$tid")
      t.setDaemon(true)
      t.start()
      t
    }
    try threads.foreach(_.join())
    catch {
      case e: InterruptedException =>
        failure.compareAndSet(null, e)
        threads.foreach(_.join())
    }
    val end = System.nanoTime()
    if (failure.get != null) throw failure.get
    require(propTask == numTasks, s"join did not drain: propagated $propTask of $numTasks tasks")
    val from = if (steadyStart == 0) t0 else steadyStart
    JoinStats(n - math.min(timedFrom, n), results.get, end - from)
  }

  // ------------------------------------------------------------ workers

  /** One worker's steps until the join drains; returns the number of
    * results it propagated.
    */
  private def workerLoop(sink: ResultSink): Long = {
    val hits    = new LongVec(64)
    var emitted = 0L
    var idle    = 0
    while (propTask < numTasks && failure.get == null) {
      val task = acquireTask()
      if (task >= 0) {
        processTask(task, hits)
        if (task == mergeTask) runMerge()
        idle = 0
      } else {
        pause(idle)
        idle += 1
      }
      sides.foreach(_.advanceEdge())
      emitted += tryPropagate(sink)
    }
    emitted
  }

  /** Hands out the next task, stamping its arrivals and writing their
    * keys to the rings, and makes it the `mergeTask` if they fill a side's
    * T_I while no merge is under way; returns the task's number, or -1
    * when assignment is blocked, the stream is exhausted, or the task's
    * ring slots are not free yet.
    */
  private def acquireTask(): Int = {
    if (assignmentBlocked) return -1
    queueLock.lock()
    try {
      val t = nextAvail / taskSize
      if (assignmentBlocked || nextAvail >= n || !slotFree(t) || !sides.forall(_.fits)) -1
      else {
        val start = nextAvail
        val end   = math.min(n, start + taskSize)
        cursors.set(Padded.at(0), end)
        if (steadyStart == 0 && start <= timedFrom && timedFrom < end)
          steadyStart = System.nanoTime()
        var i = start
        var a = (t & taskMask) * stride
        while (i < end) {
          assigned.next(i)
          arrivalSeq(a) = if (assigned.isR) assigned.seq else ~assigned.seq
          arrivalTl(a) = assigned.oppHead
          side(assigned.isR).keys(assigned.seq) = workload.keys(i)
          i += 1
          a += 1
        }
        if (mergeCapable && mergeTask < 0 && sides.exists(_.tiFull)) mergeTask = t
        t
      }
    } finally queueLock.unlock()
  }

  /** Whether task t's slot has been propagated (under queueLock). */
  private def slotFree(t: Int): Boolean =
    t - propagatedTasks < taskSlots || { propagatedTasks = propTask; t - propagatedTasks < taskSlots }

  /** Result generation + index update (steps 2–3) for task t's arrivals. */
  private def processTask(t: Int, hits: LongVec): Unit = {
    val acquiredAt = if (trackLatency) System.nanoTime() else 0L
    val slot   = t & taskMask
    val res    = results(slot)
    val start  = t * taskSize
    val end    = math.min(n, start + taskSize)
    val update = !indexUpdatesSuspended // fixed for a task: merges flip it under quiescence
    var latency = 0L
    res.clear()
    var i = start
    var a = slot * stride
    while (i < end) {
      val k   = workload.keys(i)
      val s   = arrivalSeq(a)
      val opp = side(s < 0)
      // the edge is read once, before probing: the probe splits at this snapshot
      opp.probe(band, k, arrivalTl(a), opp.edge, hits, res)
      resultEnds(a) = res.size
      // ---- index update; in merge phase 1 the merger inserts it later ----
      if (update) side(s >= 0).insert(k, if (s >= 0) s else ~s)
      // latency = task processing time (the paper's Fig 10d metric):
      // acquisition -> completion, not propagation (ordering backlog would
      // swamp the task-size signal)
      if (trackLatency) latency += System.nanoTime() - acquiredAt
      i += 1
      a += 1
    }
    if (trackLatency) {
      latencySumNanos.addAndGet(latency)
      latencyCount.addAndGet(end - start)
    }
    completed.lazySet(Padded.at(slot), t)
  }

  /** Whether task t has completed, for a t whose slot no later task has
    * taken (t is at or after the first task not propagated, and handed out).
    */
  private def done(t: Int): Boolean = completed.get(Padded.at(t & taskMask)) == t

  /** Whether the next task to propagate has completed. */
  private def propagatable: Boolean = { val t = propTask; t < numTasks && done(t) }

  /** In-order result propagation (step 4), a completed task at a time;
    * skipped if the next task has not completed or another thread holds
    * the propagation mutex. Like the edge advance, the holder tests again
    * after unlocking. Returns the number of results propagated.
    */
  private def tryPropagate(sink: ResultSink): Long = {
    var emitted = 0L
    while (propagatable && propLock.tryLock()) {
      try {
        var t = propTask
        while (t < numTasks && done(t)) {
          val slot  = t & taskMask
          val res   = results(slot)
          val first = slot * stride
          val last  = first + math.min(taskSize, n - t * taskSize) - 1
          var j = 0
          var a = first
          while (a <= last) {
            val s = arrivalSeq(a)
            while (j < resultEnds(a)) {
              if (s >= 0) sink.emit(s, res(j)) else sink.emit(res(j), ~s)
              j += 1
            }
            a += 1
          }
          emitted += res.size
          // the stream counts after the task are those after its last
          // arrival: t_l + 1 for the stream it probes, seq + 1 for its own
          // (written last: in a self-join the two are one side)
          val s = arrivalSeq(last)
          side(s < 0).propagated = arrivalTl(last) + 1
          side(s >= 0).propagated = (if (s >= 0) s else ~s) + 1
          t += 1
          cursors.set(Padded.at(1), t)
        }
      } finally propLock.unlock()
    }
    emitted
  }

  // ------------------------------------------------------------- merges

  /** Block task assignment and wait until every task handed out has
    * completed, reading their status words in task order. Tasks before
    * the propagated one have; the rest have distinct slots, which no
    * later task reuses while assignment is blocked.
    */
  private def quiesce(): Unit = {
    queueLock.lock()
    val handedOut =
      try { assignmentBlocked = true; (nextAvail + taskSize - 1) / taskSize }
      finally queueLock.unlock()
    var t     = propTask
    var spins = 0
    while (t < handedOut && failure.get == null) {
      if (done(t)) t += 1
      else { pause(spins); spins += 1 }
    }
  }

  private def resume(): Unit = assignmentBlocked = false

  /** One merge, run by the worker of `mergeTask`: quiesce, pick the sides
    * whose T_I is full, build their next generations, install them,
    * resume, index the arrivals handed out while they were built, then
    * let a later hand-out trigger the next merge. A nonblocking merge
    * (Section 4.2) resumes assignment for the build, with index updates
    * suspended, and quiesces again to install; a blocking one stalls
    * throughout, so no arrival is handed out meanwhile. Every arrival
    * handed out before the first quiescence was indexed, so the ones left
    * to index are each side's unindexed seqs below its head at the second.
    */
  private def runMerge(): Unit = {
    quiesce()
    val merging = sides.filter(_.tiFull)
    val from    = merging.map(_.validFrom)
    merging.foreach(_.startGeneration())
    if (nonblockingMerge) {
      indexUpdatesSuspended = true
      resume()
    }
    merging.indices.foreach(k => merging(k).buildMerge(from(k)))
    if (nonblockingMerge) quiesce()
    merging.foreach(_.installMerge())
    indexUpdatesSuspended = false
    val heads = sides.map(_.count)
    resume()
    sides.indices.foreach(k => sides(k).indexPending(heads(k)))
    sides.foreach(_.advanceEdge())
    mergeTask = -1
  }
}

