package repro.join

import java.util.concurrent.CyclicBarrier
import java.util.concurrent.atomic.AtomicLong

import repro.StreamGen.Workload
import repro.core.{Arrivals, Band, KeyRing, LongVec}
import repro.index.BPlusTree

/** Context-insensitive (round-robin) window partitioning — the structure
  * behind low-latency handshake join, SplitJoin and BiStream
  * (Section 2.2.3, Fig. 3). Each of the P join-cores owns the window
  * tuples with `seq % P == core` and keeps them in a core-local index
  * (or, for NLWJ, a plain scan range); every arrival is propagated to all
  * cores, each produces its share of matches, and only the owner core
  * updates its local index.
  *
  * Cores sweep the arrival sequence independently in blocks with a
  * barrier between blocks (the fast-forward propagation of LHS);
  * correctness needs no locks because index state is core-local, which is
  * exactly the paper's point — and so is the cost: P local searches per
  * arrival instead of one shared-index search.
  */
object RoundRobinJoin {

  /** Multithreaded IBWJ on round-robin partitions with core-local
    * B+-Trees. Result order across cores is not preserved (a stated
    * drawback of context-insensitive partitioning); results are counted.
    */
  def ibwj(workload: Workload, wR: Int, wS: Int, diff: Int, cores: Int,
           fanout: Int = 16, blockSize: Int = 1024, timedFrom: Int = 0): JoinStats =
    sweep(workload, wR, wS, diff, cores, blockSize, timedFrom) { (c, band, core) =>
      val localR = new BPlusTree(fanout)
      val localS = new BPlusTree(fanout)
      val out    = new LongVec(16)
      i => {
        val k = workload.keys(i)
        // search: this core's share of the opposite window
        out.clear()
        if (i >= timedFrom) (if (c.isR) localS else localR).rangeSearch(band.lo(k), band.hi(k), out)
        // this core deletes the expired tuple and indexes the arrival
        // only where it owns their seqs
        val own = if (c.isR) localR else localS
        val exp = c.seq - (if (c.isR) wR else wS)
        if (exp >= 0 && exp % cores == core) own.delete(c.keys(c.isR)(exp), exp)
        if (c.seq % cores == core) own.insert(k, c.seq)
        out.size.toLong // local indexes hold only live tuples
      }
    }

  /** Multithreaded NLWJ on round-robin partitions: each core linearly
    * scans its share (`seq % P == core`) of the opposite window.
    */
  def nlwj(workload: Workload, wR: Int, wS: Int, diff: Int, cores: Int,
           blockSize: Int = 1024, timedFrom: Int = 0): JoinStats =
    sweep(workload, wR, wS, diff, cores, blockSize, timedFrom) { (c, band, core) =>
      i => {
        val k   = workload.keys(i)
        val tl  = c.oppHead
        var res = 0L
        if (tl >= 0 && i >= timedFrom) {
          val oppKeys = c.keys(!c.isR)
          val te      = Arrivals.windowStart(tl, if (c.isR) wS else wR)
          // start at the first owned seq >= te
          var j = te + ((core - te % cores + cores) % cores)
          while (j <= tl) {
            if (band.matches(oppKeys(j), k)) res += 1
            j += cores
          }
        }
        res
      }
    }

  /** One core's cursor over the two-way stream, which also keeps each
    * stream's last w keys before the current arrival.
    */
  private final class CoreCursor(workload: Workload, wR: Int, wS: Int)
      extends Arrivals.Cursor(workload, selfJoin = false) {
    val keysR = new KeyRing(wR)
    val keysS = new KeyRing(wS)
    @inline def keys(r: Boolean): KeyRing = if (r) keysR else keysS
  }

  /** The round-robin scaffold both joins share: one thread per core sweeps
    * every arrival in blocks of `blockSize`, with a barrier between blocks.
    * `perCore(cursor, band, core)` runs on that core's thread and returns
    * its per-arrival step, which yields the core's result count for arrival
    * i while the cursor stands at it; the arrival's key enters the ring
    * after the step. Any core-local state lives in the step's closure.
    */
  private def sweep(workload: Workload, wR: Int, wS: Int, diff: Int, cores: Int,
                    blockSize: Int, timedFrom: Int)
                   (perCore: (CoreCursor, Band, Int) => Int => Long): JoinStats = {
    require(cores >= 1, s"cores must be >= 1, got $cores")
    require(blockSize >= 1, s"blockSize must be >= 1, got $blockSize")
    require(wR >= 1 && wS >= 1, s"window sizes must be >= 1, got wR=$wR, wS=$wS")
    val band        = Band(diff)
    val n           = workload.length
    val resultTotal = new AtomicLong(0)
    val barrier     = new CyclicBarrier(cores)
    val steadyStart = new AtomicLong(0)

    val t0 = System.nanoTime()
    val threads = (0 until cores).map { core =>
      val t = new Thread(() => {
        val c     = new CoreCursor(workload, wR, wS)
        val step  = perCore(c, band, core)
        var res   = 0L
        var block = 0
        while (block < n) {
          val end = math.min(n, block + blockSize)
          var i   = block
          while (i < end) {
            if (i == timedFrom && core == 0) steadyStart.set(System.nanoTime())
            c.next(i)
            res += step(i)
            c.keys(c.isR)(c.seq) = workload.keys(i)
            i += 1
          }
          barrier.await()
          block = end
        }
        resultTotal.addAndGet(res)
        ()
      }, s"rr-core-$core")
      t.setDaemon(true); t.start(); t
    }
    threads.foreach(_.join())
    val from = if (steadyStart.get == 0) t0 else steadyStart.get
    JoinStats(n - math.min(timedFrom, n), resultTotal.get, System.nanoTime() - from)
  }
}
