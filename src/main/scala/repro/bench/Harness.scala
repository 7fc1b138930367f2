package repro.bench

import repro.StreamGen
import repro.StreamGen.Workload
import repro.core.Band
import repro.index._
import repro.join._

/** Shared machinery for the per-table benchmark experiments.
  *
  * All throughput numbers are *steady-state*: the workload carries a
  * prefill segment (~2.2 windows for two-way joins) that fills both
  * sliding windows and triggers the first merges before timing starts —
  * without it, B+-Tree never pays deletes, merge trees never partition,
  * and every number is a warm-up artifact (observed the hard way).
  *
  * Experiments print fixed-width rows (one table per paper figure) and
  * return them as `Vector[(col, value)]` rows so the bench suites can
  * assert on trends and EXPERIMENTS.md can quote them.
  */
object Harness {

  type Row = Vector[(String, String)]

  /** Cell lookup by column name (fails loudly on a missing column). */
  def cell(row: Row, col: String): String =
    row.collectFirst { case (c, v) if c == col => v }
      .getOrElse(sys.error(s"no column '$col' in row $row"))

  def fmtThroughput(tps: Double): String =
    if (tps >= 1e6) f"${tps / 1e6}%.2fM/s" else f"${tps / 1e3}%.0fK/s"

  def printTable(title: String, rows: Seq[Row]): Unit = {
    println(s"\n== $title ==")
    if (rows.isEmpty) { println("(no rows)"); return }
    val cols   = rows.head.map(_._1)
    val widths = cols.map(c => math.max(c.length, rows.map(r => cell(r, c).length).max))
    def line(vals: Seq[String]): String =
      vals.zip(widths).map { case (v, w) => v.padTo(w, ' ') }.mkString("  ")
    println(line(cols))
    println(line(widths.map("-" * _)))
    rows.foreach(r => println(line(cols.map(cell(r, _)))))
  }

  // ------------------------------------------------------- workload prep

  /** A steady-state bench case: workload with prefill, band width, and
    * the arrival index where timing starts.
    */
  final case class Bench(wl: Workload, diff: Int, timedFrom: Int)

  /** Two-way workload: 2.2·w untimed prefill arrivals per the pair of
    * windows, then `n` measured arrivals; diff set for match rate sigmaS.
    */
  def steadyTwoWay(w: Int, n: Int, sigmaS: Double = 2.0,
                   keySpace: Int = StreamGen.DefaultKeySpace, seed: Long = 7): Bench = {
    val prefill = (2.2 * w).toInt
    val total   = prefill + n
    val r  = StreamGen.uniform(total / 2 + 1, keySpace, seed)
    val s  = StreamGen.uniform(total - total / 2 + 1, keySpace, seed + 100)
    val wl = StreamGen.twoWay(r, s)
    Bench(truncate(wl, total), StreamGen.diffForMatchRate(w, sigmaS, keySpace), prefill)
  }

  /** Self-join workload: 1.2·w untimed prefill, then `n` measured. */
  def steadySelf(w: Int, n: Int, sigmaS: Double = 2.0,
                 keySpace: Int = StreamGen.DefaultKeySpace, seed: Long = 7): Bench = {
    val prefill = (1.2 * w).toInt
    val k = StreamGen.uniform(prefill + n, keySpace, seed)
    Bench(StreamGen.selfJoin(k), StreamGen.diffForMatchRate(w, sigmaS, keySpace), prefill)
  }

  /** Empirically choose diff so the average match rate against a window
    * of w keys from this stream is ~`target` (the paper adjusts the band
    * predicate per distribution to keep sigma_s = 2; Fig. 12b).
    */
  def calibrateDiff(keys: Array[Int], w: Int, target: Double): Int = {
    val window = java.util.Arrays.copyOfRange(keys, 0, math.min(w, keys.length))
    java.util.Arrays.sort(window)
    val probes = keys.slice(math.min(w, keys.length), math.min(w + 2000, keys.length))
    def avgMatches(diff: Int): Double = {
      val band  = Band(diff)
      var total = 0L
      probes.foreach { k =>
        total += upperBound(window, band.hi(k)) - lowerBound(window, band.lo(k))
      }
      total.toDouble / math.max(1, probes.length)
    }
    var lo = 0
    var hi = 1 << 27
    while (lo < hi) {
      val mid = lo + (hi - lo) / 2
      if (avgMatches(mid) < target) lo = mid + 1 else hi = mid
    }
    lo
  }

  private def lowerBound(a: Array[Int], v: Int): Int = {
    var lo = 0; var hi = a.length
    while (lo < hi) { val m = (lo + hi) >>> 1; if (a(m) < v) lo = m + 1 else hi = m }
    lo
  }
  private def upperBound(a: Array[Int], v: Int): Int = {
    var lo = 0; var hi = a.length
    while (lo < hi) { val m = (lo + hi) >>> 1; if (a(m) <= v) lo = m + 1 else hi = m }
    lo
  }

  // --------------------------------------------------- index factories

  def bplus(): WindowIndex = new BPlusWindowIndex(16)
  def imTree(w: Int, m: Double): WindowIndex = PIMTree.imTree(math.max(1, (m * w).toInt))
  def pimTree(w: Int, m: Double, dI: Int = 2, useLocks: Boolean = true): PIMTree =
    new PIMTree(dI, math.max(1, (m * w).toInt), useLocks = useLocks)

  /** PIM-Tree tuned for the multithreaded runs: finer immutable-tree
    * geometry and a deeper insertion level give ~4x more subindexes at
    * the bench's scaled-down windows, mirroring the paper's ~1024
    * subindexes at w = 2^20 (Fig. 8d: too few subindexes => partition
    * lock congestion).
    */
  def pimPar(w: Int, m: Double = 1.0, dI: Int = 3, useLocks: Boolean = true): PIMTree =
    new PIMTree(dI, math.max(1, (m * w).toInt), ibFanout = 16, ibLeafSize = 16,
                useLocks = useLocks)
  def chained(w: Int, chainLen: Int, immutableArchive: Boolean): WindowIndex =
    new ChainedIndex(math.max(1, w / chainLen), immutableArchive)
  def bwTree(w: Int, keySpace: Int = StreamGen.DefaultKeySpace): WindowIndex =
    new BwTree(keySpace, math.max(64, 2 * w))

  // ------------------------------------------------------------ runners

  /** Single-threaded IBWJ steady-state throughput. The untimed prefill
    * doubles as the JIT warmup.
    */
  def runSingle(mk: () => WindowIndex, b: Bench, w: Int,
                selfJoin: Boolean = false): JoinStats =
    SingleThreadedJoin.ibwj(b.wl, w, w, b.diff, mk(), mk(), new CountingSink,
                            selfJoin, timedFrom = b.timedFrom)

  /** Parallel shared-index IBWJ steady-state throughput. */
  def runParallel(mk: () => WindowIndex, b: Bench, w: Int, threads: Int,
                  taskSize: Int = 8, selfJoin: Boolean = false,
                  nonblocking: Boolean = true,
                  trackLatency: Boolean = false): (JoinStats, ParallelIBWJ) = {
    val join = new ParallelIBWJ(b.wl, w, w, b.diff, mk(), mk(), threads, taskSize,
                                selfJoin, nonblocking, trackLatency, b.timedFrom)
    val stats = join.run(new CountingSink)
    (stats, join)
  }

  def truncate(wl: Workload, n: Int): Workload =
    Workload(wl.fromR.take(n), wl.keys.take(n))
}
