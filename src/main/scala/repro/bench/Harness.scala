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
  * return them as `Vector[(col, cell)]` rows so the bench suites can
  * assert on trends and EXPERIMENTS.md can quote them. A cell holds a
  * number in a unit, or a text label; numbers are formatted only when
  * printed, so the suites compare unrounded values.
  */
object Harness {

  /** A table cell: a number in a unit, or a text label. */
  sealed trait Cell { def text: String }
  final case class Text(text: String) extends Cell
  final case class Num(value: Double, unit: NumUnit) extends Cell { def text: String = unit.format(value) }

  /** A unit, printed at the one precision its columns use; applying one
    * makes a cell: `Tps(1.456e6)` (tuples/s) prints as `1.46M/s`. `Ratio`
    * compares two measurements, `Times` is a multiple of a baseline (a
    * speed-up), and `Plain` is unitless (the cost model's units).
    */
  sealed abstract class NumUnit(val format: Double => String) {
    def apply(value: Double): Cell = Num(value, this)
  }
  case object Tps   extends NumUnit(v => if (v >= 1e6) f"${v / 1e6}%.2fM/s" else f"${v / 1e3}%.0fK/s")
  case object Ns    extends NumUnit(v => f"$v%.1fns")
  case object Us    extends NumUnit(v => f"$v%.1fus")
  case object Ms    extends NumUnit(v => f"$v%.2fms")
  case object MB    extends NumUnit(v => f"$v%.1fMB")
  case object Pct   extends NumUnit(v => f"$v%.1f%%")
  case object Ratio extends NumUnit(v => f"$v%.2fx")
  case object Times extends NumUnit(v => f"$v%.1fx")
  case object Count extends NumUnit(v => f"$v%.0f")
  case object Plain extends NumUnit(v => f"$v%.1f")

  type Row = Vector[(String, Cell)]

  /** Worker threads for the parallel runs: every core, at most 16. */
  def threadsMax: Int = math.min(16, Runtime.getRuntime.availableProcessors)

  private def lookup(row: Row, col: String): Cell =
    row.collectFirst { case (c, v) if c == col => v }
      .getOrElse(sys.error(s"no column '$col' in row $row"))

  /** Printed text of a cell by column name (fails loudly on a missing column). */
  def cell(row: Row, col: String): String = lookup(row, col).text

  /** Unrounded value of a numeric cell (fails loudly on a missing column or a text cell). */
  def num(row: Row, col: String): Double = lookup(row, col) match {
    case Num(v, _) => v
    case Text(t)   => sys.error(s"column '$col' holds text '$t', not a number, in row $row")
  }

  /** Print the rows as a fixed-width table and return them. */
  def printTable(title: String, rows: Seq[Row]): Seq[Row] = {
    println(s"\n== $title ==")
    if (rows.isEmpty) println("(no rows)")
    else {
      val cols   = rows.head.map(_._1)
      val widths = cols.map(c => math.max(c.length, rows.map(r => cell(r, c).length).max))
      def line(vals: Seq[String]): String =
        vals.zip(widths).map { case (v, w) => v.padTo(w, ' ') }.mkString("  ")
      println(line(cols))
      println(line(widths.map("-" * _)))
      rows.foreach(r => println(line(cols.map(cell(r, _)))))
    }
    rows
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
        total += countBelow(window, band.hi(k) + 1L) - countBelow(window, band.lo(k))
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

  /** Number of elements of the sorted `a` below `v` (a `Long`, so one
    * past `Int.MaxValue` is representable).
    */
  private def countBelow(a: Array[Int], v: Long): Int = {
    var lo = 0; var hi = a.length
    while (lo < hi) { val m = (lo + hi) >>> 1; if (a(m) < v) lo = m + 1 else hi = m }
    lo
  }

  // --------------------------------------------------- index factories

  def bplus(): WindowIndex = new BPlusWindowIndex(16)
  def imTree(w: Int, m: Double): WindowIndex = PIMTree.imTree(math.max(1, (m * w).toInt))
  def pimTree(w: Int, m: Double, dI: Int = 2): PIMTree =
    new PIMTree(dI, math.max(1, (m * w).toInt))

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

  /** Rounds of [[alternatedMedians]]. */
  private val Rounds = 7

  /** The median of each runner's measurements, taken alike so that cells
    * compared with each other can be: every runner runs once untimed (JIT
    * warm-up), then `Rounds` times, one run of each per round, and a cell
    * is the median of its runs. Drift in the shared bench JVM and on a
    * loaded host falls on every cell alike, and no single slow run decides
    * a comparison. Each timed run starts after a full GC, so none pays for
    * the garbage of the run before it: without that, 1-thread T12 runs of
    * one configuration read anywhere from 0.84M to 1.89M tuples/s within
    * one table.
    */
  def alternatedMedians(runners: Seq[() => Double]): Seq[Double] = {
    runners.foreach(_())
    val runs = Seq.fill(Rounds)(runners.map { run => System.gc(); run() })
    runners.indices.map(c => runs.map(_(c)).sorted.apply(Rounds / 2))
  }

  def truncate(wl: Workload, n: Int): Workload =
    Workload(wl.fromR.take(n), wl.keys.take(n))
}
