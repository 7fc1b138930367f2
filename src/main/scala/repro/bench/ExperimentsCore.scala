package repro.bench

import repro.StreamGen
import repro.core.CostModel
import repro.index._
import repro.join._

import Harness._

/** Experiments T1–T9 (Figures 8–11a): single-threaded comparisons, index
  * parameter sweeps, cost breakdowns and memory footprint. Each function
  * prints its table and returns the rows. `fast = true` (bench suite)
  * uses scaled-down windows/tuple counts; `fast = false` (jobs) runs the
  * larger sweep documented in EXPERIMENTS.md. All throughputs are
  * steady-state (see [[Harness]]).
  */
object ExperimentsCore {

  /** T1 / Fig. 8a — NLWJ & IBWJ under round-robin partitioning, plus the
    * Bw-Tree shared-index baseline, across window sizes.
    */
  def roundRobin(fast: Boolean = true): Seq[Row] = {
    val ws    = if (fast) Seq(12, 14, 16) else Seq(12, 14, 16, 18)
    val nIdx  = if (fast) 100000 else 250000
    val nNlwj = if (fast) 3000 else 6000
    val p     = threadsMax
    val rows = ws.map { logW =>
      val w      = 1 << logW
      val bIdx   = steadyTwoWay(w, nIdx)
      val bNlwj  = steadyTwoWay(w, nNlwj)
      val nlwj1 = SingleThreadedJoin.nlwj(bNlwj.wl, w, w, bNlwj.diff, new CountingSink,
                                          timedFrom = bNlwj.timedFrom)
      val nlwjP = RoundRobinJoin.nlwj(bNlwj.wl, w, w, bNlwj.diff, p,
                                      timedFrom = bNlwj.timedFrom)
      val ibwj1 = runSingle(() => bplus(), bIdx, w)
      val ibwjP = RoundRobinJoin.ibwj(bIdx.wl, w, w, bIdx.diff, p,
                                      timedFrom = bIdx.timedFrom)
      val bwP   = runParallel(() => bwTree(w), bIdx, w, p)._1
      Vector(
        "w"              -> Text(s"2^$logW"),
        "NLWJ-1t"        -> Tps(nlwj1.throughput),
        s"RR-NLWJ-${p}t" -> Tps(nlwjP.throughput),
        "IBWJ-B+-1t"     -> Tps(ibwj1.throughput),
        s"RR-IBWJ-${p}t" -> Tps(ibwjP.throughput),
        s"Bw-IBWJ-${p}t" -> Tps(bwP.throughput),
      )
    }
    printTable("T1 (Fig 8a): round-robin partitioning vs shared Bw-Tree", rows)
  }

  /** T2 / Fig. 8b — chained index throughput vs chain length, B-chain and
    * IB-chain, against the single B+-Tree.
    */
  def chainedIndex(fast: Boolean = true): Seq[Row] = {
    val logW = if (fast) 15 else 18
    val w    = 1 << logW
    val n    = if (fast) 150000 else 300000
    val b    = steadyTwoWay(w, n)
    // JIT warmup for the chain code paths (T2 is the first chained-index
    // user in a bench run; a cold first row is pure compiler noise)
    runSingle(() => chained(w, 4, immutableArchive = true), steadyTwoWay(w, 20000), w)
    val base = runSingle(() => bplus(), b, w)
    val rows = Seq(2, 4, 8, 16).map { len =>
      val bc  = runSingle(() => chained(w, len, immutableArchive = false), b, w)
      val ibc = runSingle(() => chained(w, len, immutableArchive = true), b, w)
      Vector(
        "chainLength" -> Count(len),
        "B-chain"     -> Tps(bc.throughput),
        "IB-chain"    -> Tps(ibc.throughput),
        "B+-Tree"     -> Tps(base.throughput),
      )
    }
    printTable(s"T2 (Fig 8b): chained index, w=2^$logW", rows)
  }

  /** T3 / Figs. 8c, 8d — throughput vs insertion depth D_I, single and
    * parallel.
    */
  def insertionDepth(fast: Boolean = true): Seq[Row] = {
    val ws = if (fast) Seq(14, 16) else Seq(14, 16, 18)
    val n  = if (fast) 100000 else 250000
    val p  = threadsMax
    val rows = for {
      logW <- ws
      dI   <- Seq(1, 2, 3, 4)
    } yield {
      val w = 1 << logW
      val b = steadyTwoWay(w, n)
      val single = runSingle(() => pimTree(w, 1.0 / 8, dI), b, w)
      val par    = runParallel(() => pimPar(w, 1.0, dI), b, w, p)._1
      Vector(
        "w"          -> Text(s"2^$logW"),
        "D_I"        -> Count(dI),
        "single"     -> Tps(single.throughput),
        s"par-${p}t" -> Tps(par.throughput),
      )
    }
    printTable("T3 (Figs 8c/8d): PIM-Tree throughput vs insertion depth", rows)
  }

  /** T4 / Figs. 9a, 9c, 9d — throughput vs merge ratio for IM-Tree and
    * PIM-Tree, single-threaded and parallel.
    */
  def mergeRatio(fast: Boolean = true): Seq[Row] = {
    val logW = if (fast) 15 else 17
    val w    = 1 << logW
    val n    = if (fast) 100000 else 250000
    val p    = threadsMax
    val b    = steadyTwoWay(w, n)
    val negLogMs = Seq(6, 4, 3, 2, 1, 0)
    // the m values are compared with each other, so they are measured alike
    val cells = alternatedMedians(negLogMs.flatMap { negLogM =>
      val m = 1.0 / (1 << negLogM)
      Seq(() => runSingle(() => imTree(w, m), b, w).throughput,
          () => runSingle(() => pimTree(w, m), b, w).throughput,
          () => runParallel(() => pimPar(w, m), b, w, p)._1.throughput)
    })
    val rows = negLogMs.indices.map { r =>
      Vector(
        "m"              -> Text(s"2^-${negLogMs(r)}"),
        "IM-single"      -> Tps(cells(3 * r)),
        "PIM-single"     -> Tps(cells(3 * r + 1)),
        s"PIM-par-${p}t" -> Tps(cells(3 * r + 2)),
      )
    }
    printTable(s"T4 (Figs 9a/9c/9d): throughput vs merge ratio, w=2^$logW", rows)
  }

  /** T5 / Fig. 9b — per-step cost breakdown (search / scan / insert /
    * delete / merge) per tuple for B+-Tree, IM-Tree, PIM-Tree.
    */
  def costBreakdown(fast: Boolean = true): Seq[Row] = {
    val ws = if (fast) Seq(14, 17) else Seq(14, 17, 20)
    val n  = if (fast) 80000 else 150000
    val rows = for {
      logW <- ws
      (name, mk) <- Seq[(String, Int => WindowIndex)](
        ("B+-Tree", _ => bplus()),
        ("IM-Tree", w => imTree(w, 1.0 / 8)),
        ("PIM-Tree", w => pimTree(w, 1.0 / 8)),
      )
    } yield {
      val w = 1 << logW
      val b = steadyTwoWay(w, n)
      val nanos = new StepNanos(b.timedFrom)
      val stats = SingleThreadedJoin.ibwj(b.wl, w, w, b.diff, new StepTimedIndex(mk(w), nanos),
                                          new StepTimedIndex(mk(w), nanos), new CountingSink,
                                          timedFrom = b.timedFrom)
      def per(x: Long) = Ns(x.toDouble / stats.tuples)
      Vector(
        "w"      -> Text(s"2^$logW"),
        "index"  -> Text(name),
        "search" -> per(nanos.search),
        "scan"   -> per(math.max(0, nanos.scan - nanos.search)),
        "insert" -> per(nanos.insert),
        "delete" -> per(nanos.delete),
        "merge"  -> per(nanos.merge),
      )
    }
    printTable("T5 (Fig 9b): per-tuple cost breakdown", rows)
  }

  /** T6 / Fig. 10a — single-threaded IBWJ across window sizes. */
  def singleThreaded(fast: Boolean = true): Seq[Row] = {
    val ws = if (fast) Seq(10, 12, 14, 16, 17) else Seq(10, 12, 14, 16, 18, 20)
    val n  = if (fast) 100000 else 250000
    // the indexes are compared with each other, so they are measured alike;
    // alternating the whole table, not one row at a time, also keeps every
    // cell's runs apart from the slow first rounds after each new workload
    val cells = alternatedMedians(ws.flatMap { logW =>
      val w = 1 << logW
      val b = steadyTwoWay(w, n)
      Seq[() => WindowIndex](() => bplus(), () => imTree(w, 1.0 / 8), () => pimTree(w, 1.0 / 8))
        .map(mk => () => runSingle(mk, b, w).throughput)
    })
    val rows = ws.indices.map { r =>
      Vector(
        "w"        -> Text(s"2^${ws(r)}"),
        "B+-Tree"  -> Tps(cells(3 * r)),
        "IM-Tree"  -> Tps(cells(3 * r + 1)),
        "PIM-Tree" -> Tps(cells(3 * r + 2)),
      )
    }
    printTable("T6 (Fig 10a): single-threaded IBWJ", rows)
  }

  /** T7 / Fig. 10b — throughput vs match rate sigma_s. */
  def matchRate(fast: Boolean = true): Seq[Row] = {
    val logW = if (fast) 15 else 17
    val w    = 1 << logW
    val p    = threadsMax
    val sigmas = if (fast) Seq(-4, 0, 4, 8) else Seq(-4, -2, 0, 2, 4, 6, 8, 10)
    val rows = sigmas.map { logSigma =>
      val sigma = math.pow(2, logSigma)
      // fewer tuples at high match rates (result volume explodes)
      val n = math.max(20000,
        (if (fast) 100000 else 200000) / math.max(1, 1 << math.max(0, logSigma - 3)))
      val b = steadyTwoWay(w, n, sigmaS = sigma)
      val bp  = runSingle(() => bplus(), b, w)
      val im  = runSingle(() => imTree(w, 1.0 / 8), b, w)
      val pim = runSingle(() => pimTree(w, 1.0 / 8), b, w)
      val par = runParallel(() => pimPar(w), b, w, p)._1
      Vector(
        "sigma_s"        -> Text(s"2^$logSigma"),
        "B+-single"      -> Tps(bp.throughput),
        "IM-single"      -> Tps(im.throughput),
        "PIM-single"     -> Tps(pim.throughput),
        s"PIM-par-${p}t" -> Tps(par.throughput),
      )
    }
    printTable(s"T7 (Fig 10b): throughput vs match rate, w=2^$logW", rows)
  }

  /** T8 / Figs. 10c, 10d — throughput and latency vs task size. */
  def taskSize(fast: Boolean = true): Seq[Row] = {
    val ws = if (fast) Seq(15) else Seq(14, 16)
    val n  = if (fast) 100000 else 250000
    val p  = threadsMax
    val rows = for {
      logW <- ws
      ts   <- Seq(1, 2, 4, 8, 10)
    } yield {
      val w = 1 << logW
      val b = steadyTwoWay(w, n)
      val (stats, join) = runParallel(() => pimPar(w), b, w, p,
                                      taskSize = ts, trackLatency = true)
      val latUs = join.latencySumNanos.get.toDouble / math.max(1, join.latencyCount.get) / 1000
      Vector(
        "w"          -> Text(s"2^$logW"),
        "taskSize"   -> Count(ts),
        "throughput" -> Tps(stats.throughput),
        "latency"    -> Us(latUs),
      )
    }
    printTable("T8 (Figs 10c/10d): parallel IBWJ vs task size", rows)
  }

  /** T9 / Fig. 11a — memory footprint of PIM-Tree vs B+-Tree holding a
    * window of w (PIM-Tree at merge ratio 1, mutable side full — its
    * worst case, as in the paper).
    */
  def memoryFootprint(fast: Boolean = true): Seq[Row] = {
    val ws  = if (fast) Seq(14, 16, 18) else Seq(14, 16, 18, 20)
    val rnd = new scala.util.Random(3)
    val rows = ws.map { logW =>
      val w = 1 << logW
      // B+-Tree holding exactly w live entries
      val b = new BPlusWindowIndex(16)
      var i = 0
      while (i < w) { b.insert(rnd.nextInt(StreamGen.DefaultKeySpace), i); i += 1 }
      // PIM-Tree after a merge of w entries plus a full mutable side
      val pim = pimTree(w, 1.0)
      i = 0
      while (i < w) { pim.insert(rnd.nextInt(StreamGen.DefaultKeySpace), i); i += 1 }
      pim.merge(0)
      while (i < 2 * w) { pim.insert(rnd.nextInt(StreamGen.DefaultKeySpace), i); i += 1 }
      val mb = 1024.0 * 1024.0
      Vector(
        "elements" -> Text(s"2^$logW"),
        "B+-Tree"  -> MB(b.memoryBytes / mb),
        "PIM-Tree" -> MB(pim.memoryBytes / mb),
        "ratio"    -> Ratio(pim.memoryBytes.toDouble / b.memoryBytes),
      )
    }
    printTable("T9 (Fig 11a): memory footprint", rows)
  }

  /** Analytical cost-model table (Equations 2–6) at the bench's default
    * parameters — printed for the DESIGN.md comparison.
    */
  def costModelTable(): Seq[Row] = {
    val rows = Seq(14, 17, 20, 23).map { logW =>
      val p = CostModel.Params(w = math.pow(2, logW))
      Vector(
        "w"               -> Text(s"2^$logW"),
        "C_BJ"            -> Plain(CostModel.cBJ(p)),
        "C_CJ(L=4)"       -> Plain(CostModel.cCJ(p, 4)),
        "C_RRJ(P=8)"      -> Plain(CostModel.cRRJ(p, 8)),
        "C_MJ(m=1/8)"     -> Plain(CostModel.cMJ(p, 1.0 / 8)),
        "C_PJ(m=1/8,D=2)" -> Plain(CostModel.cPJ(p, 1.0 / 8, 2)),
      )
    }
    printTable("Analytical model (Eqs 2-6), per-tuple cost units", rows)
  }
}
