package repro.bench

import repro.StreamGen
import repro.core.Telemetry
import repro.index.PIMTree
import repro.join._

import Harness._

/** Experiments T10–T17 (Figures 11b–14): parallel-join behaviour —
  * asymmetry, memory traffic, scalability, skew, shifting distributions,
  * multithreading efficiency and merge cost. Steady-state throughout.
  */
object ExperimentsParallel {

  /** T10 / Figs. 11b, 11c — asymmetric input rates and window sizes. */
  def asymmetric(fast: Boolean = true): Seq[Row] = {
    val logW = if (fast) 15 else 16
    val w    = 1 << logW
    val n    = if (fast) 100000 else 250000
    val p    = threadsMax
    val keySpace = StreamGen.DefaultKeySpace

    val rateRows = Seq((1, 1), (2, 1), (4, 1), (8, 1)).map { case (rPer, sPer) =>
      val prefill = (2.2 * w).toInt
      val total   = prefill + n
      val nR = total * rPer / (rPer + sPer) + 1
      val nS = total - nR + 2
      val wl = truncate(
        StreamGen.ratio(StreamGen.uniform(nR, keySpace, 7),
                        StreamGen.uniform(nS, keySpace, 107), rPer, sPer), total)
      val diff = StreamGen.diffForMatchRate(w, 2.0, keySpace)
      val b = Bench(wl, diff, prefill)
      val stats = runParallel(() => pimPar(w), b, w, p)._1
      Vector("rate R:S" -> Text(s"$rPer:$sPer"), "w" -> Text(s"2^$logW"),
             "throughput" -> Tps(stats.throughput))
    }
    printTable("T10a (Fig 11b): asymmetric input rates", rateRows)

    val winRows = for {
      logWr <- Seq(logW - 2, logW)
      logWs <- Seq(logW - 2, logW)
    } yield {
      val wr = 1 << logWr; val ws = 1 << logWs
      val b = steadyTwoWay(math.max(wr, ws), n)
      val diff = StreamGen.diffForMatchRate((wr + ws) / 2, 2.0, keySpace)
      val join = new ParallelIBWJ(b.wl, wr, ws, diff,
                                  pimPar(wr), pimPar(ws), p, 8,
                                  timedFrom = b.timedFrom)
      val stats = join.run(new CountingSink)
      Vector("wR" -> Text(s"2^$logWr"), "wS" -> Text(s"2^$logWs"),
             "throughput" -> Tps(stats.throughput))
    }
    rateRows ++ printTable("T10b (Fig 11c): asymmetric window sizes", winRows)
  }

  /** T11 / Fig. 11d — effective memory-traffic split (software byte
    * accounting substitutes the paper's hardware counters; DESIGN.md).
    */
  def memoryTraffic(fast: Boolean = true): Seq[Row] = {
    val logW = if (fast) 15 else 16
    val w    = 1 << logW
    val n    = if (fast) 80000 else 150000
    val rows = Seq(1, 2, 4, 8, threadsMax).distinct.map { p =>
      val b = steadyTwoWay(w, n)
      Telemetry.reset()
      Telemetry.enabled = true
      val stats = runParallel(() => pimPar(w), b, w, p)._1
      Telemetry.enabled = false
      val loads  = Telemetry.bytesLoaded.sum.toDouble
      val stores = Telemetry.bytesStored.sum.toDouble
      Vector(
        "threads"    -> Count(p),
        "throughput" -> Tps(stats.throughput),
        "storeShare" -> Pct(100 * stores / math.max(1, loads + stores)),
        "loadShare"  -> Pct(100 * loads / math.max(1, loads + stores)),
      )
    }
    printTable(s"T11 (Fig 11d): memory-traffic split, w=2^$logW", rows)
  }

  /** T12 / Fig. 12a — scalability and the cost of concurrency control. */
  def scalability(fast: Boolean = true): Seq[Row] = {
    val logW = if (fast) 16 else 17
    val w    = 1 << logW
    val n    = if (fast) 150000 else 300000
    val b2   = steadyTwoWay(w, n)
    val bS   = steadySelf(w, n)

    // no-CC baseline: the same parallel runner with one thread and the
    // partition locks compiled out — isolates the concurrency-control
    // cost itself (a different runner would change JIT inlining and
    // muddy the comparison)
    def twoWay(p: Int, cc: Boolean = true) =
      () => runParallel(() => pimPar(w, useLocks = cc), b2, w, p)._1.throughput
    def self(p: Int, cc: Boolean = true) =
      () => runParallel(() => pimPar(w, useLocks = cc), bS, w, p, selfJoin = true)._1.throughput
    val configs = (Text("1 (no CC)"), twoWay(1, cc = false), self(1, cc = false)) +:
      Seq(1, 2, 4, 8, threadsMax).distinct.map(p => (Count(p), twoWay(p), self(p)))

    // the cells are compared with each other, so they are measured alike
    val cells = alternatedMedians(configs.flatMap { case (_, two, self) => Seq(two, self) })
    val (cc1Two, cc1Self) = (cells(2), cells(3))
    val rows = configs.indices.map { r =>
      val (two, self) = (cells(2 * r), cells(2 * r + 1))
      Vector(
        "threads"  -> configs(r)._1,
        "two-way"  -> Tps(two),
        "self"     -> Tps(self),
        "speedup2" -> (if (r == 0) Text("-") else Times(two / math.max(1, cc1Two))),
        "speedupS" -> (if (r == 0) Text("-") else Times(self / math.max(1, cc1Self))),
      )
    }
    printTable(s"T12 (Fig 12a): scalability & CC overhead, w=2^$logW", rows)
  }

  /** T13 / Fig. 12b — skewed value distributions, diff calibrated per
    * distribution to keep sigma_s ~= 2.
    */
  def skewedDistributions(fast: Boolean = true): Seq[Row] = {
    val logW = if (fast) 15 else 16
    val w    = 1 << logW
    val n    = if (fast) 100000 else 200000
    val p    = threadsMax
    val keySpace = StreamGen.DefaultKeySpace
    val prefill  = (2.2 * w).toInt
    val perStream = (prefill + n) / 2 + 1
    val dists = Seq[(String, Long => Array[Int])](
      ("uniform",        seed => StreamGen.uniform(perStream, keySpace, seed)),
      ("gauss(.5,.125)", seed => StreamGen.gaussian(perStream, 0.5, 0.125, keySpace, seed)),
      ("gamma(3,3)",     seed => StreamGen.gamma(perStream, 3, 3.0, keySpace, seed)),
      ("gamma(1,5)",     seed => StreamGen.gamma(perStream, 1, 5.0, keySpace, seed)),
    )
    val rows = dists.map { case (name, gen) =>
      val rKeys = gen(7)
      val sKeys = gen(107)
      val wl    = truncate(StreamGen.twoWay(rKeys, sKeys), prefill + n)
      val diff  = calibrateDiff(rKeys, w, 2.0)
      val stats = runParallel(() => pimPar(w), Bench(wl, diff, prefill), w, p)._1
      Vector("distribution" -> Text(name), "diff" -> Count(diff),
             "throughput" -> Tps(stats.throughput))
    }
    printTable(s"T13 (Fig 12b): skewed distributions, w=2^$logW", rows)
  }

  /** T14 / Fig. 12c — self-join, single vs parallel, across windows. */
  def selfJoin(fast: Boolean = true): Seq[Row] = {
    val ws = if (fast) Seq(12, 14, 16) else Seq(12, 14, 16, 18)
    val n  = if (fast) 100000 else 250000
    val p  = threadsMax
    val rows = ws.map { logW =>
      val w = 1 << logW
      val b = steadySelf(w, n)
      val bp  = runSingle(() => bplus(), b, w, selfJoin = true)
      val pim = runSingle(() => pimTree(w, 1.0 / 8), b, w, selfJoin = true)
      val par = runParallel(() => pimPar(w), b, w, p, selfJoin = true)._1
      Vector(
        "w"              -> Text(s"2^$logW"),
        "B+-single"      -> Tps(bp.throughput),
        "PIM-single"     -> Tps(pim.throughput),
        s"PIM-par-${p}t" -> Tps(par.throughput),
      )
    }
    printTable("T14 (Fig 12c): index-based self-join", rows)
  }

  /** T15 / Figs. 13a, 13b — shifting Gaussian: insert skew across
    * subindexes during the shift phase, and parallel self-join
    * throughput vs shift speed r.
    *
    * A finer-grained immutable tree (fanout/leaf 16) gives ~128
    * subindexes at this window size so the skew has room to show, as
    * with the paper's 1024 subindexes at w = 2^20.
    */
  def shiftingGaussian(fast: Boolean = true): Seq[Row] = {
    val logW = if (fast) 15 else 17
    val w    = 1 << logW
    val p    = threadsMax
    val keySpace = StreamGen.DefaultKeySpace
    val phase1 = w; val phase2 = (2.5 * w).toInt; val phase3 = w
    def mkPim() = new PIMTree(4, math.max(1, w / 4), ibFanout = 16, ibLeafSize = 16)
    val rs = Seq(0.0, 0.2, 0.6, 1.0)
    val rows = rs.map { r =>
      val keys = StreamGen.shiftingGaussian(phase1, phase2, phase3, r, keySpace = keySpace)

      // Fig 13a: routing skew — drive the index alone through the stream,
      // tracking the insert distribution during phase 2 only
      val pim = mkPim()
      var i = 0
      while (i < phase1) { pim.insert(keys(i), i); pim.maintain(math.max(0, i + 1 - w)); i += 1 }
      pim.trackInsertDistribution(true)
      while (i < phase1 + phase2) { pim.insert(keys(i), i); pim.maintain(math.max(0, i + 1 - w)); i += 1 }
      val dist  = pim.insertDistribution
      val total = math.max(1L, dist.sum)
      val parts = math.max(1, dist.length)
      val maxShare = if (dist.isEmpty) 0.0 else dist.max.toDouble / total
      // how many times the heaviest subindex exceeds a uniform share
      val skewX = maxShare * parts

      // Fig 13b: parallel self-join throughput over phases 2+3 (phase 1
      // is the steady-state prefill)
      val wl    = StreamGen.selfJoin(keys)
      val diff  = calibrateDiff(keys, w, 2.0)
      val stats = runParallel(() => new PIMTree(4, w, ibFanout = 16, ibLeafSize = 16),
                              Bench(wl, diff, phase1), w, p, selfJoin = true)._1
      Vector(
        "r"           -> Plain(r),
        "subindexes"  -> Count(parts),
        "maxInsShare" -> Pct(100 * maxShare),
        "skewVsUnif"  -> Times(skewX),
        "throughput"  -> Tps(stats.throughput),
      )
    }
    printTable(s"T15 (Figs 13a/13b): shifting Gaussian, w=2^$logW", rows)
  }

  /** T16 / Fig. 13c — multithreading efficiency: the five two-way-join
    * implementations across window sizes.
    */
  def efficiency(fast: Boolean = true): Seq[Row] = {
    val ws = if (fast) Seq(12, 14, 16) else Seq(12, 14, 16, 18)
    val n  = if (fast) 100000 else 250000
    val p  = threadsMax
    val rows = ws.map { logW =>
      val w = 1 << logW
      val b = steadyTwoWay(w, n)
      val b1    = runSingle(() => bplus(), b, w)
      val pim1  = runSingle(() => pimTree(w, 1.0 / 8), b, w)
      val bwP   = runParallel(() => bwTree(w), b, w, p)._1
      val pimNb = runParallel(() => pimPar(w), b, w, p, nonblocking = true)._1
      val pimBl = runParallel(() => pimPar(w), b, w, p, nonblocking = false)._1
      Vector(
        "w"             -> Text(s"2^$logW"),
        "B+-1t"         -> Tps(b1.throughput),
        "PIM-1t"        -> Tps(pim1.throughput),
        s"Bw-${p}t"     -> Tps(bwP.throughput),
        s"PIM-${p}t-nb" -> Tps(pimNb.throughput),
        s"PIM-${p}t-bl" -> Tps(pimBl.throughput),
      )
    }
    printTable("T16 (Fig 13c): multithreading efficiency", rows)
  }

  /** T17 / Fig. 14 — merge cost vs window size (linearity check). */
  def mergeCost(fast: Boolean = true): Seq[Row] = {
    val ws = if (fast) Seq(12, 14, 16) else Seq(12, 14, 16, 18, 20)
    val rows = ws.map { logW =>
      val w = 1 << logW
      val b = steadyTwoWay(w, math.min(4 * w, 1 << 19))
      val idxR = pimTree(w, 1.0 / 4)
      val idxS = pimTree(w, 1.0 / 4)
      SingleThreadedJoin.ibwj(b.wl, w, w, b.diff, idxR, idxS, new CountingSink)
      val merges = idxR.mergeCount + idxS.mergeCount
      val nanos  = idxR.totalMergeNanos + idxS.totalMergeNanos
      val per    = if (merges == 0) 0.0 else nanos.toDouble / merges
      Vector(
        "w"          -> Text(s"2^$logW"),
        "merges"     -> Count(merges.toDouble),
        "avgMergeMs" -> Ms(per / 1e6),
        "nsPerElem"  -> (if (merges == 0) Text("-") else Ns(per / (1.25 * w))),
      )
    }
    printTable("T17 (Fig 14): merge cost vs window size", rows)
  }
}
