package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import Harness.num

/** T10–T17 — parallel-join experiment tables. */
class BenchParallelSuite extends AnyFunSuite {

  test("T10 (Figs 11b/11c): asymmetric rates and windows") {
    val rows = ExperimentsParallel.asymmetric(fast = true)
    assert(rows.size == 8)
    rows.foreach(r => assert(num(r, "throughput") > 0))
  }

  test("T11 (Fig 11d): memory-traffic split") {
    val rows = ExperimentsParallel.memoryTraffic(fast = true)
    assert(rows.nonEmpty)
    val stores = rows.map(num(_, "storeShare"))
    // loads dominate stores for an index-heavy join (paper: 78–84% loads)
    stores.foreach(s => assert(s < 50, s"storeShare=$s%"))
    // more threads => relatively more loads (longer edge-tuple scans)
    assert(stores.last <= stores.head + 5, s"store share should not grow with threads: $stores")
  }

  test("T12 (Fig 12a): scalability and CC overhead") {
    val rows = ExperimentsParallel.scalability(fast = true)
    assert(rows.size >= 5)
    val noCc = num(rows.head, "two-way")
    val cc1  = num(rows(1), "two-way")
    // CC costs something (paper: ~40% for two-way; our lock-only delta is
    // smaller) but never an order of magnitude — allow measurement noise
    assert(cc1 < 1.1 * noCc, "1-thread CC run should not beat the no-CC run")
    assert(cc1 > 0.2 * noCc)
    // parallel scales: best threaded config clearly beats 1-thread-with-CC
    val best = rows.drop(1).map(num(_, "two-way")).max
    assert(best > 1.3 * cc1, s"best=$best cc1=$cc1")
  }

  test("T13 (Fig 12b): skewed distributions") {
    val rows = ExperimentsParallel.skewedDistributions(fast = true)
    assert(rows.size == 4)
    val byName = rows.map(r => Harness.cell(r, "distribution") -> num(r, "throughput")).toMap
    // paper: uniform is best but only by a few percent — allow wide slack,
    // just require same order of magnitude
    val u = byName("uniform")
    byName.values.foreach(v => assert(v > u / 3 && v < u * 3))
  }

  test("T14 (Fig 12c): self-join") {
    val rows = ExperimentsParallel.selfJoin(fast = true)
    assert(rows.nonEmpty)
    // single-threaded PIM and B+ are close at these window sizes; the
    // robust claim is that the parallel self-join is competitive at the
    // largest window (the paper's multiples need w up to 2^25)
    val last = rows.last
    assert(num(last, rows.head.map(_._1).find(_.startsWith("PIM-par")).get) >
           0.7 * num(last, "PIM-single"),
      "parallel self-join should be at least competitive at the largest window")
  }

  test("T15 (Figs 13a/13b): shifting Gaussian") {
    val rows = ExperimentsParallel.shiftingGaussian(fast = true)
    assert(rows.size == 4)
    val maxShare = rows.map(num(_, "maxInsShare"))
    // paper Fig 13a: insert distribution skews sharply as r grows (the
    // ratio matters; the paper's 77% absolute peak needs its 1024
    // subindexes at w = 2^20 — EXPERIMENTS.md)
    assert(maxShare.last > 2 * maxShare.head,
      s"insert skew should grow with r: $maxShare")
    val skew = rows.map(num(_, "skewVsUnif"))
    assert(skew.last > 1.5 * skew.head, s"skew-vs-uniform should grow with r: $skew")
  }

  test("T16 (Fig 13c): multithreading efficiency") {
    val rows = ExperimentsParallel.efficiency(fast = true)
    assert(rows.nonEmpty)
    val avg = (col: String) => rows.map(num(_, col)).sum / rows.size
    val pimPar = rows.head.map(_._1).find(_.endsWith("-nb")).get
    val pimBl  = rows.head.map(_._1).find(_.endsWith("-bl")).get
    // the paper's headline claim holds at the LARGEST window (parallelism
    // is explicitly not effective at small windows — Sec 5, Fig 13c):
    // parallel PIM beats single-threaded B+ there
    val last = rows.last
    assert(num(last, pimPar) > 1.3 * num(last, "B+-1t"),
      s"parallel PIM should beat single B+ at the largest window: " +
        s"${num(last, pimPar)} vs ${num(last, "B+-1t")}")
    // blocking and nonblocking merge perform comparably (paper: near-equal)
    assert(avg(pimBl) > 0.5 * avg(pimPar) && avg(pimBl) < 2.0 * avg(pimPar))
  }

  test("T17 (Fig 14): merge cost grows roughly linearly with w") {
    val rows = ExperimentsParallel.mergeCost(fast = true)
    assert(rows.size == 3)
    val ms = rows.map(num(_, "avgMergeMs"))
    assert(ms.last > ms.head, s"merge cost should grow with w: $ms")
    // linear, not quadratic: 16x window -> cost within ~64x
    assert(ms.last < ms.head * 100, s"merge cost growth looks super-linear: $ms")
  }
}
