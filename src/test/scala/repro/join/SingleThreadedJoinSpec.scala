package repro.join

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.{StreamGen, TestRefs}
import repro.StreamGen.Workload
import repro.bench.{StepNanos, StepTimedIndex}
import repro.index._

class SingleThreadedJoinSpec extends AnyFunSuite {

  private def workload(n: Int, keySpace: Int, seed: Long) =
    StreamGen.twoWay(StreamGen.uniform(n / 2, keySpace, seed),
                     StreamGen.uniform(n - n / 2, keySpace, seed + 50))

  private val indexFactories: Seq[(String, Int => WindowIndex)] = Seq(
    ("B+-Tree", _ => new BPlusWindowIndex(8)),
    ("IM-Tree", w => PIMTree.imTree(math.max(1, w / 4))),
    ("PIM-Tree", w => new PIMTree(2, math.max(1, w / 4))),
    ("PIM-Tree-m1", w => new PIMTree(2, math.max(1, w))),
    ("B-chain", w => new ChainedIndex(math.max(1, w / 4), immutableArchive = false)),
    ("IB-chain", w => new ChainedIndex(math.max(1, w / 4), immutableArchive = true)),
    ("Bw-Tree", w => new BwTree(1 << 12, math.max(64, 2 * w), targetLeafSize = 16)),
  )

  test("NLWJ matches the brute-force reference exactly (pairs and order)") {
    val wl   = workload(600, 1 << 12, 1)
    val w    = 64
    val diff = 40
    val sink = new CollectingSink
    val stats = SingleThreadedJoin.nlwj(wl, w, w, diff, sink)
    val ref   = TestRefs.referencePairs(wl, w, w, diff)
    assert(sink.pairs.toVector == ref)
    assert(stats.results == ref.size)
    assert(stats.tuples == wl.length)
  }

  for ((name, mk) <- indexFactories; w <- Seq(1, 2, 3, 32, 128, 512)) {
    test(s"IBWJ($name) equals reference pairs (two-way, w=$w)") {
      val wl   = workload(2000, 1 << 12, w)
      val diff = 30
      val sink = new CollectingSink
      SingleThreadedJoin.ibwj(wl, w, w, diff, mk(w), mk(w), sink)
      val ref = TestRefs.referencePairs(wl, w, w, diff)
      assert(sink.pairs.sorted.toVector == ref.sorted)
    }
  }

  for ((name, mk) <- indexFactories) {
    test(s"IBWJ($name) equals reference pairs (self-join)") {
      val keys = StreamGen.uniform(1500, 1 << 12, 77)
      val wl   = StreamGen.selfJoin(keys)
      val w    = 128
      val diff = 25
      val sink = new CollectingSink
      SingleThreadedJoin.ibwj(wl, w, w, diff, mk(w), mk(w), sink, selfJoin = true)
      val ref = TestRefs.referencePairs(wl, w, w, diff, selfJoin = true)
      assert(sink.pairs.sorted.toVector == ref.sorted)
    }
  }

  test("IBWJ emits result groups in arrival order") {
    val wl   = workload(1000, 1 << 10, 3)
    val w    = 64
    val diff = 20
    val sink = new CollectingSink
    SingleThreadedJoin.ibwj(wl, w, w, diff, new BPlusWindowIndex(8), new BPlusWindowIndex(8), sink)
    val groups = TestRefs.referenceGroups(wl, w, w, diff)
    val norm   = TestRefs.normalizeByGroups(sink.pairs.toSeq, groups)
    assert(norm == groups.map(_.sorted))
  }

  test("asymmetric window sizes are respected") {
    val wl = workload(1500, 1 << 10, 4)
    for ((wR, wS) <- Seq((32, 256), (256, 32), (64, 64))) {
      val diff = 15
      val sink = new CollectingSink
      SingleThreadedJoin.ibwj(wl, wR, wS, diff,
        new BPlusWindowIndex(8), new BPlusWindowIndex(8), sink)
      val ref = TestRefs.referencePairs(wl, wR, wS, diff)
      assert(sink.pairs.sorted.toVector == ref.sorted, s"(wR=$wR, wS=$wS)")
    }
  }

  test("asymmetric input rates are respected") {
    val rKeys = StreamGen.uniform(1600, 1 << 10, 5)
    val sKeys = StreamGen.uniform(400, 1 << 10, 55)
    val wl    = StreamGen.ratio(rKeys, sKeys, 4, 1)
    val w     = 128
    val diff  = 10
    val sink  = new CollectingSink
    SingleThreadedJoin.ibwj(wl, w, w, diff,
      new PIMTree(2, w / 2), new PIMTree(2, w / 2), sink)
    val ref = TestRefs.referencePairs(wl, w, w, diff)
    assert(sink.pairs.sorted.toVector == ref.sorted)
  }

  test("diff = 0 degenerates to an equi-join") {
    val wl   = workload(2000, 32, 6) // tiny key space forces collisions
    val w    = 64
    val sink = new CollectingSink
    SingleThreadedJoin.ibwj(wl, w, w, 0, new BPlusWindowIndex(8), new BPlusWindowIndex(8), sink)
    val ref = TestRefs.referencePairs(wl, w, w, 0)
    assert(sink.pairs.sorted.toVector == ref.sorted)
    assert(ref.nonEmpty)
  }

  test("a negative diff is rejected at the API edge") {
    val wl = workload(20, 1 << 8, 12)
    assertThrows[IllegalArgumentException](SingleThreadedJoin.nlwj(wl, 4, 4, -1, new CountingSink))
    assertThrows[IllegalArgumentException](
      SingleThreadedJoin.ibwj(wl, 4, 4, -1, new BPlusWindowIndex(8), new BPlusWindowIndex(8), new CountingSink))
    assertThrows[IllegalArgumentException](SingleThreadedJoin.nlwj(wl, 0, 4, 2, new CountingSink))
    assertThrows[IllegalArgumentException](
      SingleThreadedJoin.ibwj(wl, 4, 0, 2, new BPlusWindowIndex(8), new BPlusWindowIndex(8), new CountingSink))
  }

  test("window of size 1 keeps only the latest opposite tuple") {
    val wl   = workload(300, 16, 7)
    val sink = new CollectingSink
    SingleThreadedJoin.ibwj(wl, 1, 1, 2, new BPlusWindowIndex(8), new BPlusWindowIndex(8), sink)
    val ref = TestRefs.referencePairs(wl, 1, 1, 2)
    assert(sink.pairs.sorted.toVector == ref.sorted)
  }

  test("all index implementations agree on counts at a larger scale") {
    val w    = 1 << 10
    val n    = 20000
    val wl   = workload(n, 1 << 16, 8)
    val diff = StreamGen.diffForMatchRate(w, 2.0, 1 << 16)
    val counts = indexFactories.map { case (name, mk) =>
      val sink = new CountingSink
      SingleThreadedJoin.ibwj(wl, w, w, diff, mk(w), mk(w), sink)
      (name, sink.count, sink.checksum)
    }
    val (refName, refCount, refSum) = counts.head
    counts.tail.foreach { case (name, c, s) =>
      assert(c == refCount, s"$name count $c != $refName $refCount")
      assert(s == refSum, s"$name checksum mismatch vs $refName")
    }
  }

  test("timed runs produce the same results and populate step timers") {
    val w    = 256
    val wl   = workload(5000, 1 << 12, 9)
    val diff = 20
    for ((name, mk) <- Seq[(String, () => WindowIndex)](("B+-Tree", () => new BPlusWindowIndex(8)),
                                                         ("PIM-Tree", () => new PIMTree(2, w / 4)))) {
      val plain = new CountingSink
      SingleThreadedJoin.ibwj(wl, w, w, diff, mk(), mk(), plain)
      val timed = new CountingSink
      val nanos = new StepNanos(timedFrom = 1000)
      val stats = SingleThreadedJoin.ibwj(wl, w, w, diff, new StepTimedIndex(mk(), nanos),
                                          new StepTimedIndex(mk(), nanos), timed, timedFrom = 1000)
      assert(plain.count == timed.count && plain.checksum == timed.checksum, name)
      assert(stats.tuples == 4000 && nanos.search > 0 && nanos.scan > 0 && nanos.insert > 0, name)
      if (name == "B+-Tree") assert(nanos.delete > 0) else assert(nanos.merge > 0)
    }
  }

  test("a timedFrom beyond the stream times no tuples") {
    val wl = workload(100, 1 << 8, 13)
    assert(SingleThreadedJoin.ibwj(wl, 8, 8, 2, new BPlusWindowIndex(8), new BPlusWindowIndex(8),
                                   new CountingSink, timedFrom = 150).tuples == 0)
    assert(SingleThreadedJoin.nlwj(wl, 8, 8, 2, new CountingSink, timedFrom = 150).tuples == 0)
  }

  test("used heap during a run does not grow with the stream, only the input does") {
    val w = 1 << 12
    /** Used heap sampled once from the sink near the last arrival, while
      * the run's state is live, and the input's bytes.
      */
    def usedDuring(n: Int, run: (Workload, ResultSink) => Unit): (Long, Long) = {
      val wl   = workload(n, 1 << 12, 19)
      var used = 0L
      run(wl, new ResultSink {
        def emit(rSeq: Int, sSeq: Int): Unit =
          if (used == 0 && math.max(rSeq, sSeq) >= n / 2 - 64) {
            val rt = Runtime.getRuntime
            used = (0 until 3).map { _ => System.gc(); rt.totalMemory - rt.freeMemory }.min
          }
      })
      assert(used > 0, "the sink never saw the end of the stream")
      (used, wl.keys.length * 4L + wl.fromR.length)
    }
    val runners = Seq[(String, (Workload, ResultSink) => Unit)](
      ("IBWJ", (wl, sink) => SingleThreadedJoin.ibwj(wl, w, w, 2, new PIMTree(2, w / 4), new PIMTree(2, w / 4), sink)),
      ("NLWJ", (wl, sink) => SingleThreadedJoin.nlwj(wl, w, w, 2, sink)),
    )
    for ((name, run) <- runners) {
      usedDuring(10 * w, run) // warm up: class loading and JIT state are not the join's
      val (small, smallInput) = usedDuring(10 * w, run)
      val (large, largeInput) = usedDuring(100 * w, run)
      val growth = large - small
      val bound  = largeInput - smallInput + (2L << 20)
      info(s"$name used heap: ${small >> 10} KiB at n = 10·w, ${large >> 10} KiB at n = 100·w")
      assert(growth < bound, s"$name: heap grew by $growth B from n = 10·w to 100·w; the input alone by ${largeInput - smallInput} B")
    }
  }

  test("match rate scales with diff as predicted") {
    val w  = 1 << 10
    val ks = 1 << 16
    val n  = 30000
    val wl = workload(n, ks, 10)
    def countFor(sigma: Double): Long = {
      val diff = StreamGen.diffForMatchRate(w, sigma, ks)
      val sink = new CountingSink
      SingleThreadedJoin.ibwj(wl, w, w, diff, PIMTree.imTree(w), PIMTree.imTree(w), sink)
      sink.count
    }
    val c2 = countFor(2.0)
    val c8 = countFor(8.0)
    val ratio = c8.toDouble / math.max(1, c2)
    assert(ratio > 3.0 && ratio < 5.0, s"ratio=$ratio")
  }

  test("random small configurations agree with the reference (fuzz)") {
    val rnd = new Random(11)
    (0 until 15).foreach { trial =>
      val n    = 200 + rnd.nextInt(400)
      val ks   = 1 << (4 + rnd.nextInt(8))
      val w    = 1 << (2 + rnd.nextInt(6))
      val diff = rnd.nextInt(math.max(1, ks / 8))
      val wl   = workload(n, ks, 1000 + trial)
      val sink = new CollectingSink
      SingleThreadedJoin.ibwj(wl, w, w, diff,
        new PIMTree(1 + rnd.nextInt(3), math.max(1, w / (1 << rnd.nextInt(3)))),
        new PIMTree(1 + rnd.nextInt(3), math.max(1, w / (1 << rnd.nextInt(3)))), sink)
      val ref = TestRefs.referencePairs(wl, w, w, diff)
      assert(sink.pairs.sorted.toVector == ref.sorted, s"trial=$trial n=$n ks=$ks w=$w diff=$diff")
    }
  }
}
