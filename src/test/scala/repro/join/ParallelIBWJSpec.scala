package repro.join

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong, AtomicReference}

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimitedTests}
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.{Seconds, Span}

import repro.{PropSupport, StreamGen, TestRefs}
import repro.core.LongVec
import repro.index._

class ParallelIBWJSpec extends AnyFunSuite with PropSupport with TimeLimitedTests {
  import ParallelIBWJSpec.RingCase

  // Every test, and so every join, runs under failAfter with this bound:
  // a join that stops making progress fails its test instead of hanging
  // the suite. The signaler interrupts the test thread, and run() ends its
  // workers and rethrows when its caller is interrupted.
  override val timeLimit: Span = Span(120, Seconds)
  override val defaultTestSignaler: Signaler = ThreadSignaler

  private def workload(n: Int, keySpace: Int, seed: Long) =
    StreamGen.twoWay(StreamGen.uniform(n / 2, keySpace, seed),
                     StreamGen.uniform(n - n / 2, keySpace, seed + 50))

  private def pim(w: Int, m: Double = 0.5, dI: Int = 2) =
    new PIMTree(dI, math.max(1, (m * w).toInt))

  for (threads <- Seq(1, 2, 4, 8); taskSizeV <- Seq(1, 8)) {
    test(s"parallel PIM join equals reference (threads=$threads, taskSize=$taskSizeV)") {
      val w    = 128
      val wl   = workload(4000, 1 << 12, threads * 10 + taskSizeV)
      val diff = 25
      val sink = new CollectingSink
      val join = new ParallelIBWJ(wl, w, w, diff, pim(w), pim(w), threads, taskSizeV)
      val stats = join.run(sink)
      val ref = TestRefs.referencePairs(wl, w, w, diff)
      assert(sink.pairs.sorted.toVector == ref.sorted)
      assert(stats.results == ref.size)
    }
  }

  for (nonblocking <- Seq(true, false)) {
    val label = if (nonblocking) "nonblocking" else "blocking"
    test(s"many merges mid-run lose nothing ($label merge)") {
      val w    = 64
      val wl   = workload(6000, 1 << 10, 42)
      val diff = 10
      val sink = new CollectingSink
      val join = new ParallelIBWJ(wl, w, w, diff, pim(w, m = 0.25), pim(w, m = 0.25),
                                  numThreads = 4, taskSize = 4, nonblockingMerge = nonblocking)
      join.run(sink)
      val ref = TestRefs.referencePairs(wl, w, w, diff)
      assert(sink.pairs.sorted.toVector == ref.sorted)
    }
  }

  test("a negative diff is rejected at the API edge") {
    val wl = workload(20, 1 << 8, 8)
    assertThrows[IllegalArgumentException](new ParallelIBWJ(wl, 4, 4, -1, pim(4), pim(4), 2, 1))
    assertThrows[IllegalArgumentException](new ParallelIBWJ(wl, 0, 4, 2, pim(4), pim(4), 2, 1))
    assertThrows[IllegalArgumentException](new ParallelIBWJ(wl, 4, 4, 2, pim(4), pim(4), 0, 1))
    assertThrows[IllegalArgumentException](new ParallelIBWJ(wl, 4, 4, 2, pim(4), pim(4), 2, 0))
    // merge coordination needs both indexes to be PIM-Trees, expiry neither
    assertThrows[IllegalArgumentException](new ParallelIBWJ(wl, 4, 4, 2, pim(4), new BwTree(256, 8), 2, 1))
  }

  test("result propagation preserves arrival order") {
    val w    = 96
    val wl   = workload(3000, 1 << 10, 7)
    val diff = 12
    val sink = new CollectingSink
    new ParallelIBWJ(wl, w, w, diff, pim(w), pim(w), 8, 4).run(sink)
    val groups = TestRefs.referenceGroups(wl, w, w, diff)
    val norm   = TestRefs.normalizeByGroups(sink.pairs.toSeq, groups)
    assert(norm == groups.map(_.sorted))
  }

  test("self-join parallel equals reference") {
    val w    = 128
    val keys = StreamGen.uniform(4000, 1 << 12, 9)
    val wl   = StreamGen.selfJoin(keys)
    val diff = 20
    val sink = new CollectingSink
    new ParallelIBWJ(wl, w, w, diff, pim(w), pim(w), 8, 8, selfJoin = true).run(sink)
    val ref = TestRefs.referencePairs(wl, w, w, diff, selfJoin = true)
    assert(sink.pairs.sorted.toVector == ref.sorted)
  }

  test("self-join with merges equals reference") {
    val w    = 64
    val keys = StreamGen.uniform(5000, 1 << 10, 10)
    val wl   = StreamGen.selfJoin(keys)
    val diff = 8
    val sink = new CollectingSink
    new ParallelIBWJ(wl, w, w, diff, pim(w, m = 0.25), pim(w, m = 0.25),
                     4, 4, selfJoin = true).run(sink)
    val ref = TestRefs.referencePairs(wl, w, w, diff, selfJoin = true)
    assert(sink.pairs.sorted.toVector == ref.sorted)
  }

  test("asymmetric windows parallel equals reference") {
    val wl   = workload(3000, 1 << 10, 11)
    val (wR, wS) = (32, 256)
    val diff = 10
    val sink = new CollectingSink
    new ParallelIBWJ(wl, wR, wS, diff, pim(wR), pim(wS), 8, 8).run(sink)
    val ref = TestRefs.referencePairs(wl, wR, wS, diff)
    assert(sink.pairs.sorted.toVector == ref.sorted)
  }

  test("asymmetric rates parallel equals reference") {
    val rKeys = StreamGen.uniform(2400, 1 << 10, 12)
    val sKeys = StreamGen.uniform(600, 1 << 10, 13)
    val wl    = StreamGen.ratio(rKeys, sKeys, 4, 1)
    val w     = 128
    val diff  = 10
    val sink  = new CollectingSink
    new ParallelIBWJ(wl, w, w, diff, pim(w), pim(w), 8, 8).run(sink)
    val ref = TestRefs.referencePairs(wl, w, w, diff)
    assert(sink.pairs.sorted.toVector == ref.sorted)
  }

  test("Bw-Tree shared index under the parallel algorithm equals reference") {
    val w    = 128
    val wl   = workload(4000, 1 << 12, 14)
    val diff = 20
    def bw() = new BwTree(1 << 12, 2 * w, targetLeafSize = 16)
    val sink = new CollectingSink
    new ParallelIBWJ(wl, w, w, diff, bw(), bw(), 8, 8).run(sink)
    val ref = TestRefs.referencePairs(wl, w, w, diff)
    assert(sink.pairs.sorted.toVector == ref.sorted)
  }

  test("once the join drains, each Bw-Tree holds its stream's last window and nothing older") {
    val keys = StreamGen.uniform(3000, 1 << 10, 21)
    def bw(w: Int) = new BwTree(1 << 10, 2 * w, targetLeafSize = 16)
    for (threads <- Seq(1, 4); selfJoin <- Seq(false, true)) {
      val wl       = if (selfJoin) StreamGen.selfJoin(keys) else workload(3000, 1 << 10, 21)
      val (wR, wS) = if (selfJoin) (64, 64) else (32, 256)
      val iR       = bw(wR)
      val iS       = if (selfJoin) iR else bw(wS)
      new ParallelIBWJ(wl, wR, wS, 10, iR, iS, threads, 8, selfJoin).run(new CountingSink)
      val rArrivals = wl.fromR.count(identity)
      val label     = s"threads=$threads selfJoin=$selfJoin"
      assert(iR.size == math.min(wR, rArrivals), label)
      if (!selfJoin) assert(iS.size == math.min(wS, wl.length - rArrivals), label)
    }
  }

  test("a worker exception stops the join and run rethrows it") {
    val w       = 128
    val wl      = workload(4000, 1 << 12, 18)
    val boom    = new IllegalStateException("the 100th insert fails")
    val inserts = new AtomicInteger(0)
    // a Bw-Tree whose 100th insert, counted over both windows, throws
    def failingBw(): WindowIndex = new WindowIndex {
      private val bw = new BwTree(1 << 12, 2 * w, targetLeafSize = 16)
      def name: String = "failing Bw-Tree"
      def insert(key: Int, ref: Int): Unit = {
        if (inserts.incrementAndGet() == 100) throw boom
        bw.insert(key, ref)
      }
      def expire(key: Int, ref: Int): Unit = bw.expire(key, ref)
      def rangeSearch(lo: Int, hi: Int, out: LongVec): Unit = bw.rangeSearch(lo, hi, out)
      def maintain(validFrom: Int): Unit = bw.maintain(validFrom)
      def size: Int = bw.size
      def memoryBytes: Long = bw.memoryBytes
    }
    val join   = new ParallelIBWJ(wl, w, w, 20, failingBw(), failingBw(), 4, 8)
    val thrown = new AtomicReference[Throwable]
    val runner = new Thread(() =>
      try { join.run(new CountingSink); () }
      catch { case e: Throwable => thrown.set(e) })
    runner.setDaemon(true)
    runner.start()
    runner.join(10000)
    assert(!runner.isAlive, "run() did not return within 10 s of a worker failing")
    assert(thrown.get eq boom)
  }

  test("interrupting run's caller stops the workers, and run rethrows the interrupt") {
    val w       = 128
    val wl      = workload(4000, 1 << 12, 20)
    val emits   = new AtomicLong(0)
    val blocked = new CountDownLatch(1)
    val release = new CountDownLatch(1)
    // the first emit holds the propagation lock until released, so the
    // join cannot finish meanwhile
    val sink = new ResultSink {
      def emit(rSeq: Int, sSeq: Int): Unit = {
        if (emits.incrementAndGet() == 1) { blocked.countDown(); release.await() }
      }
    }
    val join   = new ParallelIBWJ(wl, w, w, 20, pim(w), pim(w), 4, 8)
    val thrown = new AtomicReference[Throwable]
    val runner = new Thread(() =>
      try { join.run(sink); () }
      catch { case e: Throwable => thrown.set(e) })
    runner.setDaemon(true)
    runner.start()
    assert(blocked.await(10, TimeUnit.SECONDS), "no result was emitted")
    runner.interrupt()
    Thread.sleep(50) // let run() record the interrupt before the join can go on
    release.countDown()
    runner.join(10000)
    assert(!runner.isAlive, "run() did not return within 10 s of its caller being interrupted")
    assert(thrown.get.isInstanceOf[InterruptedException], s"run() ended with ${thrown.get}")
    val atReturn = emits.get
    Thread.sleep(100)
    assert(emits.get == atReturn, "workers kept emitting after run() returned")
    assert(atReturn < TestRefs.referencePairs(wl, w, w, 20).size, "the workers ran the join to its end")
  }

  test("parallel equals single-threaded on a larger run (count + checksum)") {
    val w    = 1 << 10
    val n    = 30000
    val ks   = 1 << 16
    val wl   = workload(n, ks, 15)
    val diff = StreamGen.diffForMatchRate(w, 2.0, ks)
    val single = new CountingSink
    SingleThreadedJoin.ibwj(wl, w, w, diff, pim(w), pim(w), single)
    val par = new CountingSink
    new ParallelIBWJ(wl, w, w, diff, pim(w), pim(w), 8, 8).run(par)
    assert(par.count == single.count)
    assert(par.checksum == single.checksum)
  }

  test("latency tracking records per-tuple latencies") {
    val w    = 128
    val wl   = workload(2000, 1 << 10, 16)
    val join = new ParallelIBWJ(wl, w, w, 10, pim(w), pim(w), 4, 4, trackLatency = true)
    join.run(new CountingSink)
    assert(join.latencyCount.get == wl.length)
    assert(join.latencySumNanos.get > 0)
  }

  test("single worker with task size 1 still drains and orders correctly") {
    val w    = 32
    val wl   = workload(500, 1 << 8, 17)
    val sink = new CollectingSink
    new ParallelIBWJ(wl, w, w, 4, pim(w, m = 0.25), pim(w, m = 0.25), 1, 1).run(sink)
    val groups = TestRefs.referenceGroups(wl, w, w, 4)
    assert(TestRefs.normalizeByGroups(sink.pairs.toSeq, groups) == groups.map(_.sorted))
  }

  test("empty workload completes immediately") {
    val wl = StreamGen.Workload(Array.emptyBooleanArray, Array.emptyIntArray)
    val stats = new ParallelIBWJ(wl, 16, 16, 5, pim(16), pim(16), 4, 8).run(new CountingSink)
    assert(stats.tuples == 0 && stats.results == 0)
  }

  // ---- bounded state: the window and task rings -----------------------

  /** Equals the reference and propagates in arrival order. */
  private def ringCaseHolds(c: RingCase): Prop = {
    val keys = StreamGen.uniform(c.n, 256, c.seed)
    val wl   =
      if (c.selfJoin) StreamGen.selfJoin(keys)
      else StreamGen.twoWay(keys.take(c.n / 2), keys.drop(c.n / 2))
    val diff = 3
    // small fanouts give T_S several partitions even at these windows
    def index(w: Int): WindowIndex =
      if (c.bwTree) new BwTree(256, 2 * w, targetLeafSize = 4)
      else new PIMTree(2, math.max(1, w / 4), bFanout = 4, ibFanout = 4, ibLeafSize = 4)
    val iR   = index(c.wR)
    val iS   = if (c.selfJoin) iR else index(c.wS)
    val sink = new CollectingSink
    new ParallelIBWJ(wl, c.wR, c.wS, diff, iR, iS, c.threads, c.taskSize, c.selfJoin, c.nonblocking).run(sink)
    val groups = TestRefs.referenceGroups(wl, c.wR, c.wS, diff, c.selfJoin)
    val got    = sink.pairs.toVector
    (got.sorted == groups.flatten.sorted) :| "equals the reference" &&
      (TestRefs.normalizeByGroups(got, groups) == groups.map(_.sorted)) :| "in arrival order"
  }

  private val windows = Seq(1, 2, 3, 7, 64)

  // n >= 50·w and >= 2000 arrivals: every key ring (at most 256 slots here)
  // and task ring (at most 32) wraps many times, small rings make tasks
  // wait for free slots, and merges (m = 0.25) fire mid-run
  private val ringCases: Gen[RingCase] = for {
    wR       <- Gen.oneOf(windows)
    shape    <- Gen.oneOf("two-way", "self-join", "asymmetric")
    wS       <- if (shape == "asymmetric") Gen.oneOf(windows.filter(_ != wR)) else Gen.const(wR)
    extra    <- Gen.choose(0, 1500)
    threads  <- Gen.choose(1, 8)
    taskSize <- Gen.choose(1, 10)
    bwTree   <- Gen.oneOf(false, true)
    nonblock <- Gen.oneOf(true, false)
    seed     <- Gen.choose(1L, 1L << 30)
  } yield RingCase(math.max(2000, 50 * math.max(wR, wS)) + extra, wR, wS, threads, taskSize,
                   shape == "self-join", bwTree, nonblock, seed)

  test("property: the rings wrap under backpressure and lose, duplicate and reorder nothing") {
    checkProp(Prop.forAll(ringCases)(ringCaseHolds), minSuccessful = 40)
  }

  test("a one-tuple window with 10-arrival tasks at 8 threads wraps its rings correctly") {
    for (selfJoin <- Seq(false, true); bwTree <- Seq(false, true))
      assert(ringCaseHolds(RingCase(3000, 1, 1, 8, 10, selfJoin, bwTree, nonblocking = true, 5L))
               .apply(Gen.Parameters.default).success, s"selfJoin=$selfJoin bwTree=$bwTree")
  }

  test("retained heap does not grow with the stream, only the input does") {
    val w = 1 << 12
    def usedAfterGc(): Long = {
      val rt = Runtime.getRuntime
      (0 until 3).map { _ => System.gc(); rt.totalMemory - rt.freeMemory }.min
    }
    /** Used heap with a finished join over n arrivals still reachable, and its input's bytes. */
    def retained(n: Int): (Long, Long) = {
      val wl   = workload(n, 1 << 20, 19)
      val join = new ParallelIBWJ(wl, w, w, 2, pim(w), pim(w), 4, 8)
      join.run(new CountingSink)
      val used = usedAfterGc()
      java.lang.ref.Reference.reachabilityFence(join)
      (used, wl.keys.length * 4L + wl.fromR.length)
    }
    retained(10 * w) // warm up: class loading and JIT state are not the join's
    val (small, smallInput) = retained(10 * w)
    val (large, largeInput) = retained(100 * w)
    val growth = large - small
    val bound  = largeInput - smallInput + (2L << 20)
    info(s"used heap: ${small >> 10} KiB at n = 10·w, ${large >> 10} KiB at n = 100·w")
    assert(growth < bound, s"heap grew by $growth B from n = 10·w to 100·w; the input alone by ${largeInput - smallInput} B")
  }

  test("stress: repeated concurrent runs stay correct") {
    (0 until 5).foreach { trial =>
      val w    = 64
      val wl   = workload(3000, 1 << 10, 100 + trial)
      val diff = 8
      val sink = new CollectingSink
      new ParallelIBWJ(wl, w, w, diff, pim(w, m = 0.25, dI = 1 + trial % 3),
                       pim(w, m = 0.25, dI = 1 + trial % 3), 8, 2).run(sink)
      val ref = TestRefs.referencePairs(wl, w, w, diff)
      assert(sink.pairs.sorted.toVector == ref.sorted, s"trial=$trial")
    }
  }
}

object ParallelIBWJSpec {
  private final case class RingCase(n: Int, wR: Int, wS: Int, threads: Int, taskSize: Int,
                                    selfJoin: Boolean, bwTree: Boolean, nonblocking: Boolean, seed: Long)
}
