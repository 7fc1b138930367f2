package repro.join

import org.scalatest.funsuite.AnyFunSuite

import repro.{StreamGen, TestRefs}

class RoundRobinJoinSpec extends AnyFunSuite {

  private def workload(n: Int, keySpace: Int, seed: Long) =
    StreamGen.twoWay(StreamGen.uniform(n / 2, keySpace, seed),
                     StreamGen.uniform(n - n / 2, keySpace, seed + 50))

  for (cores <- Seq(1, 2, 4, 8); w <- Seq(1, 2, 3, 32, 256)) {
    test(s"RR-IBWJ result count equals reference (cores=$cores, w=$w)") {
      val wl   = workload(3000, 1 << 10, cores * 7 + w)
      val diff = 12
      val stats = RoundRobinJoin.ibwj(wl, w, w, diff, cores, blockSize = 128)
      val ref   = TestRefs.referencePairs(wl, w, w, diff)
      assert(stats.results == ref.size)
      assert(stats.tuples == wl.length)
    }
  }

  for (cores <- Seq(1, 3, 8); w <- Seq(1, 2, 3, 32, 256)) {
    test(s"RR-NLWJ result count equals reference (cores=$cores, w=$w)") {
      val wl   = workload(2000, 1 << 10, cores * 13 + w)
      val diff = 12
      val stats = RoundRobinJoin.nlwj(wl, w, w, diff, cores, blockSize = 64)
      val ref   = TestRefs.referencePairs(wl, w, w, diff)
      assert(stats.results == ref.size)
    }
  }

  test("RR-IBWJ handles asymmetric windows") {
    val wl   = workload(2000, 1 << 10, 3)
    val diff = 10
    val stats = RoundRobinJoin.ibwj(wl, 32, 256, diff, 4, blockSize = 128)
    val ref   = TestRefs.referencePairs(wl, 32, 256, diff)
    assert(stats.results == ref.size)
  }

  test("RR joins agree with the single-threaded IBWJ at scale") {
    val w    = 1 << 9
    val ks   = 1 << 14
    val wl   = workload(20000, ks, 4)
    val diff = StreamGen.diffForMatchRate(w, 2.0, ks)
    val sink = new CountingSink
    SingleThreadedJoin.ibwj(wl, w, w, diff,
      new repro.index.BPlusWindowIndex(8), new repro.index.BPlusWindowIndex(8), sink)
    val rr = RoundRobinJoin.ibwj(wl, w, w, diff, 8)
    assert(rr.results == sink.count)
    val rrN = RoundRobinJoin.nlwj(wl, w, w, diff, 8)
    assert(rrN.results == sink.count)
  }

  test("a negative diff is rejected at the API edge") {
    val wl = workload(20, 1 << 8, 6)
    assertThrows[IllegalArgumentException](RoundRobinJoin.ibwj(wl, 4, 4, -1, 2))
    assertThrows[IllegalArgumentException](RoundRobinJoin.nlwj(wl, 4, 4, -1, 2))
    assertThrows[IllegalArgumentException](RoundRobinJoin.ibwj(wl, 0, 4, 2, 2))
    assertThrows[IllegalArgumentException](RoundRobinJoin.nlwj(wl, 4, 0, 2, 2))
    assertThrows[IllegalArgumentException](RoundRobinJoin.ibwj(wl, 4, 4, 2, 0))
    assertThrows[IllegalArgumentException](RoundRobinJoin.nlwj(wl, 4, 4, 2, 2, blockSize = 0))
    assertThrows[IllegalArgumentException](RoundRobinJoin.ibwj(wl, 4, 4, 2, 2, blockSize = 0))
  }

  test("block size does not change results") {
    val w    = 128
    val wl   = workload(2500, 1 << 10, 5)
    val diff = 8
    val counts = Seq(16, 128, 4096).map(bs =>
      RoundRobinJoin.ibwj(wl, w, w, diff, 4, blockSize = bs).results)
    assert(counts.distinct.size == 1)
  }
}
