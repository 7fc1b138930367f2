package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

import repro.bench.Harness
import repro.join.{CountingSink, ParallelIBWJ, SingleThreadedJoin}

class TracingSpec extends AnyFunSuite {
  private val in     = Inputs.uniformTwoWay(512, 30000, seed = 5)
  private val selfIn = Inputs.shiftingSelf(512, 30000, seed = 5)

  private def counts(s: CountingSink) = (s.count, s.checksum)

  test("the timed index wrapper leaves count and checksum unchanged") {
    for (i <- Seq(in, selfIn)) {
      val plain = new CountingSink
      SingleThreadedJoin.ibwj(i.wl, i.w, i.w, i.diff, Harness.pimTree(i.w, 1.0 / 8),
                              Harness.pimTree(i.w, 1.0 / 8), plain, i.selfJoin, timedFrom = i.prefill)
      val calls = new IndexCalls
      val log   = new SpanLog(1 << 12)
      val span  = log.begin("join.ibwj", -1)
      def wrap() = { val t = new TimedIndex(Harness.pimTree(i.w, 1.0 / 8), calls, log); t.parent = span; t }
      val r = wrap()
      val traced = new CheckSink(i, 4096, new EmitGaps(log))
      SingleThreadedJoin.ibwj(i.wl, i.w, i.w, i.diff, r, if (i.selfJoin) r else wrap(), traced,
                              i.selfJoin, timedFrom = i.prefill)
      log.end(span)
      assert(counts(traced.counts) == counts(plain))
      assert(calls.insertNs.count == i.length && calls.probeNs.count == i.length && calls.merges > 0)
      // the log overflowed: leaf spans past its capacity still count toward the totals
      val (n, total, self) = log.summary("join.ibwj")
      assert(n == 1 && self >= 0 && self < total)
      assert(log.summary("index.insert")._1 == i.length)
    }
  }

  test("a traced parallel run gives the untraced count and checksum") {
    for (i <- Seq(in, selfIn)) {
      def run(traced: Boolean) = {
        val sink = new CheckSink(i, 4096, if (traced) new EmitGaps(new SpanLog(1 << 10)) else null)
        val r    = Harness.pimPar(i.w)
        if (traced) r.trackInsertDistribution(true)
        new ParallelIBWJ(i.wl, i.w, i.w, i.diff, r, if (i.selfJoin) r else Harness.pimPar(i.w), 4, 8,
                         i.selfJoin, trackLatency = traced, timedFrom = i.prefill).run(sink)
        counts(sink.counts)
      }
      val ref = counts(Reference.compute(i, i.length).head)
      assert(run(traced = false) == ref)
      assert(run(traced = true) == ref)
    }
  }

  test("call times have the timer's own cost taken off, and never go below 0") {
    val calls = new IndexCalls
    assert(IndexCalls.TimerNs > 0 && IndexCalls.TimerNs < 10000)
    assert(calls.callNs(0, 10000) == 10000 - IndexCalls.TimerNs)
    assert(calls.callNs(5, 5) == 0)
  }

  test("check sink times one block per blockSize timed arrivals") {
    val sink = new CheckSink(in, 4096)
    SingleThreadedJoin.ibwj(in.wl, in.w, in.w, in.diff, Harness.bplus(), Harness.bplus(), sink,
                            timedFrom = in.prefill)
    val blocks = sink.blockMillis(System.nanoTime())
    assert(blocks.size == (in.length - in.prefill + 4095) / 4096)
    assert(blocks.forall(_ >= 0))
  }

  test("the reference runner agrees with the nested loop") {
    assert(Reference.selfCheck(in).isEmpty)
    assert(Reference.selfCheck(selfIn).isEmpty)
  }

  test("self time subtracts the union of overlapping children") {
    val log = new SpanLog(64)
    val p   = log.record("parent", -1, 0, 100)
    log.record("child", p, 10, 40)
    log.record("child", p, 30, 60)
    log.record("child", p, 90, 120)
    assert(log.summary("parent") == ((1L, 100L, 40L)))
  }
}
