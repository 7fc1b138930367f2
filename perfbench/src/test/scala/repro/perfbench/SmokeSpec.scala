package repro.perfbench

import java.nio.file.{Files, Paths}

import org.scalatest.funsuite.AnyFunSuite

/** Every workload end to end at a tiny scale, traced, so that both the
  * end-to-end and the per-layer metrics are computed.
  */
class SmokeSpec extends AnyFunSuite {
  private val out = Files.createDirectories(Paths.get("target", "smoke"))
  private val tiny: Seq[Workload] = Seq(
    JoinBench.parUniform(2, w = 512, timed = 8192, blockSize = 1024),
    JoinBench.parShiftSelf(2, w = 512, timed = 8192, blockSize = 1024),
    // more warm-up batches than the input has, so the warm-up cycles
    new SparkBench(2, w = 256, segments = 2, warmBatches = 20),
  )

  test("tiny workloads are named as the full ones") {
    assert(tiny.map(_.name) == Workloads.all.map(_.name))
  }

  for (w <- tiny) test(s"${w.name} runs, checks its results and computes every metric") {
    val o = w.run(RunConfig(seed = 3, seconds = 1, trace = true, outDir = out), new SpanLog(1 << 14))
    assert(o.referenceOk)
    assert(o.attempted > 0 && o.failed == 0)
    val names = (Metrics.EndToEnd ++ Metrics.PerLayer).map(_.name)
    assert(names.forall(o.metrics.contains), names.filterNot(o.metrics.contains))
    assert(names.forall(n => !o.metrics(n).isNaN && !o.metrics(n).isInfinite))
    assert(o.metrics("throughput_tps") > 0 && o.metrics("setup_s") > 0)
    assert(o.metrics("check.full_domain_lost_pairs") >= 0)
  }
}
