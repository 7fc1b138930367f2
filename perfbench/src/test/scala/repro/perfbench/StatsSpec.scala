package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("tail is the highest percentile with at least ten samples beyond it") {
    val hundred = (1 to 100).map(_.toDouble).reverse
    assert(Stats.tail(hundred) == Some(Stats.Tail(90.0, 90.0, 100)))
    val t = Stats.tail((1 to 150).map(_.toDouble)).get
    assert(t.samples == 150 && t.value == 140.0)
    assert(math.abs(t.percentile - 100.0 * 140 / 150) < 1e-9)
    assert(Stats.tail((1 to 11).map(_.toDouble)).map(_.value) == Some(1.0))
    assert(Stats.tail((1 to 10).map(_.toDouble)).isEmpty)
  }

  test("percentile is nearest-rank and agrees with tail at p90 of 100 samples") {
    val xs = (1 to 100).map(_.toDouble)
    assert(Stats.percentile(xs, 50) == 50.0)
    assert(Stats.percentile(xs, 90) == Stats.tail(xs).get.value)
    assert(Stats.percentile(Seq(7.0), 99) == 7.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("histogram percentiles are within one bucket of the exact ones") {
    val h   = new NsHistogram
    val rnd = new scala.util.Random(3)
    val xs  = Array.fill(20000)((math.exp(rnd.nextDouble() * 12)).toLong)
    xs.foreach(h.add)
    for (p <- Seq(50.0, 90.0, 99.0)) {
      val exact = Stats.percentile(xs.map(_.toDouble).toSeq, p)
      val got   = h.percentile(p)
      assert(got <= exact && got >= exact * (1 - 1.0 / 128) - 1, s"p$p: $got vs $exact")
    }
    assert(h.count == xs.length && h.sumNanos == xs.sum)
  }
}
