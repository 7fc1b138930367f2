package repro.join

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport
import repro.core.{Arrivals, Band, IntVec, LongVec}
import repro.index.{BPlusWindowIndex, PIMTree, WindowIndex}

/** [[Side.probe]] returns exactly the window's band matches, each once,
  * wherever the edge splits the window between index and scan.
  */
class SideProbeSpec extends AnyFunSuite with PropSupport {
  import SideProbeSpec.Case

  private val key: Gen[Int] = Gen.frequency(
    3 -> Gen.zip(Gen.oneOf(Int.MinValue, -1, 0, Int.MaxValue), Gen.choose(-4, 4)).map { case (a, d) =>
      math.max(Int.MinValue.toLong, math.min(Int.MaxValue.toLong, a.toLong + d)).toInt
    },
    1 -> Gen.chooseNum(Int.MinValue, Int.MaxValue),
  )

  // the large diffs saturate the band at both ends of the Int domain
  private val diffs: Gen[Int] = Gen.frequency(
    5 -> Gen.choose(0, 6),
    1 -> Gen.oneOf(Int.MaxValue / 2, Int.MaxValue),
  )

  private val cases: Gen[Case] = for {
    n     <- Gen.choose(1, 80)
    keys  <- Gen.listOfN(n, key)
    w     <- Gen.choose(1, 24)
    tl    <- Gen.choose(-1, n - 1)
    probe <- key
    diff  <- diffs
    pim   <- Gen.oneOf(false, true)
  } yield Case(keys.toArray, w, tl, probe, diff, pim)

  /** Every seq of the case's stream is in the side's ring and index, so the
    * index also holds seqs before t_e and after t_l that the probe drops.
    */
  private def check(c: Case): Prop = {
    import c._
    val index: WindowIndex =
      if (pim) new PIMTree(2, 1 << 10, bFanout = 4, ibFanout = 4, ibLeafSize = 4) else new BPlusWindowIndex(4)
    val side = new Side(w, index, keys.length)
    keys.indices.foreach { q => side.keys(q) = keys(q); index.insert(keys(q), q) }
    val te       = Arrivals.windowStart(tl, w)
    val expected = (te to tl).filter(s => math.abs(keys(s).toLong - probe) <= diff)
    val band     = Band(diff)
    val edges    = Seq("t_e" -> te, "mid-window" -> (te + tl + 1) / 2, "t_l + 1" -> (tl + 1))
    Prop.all(edges.map { case (name, edge) =>
      val refs = new IntVec
      side.probe(band, probe, tl, edge, new LongVec, refs)
      val got = refs.toArray.toSeq
      (got.sorted == expected) :| s"edge at $name ($edge): got ${got.mkString(",")}"
    }: _*)
  }

  test("property: probe returns exactly the brute-force refs, each once, at any edge") {
    checkProp(Prop.forAll(cases)(check), minSuccessful = 300)
  }
}

object SideProbeSpec {
  private final case class Case(keys: Array[Int], w: Int, tl: Int, probe: Int, diff: Int, pim: Boolean) {
    override def toString: String =
      s"Case(w=$w, tl=$tl, probe=$probe, diff=$diff, pim=$pim, keys=${keys.mkString("[", ",", "]")})"
  }
}
