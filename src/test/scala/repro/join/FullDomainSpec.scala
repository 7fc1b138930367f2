package repro.join

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite

import repro.{PropSupport, TestRefs}
import repro.StreamGen.Workload
import repro.index._

/** Every runner × index gives the brute-force answer on keys drawn from the
  * whole `Int` domain: clustered at both ends and around zero, so bands
  * overlap negative keys and saturate at `Int.MinValue` / `Int.MaxValue`.
  */
class FullDomainSpec extends AnyFunSuite with PropSupport {
  import FullDomainSpec.Case

  private val anchors = Seq(Int.MinValue, -Int.MaxValue, -1, 0, Int.MaxValue - 1, Int.MaxValue)

  private val key: Gen[Int] = Gen.frequency(
    4 -> Gen.zip(Gen.oneOf(anchors), Gen.choose(-6, 6)).map { case (a, d) =>
      math.max(Int.MinValue.toLong, math.min(Int.MaxValue.toLong, a.toLong + d)).toInt
    },
    1 -> Gen.chooseNum(Int.MinValue, Int.MaxValue),
  )

  private val diffs: Gen[Int] = Gen.frequency(
    6 -> Gen.choose(0, 8),
    1 -> Gen.oneOf(Int.MaxValue / 2, Int.MaxValue),
  )

  private val cases: Gen[Case] = for {
    n        <- Gen.choose(1, 160)
    selfJoin <- Gen.frequency(3 -> false, 1 -> true)
    keys     <- Gen.listOfN(n, key)
    fromR    <- Gen.listOfN(n, Gen.oneOf(true, false))
    wR       <- Gen.choose(1, 24)
    // a self-join's one window is wR's: TestRefs ignores wS, and so must every runner
    wS       <- Gen.choose(1, 24)
    d        <- diffs
  } yield Case(Workload(if (selfJoin) Array.fill(n)(true) else fromR.toArray, keys.toArray),
               wR, wS, d, selfJoin)

  private val indexes: Seq[(String, Int => WindowIndex)] = Seq(
    ("B+-Tree", _ => new BPlusWindowIndex(4)),
    ("IM-Tree", w => PIMTree.imTree(math.max(1, w / 4))),
    ("PIM-Tree", w => new PIMTree(2, math.max(1, w / 4), bFanout = 4, ibFanout = 4, ibLeafSize = 4)),
    ("B-chain", w => new ChainedIndex(math.max(1, w / 4), immutableArchive = false, bFanout = 4)),
    ("IB-chain", w => new ChainedIndex(math.max(1, w / 4), immutableArchive = true, bFanout = 4)),
    ("Bw-Tree", w => new BwTree(1 << 12, math.max(64, 2 * w), targetLeafSize = 16)),
  )

  private val parallelIndexes: Seq[(String, Int => WindowIndex)] =
    indexes.filter { case (name, _) => name == "PIM-Tree" || name == "Bw-Tree" }

  private def check(c: Case): Prop = {
    import c._
    val ref     = TestRefs.referencePairs(wl, wR, wS, diff, selfJoin)
    val sorted  = ref.sorted
    def same(name: String, got: collection.Seq[(Int, Int)]): Prop = (got.sorted == sorted) :| name

    val nl = new CollectingSink
    SingleThreadedJoin.nlwj(wl, wR, wS, diff, nl, selfJoin)
    val nlwj = (nl.pairs.toVector == ref) :| "NLWJ"

    val ibwj = indexes.map { case (name, mk) =>
      val sink = new CollectingSink
      val iR   = mk(wR)
      SingleThreadedJoin.ibwj(wl, wR, wS, diff, iR, if (selfJoin) iR else mk(wS), sink, selfJoin)
      same(s"IBWJ($name)", sink.pairs)
    }

    val parallel = for ((name, mk) <- parallelIndexes; threads <- Seq(1, 4)) yield {
      val sink = new CollectingSink
      val iR   = mk(wR)
      new ParallelIBWJ(wl, wR, wS, diff, iR, if (selfJoin) iR else mk(wS), threads, taskSize = 2,
                       selfJoin = selfJoin).run(sink)
      same(s"ParallelIBWJ($name, $threads threads)", sink.pairs)
    }

    // the round-robin joins are two-way only and count their results
    val roundRobin =
      if (selfJoin) Seq.empty
      else Seq(
        (RoundRobinJoin.ibwj(wl, wR, wS, diff, 3, fanout = 4, blockSize = 16).results == ref.size) :| "RR-IBWJ",
        (RoundRobinJoin.nlwj(wl, wR, wS, diff, 3, blockSize = 16).results == ref.size) :| "RR-NLWJ",
      )

    Prop.all((nlwj +: (ibwj ++ parallel ++ roundRobin)): _*)
  }

  test("every runner and index equals the reference over the full Int key domain") {
    checkProp(Prop.forAll(cases)(check), minSuccessful = 150)
  }
}

object FullDomainSpec {
  private final case class Case(wl: Workload, wR: Int, wS: Int, diff: Int, selfJoin: Boolean) {
    override def toString: String =
      s"Case(selfJoin=$selfJoin, wR=$wR, wS=$wS, diff=$diff, " +
        s"keys=${wl.keys.mkString("[", ",", "]")}, fromR=${wl.fromR.map(if (_) 'R' else 'S').mkString})"
  }
}
