package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport

class TypesSpec extends AnyFunSuite with PropSupport {

  private val nonNeg = Gen.chooseNum(0, Int.MaxValue)

  test("Elem round-trips key and ref") {
    checkProp(Prop.forAll(nonNeg, nonNeg) { (k, r) =>
      val e = Elem.pack(k, r)
      Elem.key(e) == k && Elem.ref(e) == r
    })
  }

  test("Elem packing orders by key first") {
    checkProp(Prop.forAll(nonNeg, nonNeg, nonNeg, nonNeg) { (k1, r1, k2, r2) =>
      k1 == k2 || ((Elem.pack(k1, r1) < Elem.pack(k2, r2)) == (k1 < k2))
    })
  }

  test("Elem packing orders by ref within equal keys (non-negative refs)") {
    checkProp(Prop.forAll(nonNeg, nonNeg, nonNeg) { (k, r1, r2) =>
      r1 == r2 || ((Elem.pack(k, r1) < Elem.pack(k, r2)) == (r1 < r2))
    })
  }

  test("packed order equals (key, ref) order over the full Int key domain") {
    val anyKey = Gen.chooseNum(Int.MinValue, Int.MaxValue, -1, 0)
    checkProp(Prop.forAll(anyKey, nonNeg, anyKey, nonNeg) { (k1, r1, k2, r2) =>
      val (e1, e2) = (Elem.pack(k1, r1), Elem.pack(k2, r2))
      Elem.key(e1) == k1 && Elem.ref(e1) == r1 &&
        (e1 compare e2).sign == Ordering[(Int, Int)].compare((k1, r1), (k2, r2)).sign
    }, minSuccessful = 500)
  }

  test("sorting packed arrays equals sorting (key, ref) pairs") {
    checkProp(Prop.forAll(Gen.listOf(Gen.zip(Gen.chooseNum(0, 1000), Gen.chooseNum(0, 1000)))) { pairs =>
      val packed = pairs.map { case (k, r) => Elem.pack(k, r) }.toArray
      java.util.Arrays.sort(packed)
      val viaPairs = pairs.sorted.map { case (k, r) => Elem.pack(k, r) }
      packed.toSeq == viaPairs
    })
  }

  test("IntVec grows and preserves insertion order") {
    val v = new IntVec(2)
    (0 until 1000).foreach(v.add)
    assert(v.size == 1000)
    assert((0 until 1000).forall(i => v(i) == i))
    assert(v.toArray.toSeq == (0 until 1000))
  }

  test("IntVec clear resets") {
    val v = new IntVec(2)
    (0 until 100).foreach(v.add)
    v.clear()
    assert(v.size == 0 && v.isEmpty)
    v.add(42)
    assert(v.size == 1 && v(0) == 42)
  }

  test("IntVec foreach visits all elements in order") {
    val v = new IntVec(4)
    (0 until 50).foreach(v.add)
    val seen = Vector.newBuilder[Int]
    v.foreach(seen += _)
    assert(seen.result() == (0 until 50).toVector)
  }

  test("LongVec grows and preserves insertion order") {
    val v = new LongVec(2)
    (0L until 1000L).foreach(v.add)
    assert(v.size == 1000)
    assert((0 until 1000).forall(i => v(i) == i.toLong))
    assert(v.toArray.toSeq == (0L until 1000L))
  }

  test("Telemetry is inert when disabled") {
    Telemetry.enabled = false
    Telemetry.reset()
    Telemetry.load(100); Telemetry.store(100)
    assert(Telemetry.bytesLoaded.sum == 0 && Telemetry.bytesStored.sum == 0)
  }

  test("Telemetry accumulates when enabled") {
    Telemetry.reset()
    Telemetry.enabled = true
    try {
      Telemetry.load(100); Telemetry.load(50); Telemetry.store(30)
      assert(Telemetry.bytesLoaded.sum == 150)
      assert(Telemetry.bytesStored.sum == 30)
    } finally {
      Telemetry.enabled = false
      Telemetry.reset()
    }
  }
}
