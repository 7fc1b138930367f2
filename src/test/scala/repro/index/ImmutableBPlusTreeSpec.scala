package repro.index

import scala.util.Random

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport
import repro.core.{Elem, LongVec}

class ImmutableBPlusTreeSpec extends AnyFunSuite with PropSupport {

  private def build(pairs: Seq[(Int, Int)], fanout: Int = 32, leaf: Int = 32) = {
    val arr = pairs.map { case (k, r) => Elem.pack(k, r) }.sorted.toArray
    ImmutableBPlusTree.build(arr, fanout, leaf)
  }

  private def collect(t: ImmutableBPlusTree, lo: Int, hi: Int): Seq[(Int, Int)] = {
    val out = new LongVec()
    t.rangeSearch(lo, hi, out)
    (0 until out.size).map(i => (Elem.key(out(i)), Elem.ref(out(i))))
  }

  test("empty tree") {
    val t = ImmutableBPlusTree.empty()
    assert(t.size == 0 && t.height == 0 && t.depth == 0)
    assert(collect(t, 0, Int.MaxValue).isEmpty)
    assert(t.lowerBound(5) == 0)
  }

  test("single element") {
    val t = build(Seq((10, 1)))
    assert(t.size == 1 && t.height == 1)
    assert(collect(t, 0, 20) == Seq((10, 1)))
    assert(collect(t, 11, 20).isEmpty)
  }

  for (fanout <- Seq(2, 4, 8, 32); leaf <- Seq(2, 8, 32); n <- Seq(1, 7, 64, 1000)) {
    test(s"build/search matches reference (fanout=$fanout, leaf=$leaf, n=$n)") {
      val rnd   = new Random(fanout * 31 + leaf * 7 + n)
      val pairs = (0 until n).map(i => (rnd.nextInt(300), i))
      val t     = build(pairs, fanout, leaf)
      assert(t.size == n)
      (0 until 25).foreach { _ =>
        val a = rnd.nextInt(320) - 10
        val b = a + rnd.nextInt(80)
        val expected = pairs.filter { case (k, _) => k >= a && k <= b }.sorted
        assert(collect(t, a, b).sorted == expected, s"range [$a,$b]")
      }
    }
  }

  test("lowerBound is the first index with key >= lo") {
    val pairs = Seq((5, 0), (5, 1), (10, 2), (20, 3), (20, 4), (30, 5))
    val t     = build(pairs, 2, 2)
    assert(t.lowerBound(0) == 0)
    assert(t.lowerBound(5) == 0)
    assert(t.lowerBound(6) == 2)
    assert(t.lowerBound(10) == 2)
    assert(t.lowerBound(11) == 3)
    assert(t.lowerBound(20) == 3)
    assert(t.lowerBound(25) == 5)
    assert(t.lowerBound(31) == 6)
  }

  test("duplicates straddling leaf nodes are all found") {
    val pairs = (0 until 100).map(i => (42, i)) ++ (0 until 50).map(i => (7, 1000 + i))
    val t     = build(pairs, 4, 4)
    assert(collect(t, 42, 42).size == 100)
    assert(collect(t, 7, 7).size == 50)
    assert(collect(t, 0, 100).size == 150)
  }

  test("height is smaller than a comparable classic B+-Tree's") {
    val n     = 100000
    val rnd   = new Random(9)
    val pairs = (0 until n).map(i => (rnd.nextInt(1 << 22), i))
    val imm   = build(pairs, 32, 32)
    val cls   = new BPlusTree(16)
    pairs.foreach { case (k, r) => cls.insert(k, r) }
    assert(imm.height < cls.height, s"imm=${imm.height} classic=${cls.height}")
  }

  test("nodesAtLevel / effectiveInsertionLevel geometry") {
    val pairs = (0 until 100000).map(i => (i, i))
    val t     = build(pairs, 32, 32)
    assert(t.depth >= 2)
    assert(t.nodesAtLevel(0) == 1)
    (1 until t.depth).foreach { lvl =>
      assert(t.nodesAtLevel(lvl) == t.levelCounts(lvl))
      assert(t.nodesAtLevel(lvl) > 1)
    }
    assert(t.effectiveInsertionLevel(100) == t.depth - 1)
    assert(t.effectiveInsertionLevel(0) == 0)
    assert(ImmutableBPlusTree.empty().effectiveInsertionLevel(3) == 0)
  }

  test("nodeIndexAtLevel routes keys consistently with subtreeUpperBound") {
    val rnd   = new Random(10)
    val pairs = (0 until 50000).map(i => (rnd.nextInt(1 << 20), i))
    val t     = build(pairs, 16, 16)
    val level = t.effectiveInsertionLevel(2)
    val nodes = t.nodesAtLevel(level)
    val bounds = Array.tabulate(nodes)(p => t.subtreeUpperBound(level, p))
    assert(bounds.last == Int.MaxValue)
    assert(bounds.toSeq == bounds.sorted.toSeq)
    (0 until 500).foreach { _ =>
      val k = rnd.nextInt(1 << 20)
      val p = t.nodeIndexAtLevel(k, level)
      assert(k <= bounds(p), s"key $k routed to partition $p with bound ${bounds(p)}")
      if (p > 0) assert(k > bounds(p - 1), s"key $k should not belong to partition ${p - 1}")
    }
  }

  test("subtree upper bounds partition the leaves exactly") {
    val pairs = (0 until 4096).map(i => (i * 3, i))
    val t     = build(pairs, 8, 8)
    val level = t.depth - 1
    val nodes = t.nodesAtLevel(level)
    var total = 0
    var prev  = -1
    (0 until nodes).foreach { p =>
      val ub    = t.subtreeUpperBound(level, p)
      val here  = pairs.count { case (k, _) => k > prev && (ub == Int.MaxValue || k <= ub) }
      prev = ub
      total += here
    }
    assert(total == pairs.size)
  }

  test("memoryBytes accounts for leaves and inner array") {
    val t = build((0 until 10000).map(i => (i, i)))
    assert(t.memoryBytes >= 10000L * 8)
  }

  test("property: lowerBound equals linear scan") {
    val gen = Gen.listOf(Gen.chooseNum(0, 100))
    checkProp(Prop.forAll(gen, Gen.chooseNum(-5, 110)) { (keys, lo) =>
      val pairs = keys.zipWithIndex
      val t     = build(pairs, 4, 4)
      val sortedKeys = keys.sorted
      val expected   = sortedKeys.indexWhere(_ >= lo) match {
        case -1 => keys.length
        case i  => i
      }
      t.lowerBound(lo) == expected
    })
  }

  test("property: rangeSearchAt is rangeSearch plus nodeIndexAtLevel in one walk") {
    val shape = for {
      keys   <- Gen.listOf(Gen.chooseNum(-50, 2000))
      fanout <- Gen.chooseNum(2, 8)
      leaf   <- Gen.chooseNum(1, 8)
      lo     <- Gen.chooseNum(-60, 2010)
      width  <- Gen.chooseNum(0, 300)
      lvl    <- Gen.chooseNum(0, 6)
    } yield (keys, fanout, leaf, lo, width, lvl)
    checkProp(Prop.forAll(shape) { case (keys, fanout, leaf, lo, width, lvl) =>
      val t     = build(keys.zipWithIndex, fanout, leaf)
      val level = lvl % math.max(1, t.depth)
      val got   = new LongVec()
      val want  = new LongVec()
      val p     = t.rangeSearchAt(lo, lo + width, level, got)
      t.rangeSearch(lo, lo + width, want)
      p == t.nodeIndexAtLevel(lo, level) && got.toArray.sameElements(want.toArray)
    }, minSuccessful = 300)
  }

  test("property: rangeSearch equals filtered reference for odd shapes") {
    val gen = Gen.chooseNum(0, 300)
    checkProp(Prop.forAll(Gen.listOf(gen), gen, Gen.chooseNum(0, 50)) { (keys, a, width) =>
      val pairs = keys.zipWithIndex
      val t     = build(pairs, 3, 5)
      val expected = pairs.filter { case (k, _) => k >= a && k <= a + width }.sorted
      collect(t, a, a + width).sorted == expected
    })
  }
}
