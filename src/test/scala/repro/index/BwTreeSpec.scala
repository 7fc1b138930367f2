package repro.index

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{Elem, LongVec}

class BwTreeSpec extends AnyFunSuite {

  private def collect(t: WindowIndex, lo: Int, hi: Int): Seq[(Int, Int)] = {
    val out = new LongVec()
    t.rangeSearch(lo, hi, out)
    (0 until out.size).map(i => (Elem.key(out(i)), Elem.ref(out(i))))
  }

  test("empty tree finds nothing") {
    val t = new BwTree(1 << 16, 64)
    assert(t.size == 0)
    assert(collect(t, 0, 1 << 16).isEmpty)
  }

  test("insert then search, within and across leaf ranges") {
    val t = new BwTree(1000, 256, targetLeafSize = 16)
    (0 until 100).foreach(i => t.insert(i * 10, i))
    assert(t.size == 100)
    assert(collect(t, 0, 1000).size == 100)
    assert(collect(t, 100, 200).map(_._1).forall(k => k >= 100 && k <= 200))
    assert(collect(t, 995, 999).isEmpty)
  }

  test("delta chains answer searches before consolidation") {
    val t = new BwTree(100, 64, targetLeafSize = 64, consolidateAt = 1000000)
    (0 until 50).foreach(i => t.insert(i, i))
    assert(collect(t, 0, 100).sorted == (0 until 50).map(i => (i, i)))
  }

  test("expire removes the matching entry") {
    val t = new BwTree(100, 64)
    (0 until 20).foreach(i => t.insert(5, i))
    t.expire(5, 10)
    assert(collect(t, 5, 5).map(_._2).sorted == (0 until 20).filterNot(_ == 10))
    assert(t.size == 19)
  }

  test("keys at both Int extremes insert, expire and range-search like a list") {
    val t    = new BwTree(1000, 64, targetLeafSize = 4, consolidateAt = 2)
    val keys = Seq(Int.MinValue, -1, Int.MaxValue, Int.MinValue, 0, 500, Int.MaxValue, -1, 999, 1000)
    val live = ArrayBuffer.empty[(Int, Int)]
    keys.zipWithIndex.foreach { case (k, i) => t.insert(k, i); live += ((k, i)) }
    for ((k, r) <- Seq((Int.MinValue, 0), (-1, 1), (Int.MaxValue, 6))) { t.expire(k, r); live -= ((k, r)) }
    assert(t.size == live.size)
    val bounds = Seq(Int.MinValue, Int.MinValue + 1, -2, -1, 0, 999, 1000, Int.MaxValue - 1, Int.MaxValue)
    for (lo <- bounds; hi <- bounds if lo <= hi) {
      val expected = live.filter { case (k, _) => k >= lo && k <= hi }.sorted.toSeq
      assert(collect(t, lo, hi).sorted == expected, s"[$lo, $hi]")
    }
  }

  for (leafSize <- Seq(4, 64); consolidateAt <- Seq(2, 8)) {
    test(s"random churn matches reference (leaf=$leafSize, consolidate=$consolidateAt)") {
      val rnd = new Random(leafSize * 10 + consolidateAt)
      val t   = new BwTree(2000, 256, leafSize, consolidateAt)
      val w   = 128
      val live = ArrayBuffer.empty[(Int, Int)]
      (0 until 3000).foreach { i =>
        val k = rnd.nextInt(2000)
        if (live.length == w) {
          val (ok, or) = live.remove(0)
          t.expire(ok, or)
        }
        t.insert(k, i)
        live += ((k, i))
        if (i % 71 == 0) {
          val a = rnd.nextInt(2000)
          val b = a + rnd.nextInt(400)
          val expected = live.filter { case (k2, _) => k2 >= a && k2 <= b }.sorted.toSeq
          assert(collect(t, a, b).sorted == expected)
        }
      }
      assert(t.size == w)
    }
  }

  test("concurrent inserts across threads are all retained") {
    val t = new BwTree(1 << 20, 1 << 14)
    val threads = 8
    val per     = 10000
    val ts = (0 until threads).map { tid =>
      val th = new Thread(() => {
        val r = new Random(tid)
        (0 until per).foreach(j => t.insert(r.nextInt(1 << 20), tid * per + j))
      })
      th.start(); th
    }
    ts.foreach(_.join())
    assert(t.size == threads * per)
    assert(collect(t, 0, 1 << 20).size == threads * per)
  }

  test("concurrent insert + expire churn keeps exact window size") {
    val t = new BwTree(1 << 16, 1 << 12)
    val threads = 4
    val per     = 20000
    // each thread owns a disjoint ref range and expires its own inserts
    // with a lag, so the final content is exactly the last `lag` per thread
    val lag = 500
    val ts = (0 until threads).map { tid =>
      val th = new Thread(() => {
        val r = new Random(tid)
        val keys = new Array[Int](per)
        (0 until per).foreach { j =>
          val k = r.nextInt(1 << 16)
          keys(j) = k
          t.insert(k, tid * per + j)
          if (j >= lag) t.expire(keys(j - lag), tid * per + j - lag)
        }
      })
      th.start(); th
    }
    ts.foreach(_.join())
    assert(t.size == threads * lag)
  }

  test("concurrent readers during writes see consistent snapshots") {
    val t = new BwTree(1 << 16, 1 << 12)
    val stop = new java.util.concurrent.atomic.AtomicBoolean(false)
    val bad  = new java.util.concurrent.atomic.AtomicInteger(0)
    val readers = (0 until 4).map { tid =>
      val th = new Thread(() => {
        val r   = new Random(tid)
        val out = new LongVec()
        while (!stop.get) {
          out.clear()
          val a = r.nextInt(1 << 16)
          t.rangeSearch(a, a + 100, out)
          var i = 0
          while (i < out.size) {
            val k = Elem.key(out(i))
            if (k < a || k > a + 100) bad.incrementAndGet()
            i += 1
          }
        }
      })
      th.start(); th
    }
    val writer = new Thread(() => {
      val r = new Random(99)
      (0 until 100000).foreach(j => t.insert(r.nextInt(1 << 16), j))
    })
    writer.start(); writer.join()
    stop.set(true)
    readers.foreach(_.join())
    assert(bad.get == 0)
    assert(t.size == 100000)
  }
}
