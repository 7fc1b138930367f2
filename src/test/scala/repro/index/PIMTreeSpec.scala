package repro.index

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.{AtomicBoolean, AtomicIntegerArray}

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport
import repro.core.{Elem, LongVec}

class PIMTreeSpec extends AnyFunSuite with PropSupport {

  private def collect(t: WindowIndex, lo: Int, hi: Int): Seq[(Int, Int)] = {
    val out = new LongVec()
    t.rangeSearch(lo, hi, out)
    (0 until out.size).map(i => (Elem.key(out(i)), Elem.ref(out(i))))
  }

  test("fresh PIM-Tree has a single partition and empty T_S") {
    val t = new PIMTree(2, 100)
    assert(t.currentState.numPartitions == 1)
    assert(t.size == 0 && t.tiSize == 0)
    assert(collect(t, 0, Int.MaxValue).isEmpty)
  }

  test("inserts land in T_I until the merge threshold") {
    val t = new PIMTree(2, 10)
    (0 until 9).foreach(i => t.insert(i * 10, i))
    assert(t.tiSize == 9 && !t.needsMerge)
    t.insert(90, 9)
    assert(t.needsMerge)
    t.maintain(0)
    assert(t.tiSize == 0)
    assert(t.currentState.ts.size == 10)
    assert(collect(t, 0, 1000).size == 10)
  }

  test("merge drops expired T_S entries; T_I carries over unfiltered") {
    val t = new PIMTree(1, 8)
    (0 until 8).foreach(i => t.insert(i, i))
    t.merge(0) // nothing expired
    assert(t.currentState.ts.size == 8)
    (8 until 16).foreach(i => t.insert(i, i))
    // paper semantics: the merge eliminates expired tuples *of T_S* only;
    // T_I entries (refs 8..15, two already expired) go in as-is and get
    // dropped at the *next* merge — searches filter by ref meanwhile
    t.merge(10)
    assert(t.currentState.ts.size == 8)
    assert(collect(t, 0, 100).map(_._2).sorted == (8 until 16))
    assert(collect(t, 0, 100).map(_._2).filter(_ >= 10).sorted == (10 until 16))
    t.merge(10) // second merge disposes the stragglers
    assert(t.currentState.ts.size == 6)
  }

  for (dI <- Seq(0, 1, 2, 3); n <- Seq(100, 5000)) {
    test(s"search equals reference across merges (dI=$dI, n=$n)") {
      val rnd = new Random(dI * 100 + n)
      val w   = 256
      val t   = new PIMTree(dI, 64)
      val live = ArrayBuffer.empty[(Int, Int)]
      (0 until n).foreach { i =>
        val k = rnd.nextInt(2000)
        t.insert(k, i)
        live += ((k, i))
        val validFrom = math.max(0, i + 1 - w)
        live.filterInPlace(_._2 >= validFrom)
        t.maintain(validFrom)
        if (i % 97 == 0) {
          val a = rnd.nextInt(2000)
          val b = a + rnd.nextInt(300)
          val got = collect(t, a, b).filter(_._2 >= validFrom).sorted
          val expected = live.filter { case (k2, _) => k2 >= a && k2 <= b }.sorted.toSeq
          assert(got == expected, s"range [$a,$b] at i=$i")
        }
      }
    }
  }

  test("partitions multiply after a merge at dI >= 1") {
    val rnd = new Random(5)
    val t   = new PIMTree(2, 1 << 14)
    (0 until (1 << 14)).foreach(i => t.insert(rnd.nextInt(1 << 24), i))
    assert(t.currentState.numPartitions == 1) // nothing merged yet
    t.merge(0)
    assert(t.currentState.numPartitions > 1, s"partitions=${t.currentState.numPartitions}")
    // routing agrees with the partition bounds
    val s = t.currentState
    (0 until 200).foreach { _ =>
      val k = rnd.nextInt(1 << 24)
      val p = s.ts.nodeIndexAtLevel(k, s.level)
      assert(k <= s.upper(p))
      if (p > 0) assert(k > s.upper(p - 1))
    }
  }

  test("IM-Tree factory has one partition regardless of size") {
    val rnd = new Random(6)
    val t   = PIMTree.imTree(1 << 12)
    (0 until (1 << 12)).foreach(i => t.insert(rnd.nextInt(1 << 20), i))
    t.merge(0)
    assert(t.currentState.numPartitions == 1)
    assert(t.name == "IM-Tree")
    (0 until (1 << 10)).foreach(i => t.insert(rnd.nextInt(1 << 20), 5000 + i))
    assert(collect(t, 0, 1 << 20).size == (1 << 12) + (1 << 10))
  }

  test("two-phase merge (build + install) equals one-shot merge") {
    val rnd = new Random(7)
    val t1  = new PIMTree(2, 1000)
    val t2  = new PIMTree(2, 1000)
    val entries = (0 until 1000).map(i => (rnd.nextInt(10000), i))
    entries.foreach { case (k, r) => t1.insert(k, r); t2.insert(k, r) }
    t1.merge(200)
    val st = t2.buildMergedState(200)
    t2.installState(st)
    assert(collect(t1, 0, 10000) == collect(t2, 0, 10000))
    assert(t1.currentState.numPartitions == t2.currentState.numPartitions)
  }

  test("searches during phase 1 of a nonblocking merge see the old state") {
    val rnd = new Random(8)
    val t   = new PIMTree(1, 500)
    (0 until 500).foreach(i => t.insert(rnd.nextInt(1000), i))
    t.merge(0) // move everything into T_S so expiry filtering applies
    val before = collect(t, 0, 1000)
    val st     = t.buildMergedState(100) // phase 1: old state untouched
    assert(collect(t, 0, 1000) == before)
    assert(before.size == 500)
    t.installState(st)
    assert(collect(t, 0, 1000).forall(_._2 >= 100))
    assert(collect(t, 0, 1000).size == 400)
  }

  test("concurrent inserts are all retained") {
    val t       = new PIMTree(2, Int.MaxValue)
    // pre-build T_S so there are several partitions to contend on
    val rnd = new Random(9)
    (0 until 20000).foreach(i => t.insert(rnd.nextInt(1 << 20), i))
    t.merge(0)
    val threads = 8
    val perThread = 5000
    val ts = (0 until threads).map { tid =>
      val th = new Thread(() => {
        val r = new Random(100 + tid)
        (0 until perThread).foreach { j =>
          t.insert(r.nextInt(1 << 20), 100000 + tid * perThread + j)
        }
      })
      th.start(); th
    }
    ts.foreach(_.join())
    assert(t.tiSize == threads * perThread)
    val all = collect(t, 0, 1 << 20)
    assert(all.size == 20000 + threads * perThread)
    assert(all.count(_._2 >= 100000) == threads * perThread)
  }

  test("concurrent readers and writers do not lose entries (smoke)") {
    val t = new PIMTree(2, Int.MaxValue)
    val rnd = new Random(11)
    (0 until 10000).foreach(i => t.insert(rnd.nextInt(1 << 16), i))
    t.merge(0)
    val stop = new java.util.concurrent.atomic.AtomicBoolean(false)
    val readers = (0 until 4).map { tid =>
      val th = new Thread(() => {
        val r   = new Random(tid)
        val out = new LongVec()
        while (!stop.get) {
          out.clear()
          val a = r.nextInt(1 << 16)
          t.rangeSearch(a, a + 500, out)
        }
      })
      th.start(); th
    }
    val writers = (0 until 4).map { tid =>
      val th = new Thread(() => {
        val r = new Random(50 + tid)
        (0 until 20000).foreach(j => t.insert(r.nextInt(1 << 16), 50000 + tid * 20000 + j))
      })
      th.start(); th
    }
    writers.foreach(_.join())
    stop.set(true)
    readers.foreach(_.join())
    assert(t.tiSize == 80000)
  }

  test("insert distribution tracking records per-partition counts") {
    val rnd = new Random(12)
    val t   = new PIMTree(2, 1 << 12)
    (0 until (1 << 12)).foreach(i => t.insert(rnd.nextInt(1 << 20), i))
    t.merge(0)
    t.trackInsertDistribution(true)
    (0 until 5000).foreach(i => t.insert(rnd.nextInt(1 << 20), 10000 + i))
    val dist = t.insertDistribution
    assert(dist.sum == 5000)
    assert(dist.count(_ > 0) > 1, "uniform keys should hit several partitions")
    t.trackInsertDistribution(false)
    assert(t.insertDistribution.isEmpty)
  }

  test("memoryBytes includes both components plus merge buffer") {
    val t = new PIMTree(2, 1 << 10)
    val rnd = new Random(13)
    (0 until (1 << 10)).foreach(i => t.insert(rnd.nextInt(1 << 16), i))
    t.merge(0)
    val afterMerge = t.memoryBytes
    assert(afterMerge >= (1 << 10) * 8L)
    (0 until (1 << 10)).foreach(i => t.insert(rnd.nextInt(1 << 16), 2000 + i))
    assert(t.memoryBytes > afterMerge)
  }

  test("merge cost accounting increments") {
    val t = new PIMTree(1, 100)
    val rnd = new Random(14)
    (0 until 100).foreach(i => t.insert(rnd.nextInt(1000), i))
    t.maintain(0)
    assert(t.mergeCount == 1)
    assert(t.totalMergeNanos > 0)
  }

  test("insert distribution has a slot per partition, past 4096, and follows each install") {
    val t = new PIMTree(16, Int.MaxValue, ibFanout = 4, ibLeafSize = 2)
    t.trackInsertDistribution(true)
    (0 until 10).foreach(i => t.insert(i * 1000, i))
    assert(t.insertDistribution.toSeq == Seq(10L)) // one partition before the first merge
    (10 until (1 << 16)).foreach(i => t.insert(i * 1000, i))
    t.merge(0)
    val s     = t.currentState
    val parts = s.numPartitions
    assert(parts > 4096, s"partitions=$parts")
    // resized at install: the one shared partition keeps its count
    assert(t.insertDistribution.length == parts)
    assert(t.insertDistribution(0) == (1 << 16) && t.insertDistribution.drop(1).forall(_ == 0))
    // one more insert per partition, at its inclusive upper key
    (0 until parts).foreach(p => t.insert(s.upper(p), (1 << 16) + p))
    val dist = t.insertDistribution
    assert(dist(0) == (1 << 16) + 1 && dist.drop(1).forall(_ == 1))
  }

  /** Writers insert planned elements while scanners search ranges that
    * cross many small partitions, so every scan hands locks over. A scan
    * must return every element whose insert finished before it began and
    * only elements whose insert had begun by its end. Three in four of the
    * writers' keys fall in one hot range of 64 keys, so the writers also
    * contend for one subindex's lock.
    */
  private def concurrentScansHold(seed: Long, writers: Int, scanners: Int): Prop = {
    val keySpace  = 1 << 16
    val base      = 2000
    val perWriter = 3000
    val rnd       = new Random(seed)
    // T_S holds refs [0, base); writer w inserts refs base + w·perWriter + j
    val hot   = rnd.nextInt(keySpace - 64)
    val keyOf = Array.tabulate(base + writers * perWriter) { r =>
      if (r >= base && rnd.nextInt(4) > 0) hot + rnd.nextInt(64) else rnd.nextInt(keySpace)
    }
    val t     = new PIMTree(3, Int.MaxValue, bFanout = 4, ibFanout = 4, ibLeafSize = 4)
    (0 until base).foreach(r => t.insert(keyOf(r), r))
    t.merge(0)
    val done     = new AtomicIntegerArray(writers) // inserts finished per writer
    val finished = new AtomicBoolean(false)
    val errors   = new ConcurrentLinkedQueue[String]
    /** Whether ref r's insert had finished (`by` = inserts finished per writer). */
    def inserted(r: Int, by: Int => Int): Boolean =
      r < base || (r < keyOf.length && (r - base) % perWriter < by((r - base) / perWriter))

    def scan(lo: Int, hi: Int): Unit = {
      val before = Array.tabulate(writers)(done.get)
      val out    = new LongVec()
      t.rangeSearch(lo, hi, out)
      // an insert in progress at the scan's end may show: allow one more per writer
      val after = Array.tabulate(writers)(w => done.get(w) + 1)
      val got   = (0 until out.size).map(i => (Elem.key(out(i)), Elem.ref(out(i))))
      val refs  = got.map(_._2).toSet
      got.find { case (k, r) => k < lo || k > hi || !inserted(r, after) || keyOf(r) != k }
        .foreach(e => errors.add(s"[$lo, $hi] returned $e, which was not inserted with that key"))
      if (refs.size != got.size) errors.add(s"[$lo, $hi] returned a duplicate")
      (0 until keyOf.length).find(r => inserted(r, before) && keyOf(r) >= lo && keyOf(r) <= hi && !refs(r))
        .foreach(r => errors.add(s"[$lo, $hi] missed ref $r, inserted before the scan began"))
    }

    /** A daemon thread whose exception is one more error. */
    def thread(body: => Unit): Thread = {
      val th = new Thread(() => try body catch { case e: Throwable => errors.add(s"a thread threw $e") })
      th.setDaemon(true)
      th
    }
    // a subindex corrupted by a broken lock can loop forever: fail instead
    val deadline = System.nanoTime() + 60L * 1000000000L
    def finish(threads: Seq[Thread]): Unit = threads.foreach { th =>
      th.join(math.max(1L, (deadline - System.nanoTime()) / 1000000L))
      if (th.isAlive) errors.add("a thread did not finish within 60 s")
    }
    val scanning = (0 until scanners).map { k =>
      thread {
        val r = new Random(seed + 100 + k)
        while (!finished.get) {
          val lo = r.nextInt(keySpace)
          scan(lo, lo + r.nextInt(keySpace / 4))
        }
      }
    }
    val writing = (0 until writers).map { w =>
      thread {
        var j = 0
        while (j < perWriter) {
          val ref = base + w * perWriter + j
          t.insert(keyOf(ref), ref)
          j += 1
          done.set(w, j)
        }
      }
    }
    scanning.foreach(_.start())
    writing.foreach(_.start())
    finish(writing)
    finished.set(true)
    finish(scanning)
    if (errors.isEmpty) scan(0, Int.MaxValue) // the sequential model: everything, once
    (t.currentState.numPartitions >= 16) :| s"partitions=${t.currentState.numPartitions}" &&
      errors.isEmpty :| errors.peek &&
      (t.tiSize == writers * perWriter) :| s"tiSize=${t.tiSize}"
  }

  test("property: concurrent writers and scanners agree with the sequential model") {
    val cases = for {
      seed     <- Gen.choose(1L, 1L << 30)
      writers  <- Gen.choose(2, 4)
      scanners <- Gen.choose(1, 4)
    } yield (seed, writers, scanners)
    checkProp(Prop.forAll(cases) { case (seed, w, s) => concurrentScansHold(seed, w, s) }, minSuccessful = 20)
  }
}
