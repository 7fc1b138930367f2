package repro.core

import java.util.concurrent.CountDownLatch

import org.scalatest.funsuite.AnyFunSuite

class SpinLockSpec extends AnyFunSuite {

  test("mutual exclusion: increments of a plain counter under the lock all count") {
    // more threads than cores, so holders are also descheduled mid-section
    val threads   = math.min(16, 2 * Runtime.getRuntime.availableProcessors)
    val perThread = 100000
    val lock      = new SpinLock
    val start     = new CountDownLatch(1)
    var counter   = 0L // a plain field, guarded only by the lock
    val workers = (0 until threads).map { _ =>
      val t = new Thread(() => {
        start.await()
        var i = 0
        while (i < perThread) {
          lock.lock()
          try counter += 1
          finally lock.unlock()
          i += 1
        }
      })
      t.start()
      t
    }
    start.countDown()
    workers.foreach(_.join())
    assert(counter == threads.toLong * perThread)
  }

  test("tryLock fails while the lock is held and succeeds once it is released") {
    val lock = new SpinLock
    assert(lock.tryLock())
    var other = true
    val t = new Thread(() => other = lock.tryLock())
    t.start()
    t.join()
    assert(!other)
    lock.unlock()
    assert(lock.tryLock())
    lock.unlock()
  }
}
