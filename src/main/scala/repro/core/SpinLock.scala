package repro.core

/** A test-and-test-and-set lock for the short critical sections of the
  * PIM-Tree subindexes (Section 3.3) and the parallel join's queue, edge
  * and propagation locks (Section 4.1). A waiter reads the lock
  * word until it looks free and only then tries to take it, so waiters
  * spin in their own caches instead of bouncing the line (Anderson, IEEE
  * TPDS 1990; Mellor-Crummey & Scott, ACM TOCS 1991). It waits by
  * [[SpinLock.pause]] and never parks: parking and waking a holder's
  * successor takes a scheduler round trip, longer than the sections it
  * guards. The word has a cache line of its own ([[Padded]]), so locks
  * allocated side by side do not slow each other. Not reentrant.
  */
final class SpinLock {
  private val word = Padded.ints(1)

  /** Takes the lock if it is free, without waiting. */
  @inline def tryLock(): Boolean = word.get(Padded.at(0)) == 0 && word.compareAndSet(Padded.at(0), 0, 1)

  def lock(): Unit =
    if (!tryLock()) {
      var round = 0
      while (!tryLock()) { SpinLock.pause(round); round += 1 }
    }

  /** A release store: what the holder wrote is seen by the next holder,
    * without the full fence of a volatile store.
    */
  @inline def unlock(): Unit = word.lazySet(Padded.at(0), 0)
}

object SpinLock {
  /** Busy-wait rounds before a waiting thread starts yielding its core,
    * so waiters do not starve busy threads when threads outnumber cores.
    */
  private val SpinRounds = 64

  /** The one wait policy of every lock and wait loop of the parallel join:
    * spin `SpinRounds` rounds, then yield the core each round.
    */
  @inline def pause(round: Int): Unit =
    if (round < SpinRounds) Thread.onSpinWait() else Thread.`yield`()
}
