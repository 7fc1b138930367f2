package repro.core

import java.util.concurrent.atomic.AtomicIntegerArray

/** Int words that each have 128 bytes of memory to themselves: a cache
  * line, and the neighbour that adjacent-line prefetchers fetch with it.
  * A word that one thread writes often then costs no cache miss to the
  * threads reading the fields next to it (false sharing). Word i of
  * `Padded.ints(n)` is at slot `Padded.at(i)`; the array's header and
  * whatever the heap places around the array are 128 bytes away too.
  */
object Padded {
  /** Ints in 128 bytes. */
  final val Gap = 32

  def ints(n: Int): AtomicIntegerArray = new AtomicIntegerArray((n + 1) * Gap)

  @inline def at(i: Int): Int = (i + 1) * Gap
}
