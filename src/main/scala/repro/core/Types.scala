package repro.core

/** Element packing and small primitive collections shared by all index
  * structures.
  *
  * A window element is a pair (key, ref) of 32-bit ints — the paper uses
  * 4-byte keys and 4-byte sliding-window references (Fig. 11a). We pack the
  * pair into one Long with the key in the high 32 bits so that sorting an
  * `Array[Long]` orders elements by key, then by ref. Any `Int` key orders
  * correctly; refs must be non-negative (they are stream seqs).
  */
object Elem {
  /** Pack (key, ref) into a single sortable Long. */
  @inline def pack(key: Int, ref: Int): Long = (key.toLong << 32) | (ref & 0xffffffffL)

  /** Key component of a packed element. */
  @inline def key(e: Long): Int = (e >>> 32).toInt

  /** Sliding-window reference component of a packed element. */
  @inline def ref(e: Long): Int = e.toInt
}

/** Growable primitive Int buffer — avoids boxing on the join hot path. */
final class IntVec(initialCapacity: Int = 16) {
  private var arr = new Array[Int](math.max(4, initialCapacity))
  private var n   = 0

  @inline def size: Int = n
  @inline def isEmpty: Boolean = n == 0

  @inline def apply(i: Int): Int = arr(i)

  def add(v: Int): Unit = {
    if (n == arr.length) {
      val grown = new Array[Int](arr.length * 2)
      System.arraycopy(arr, 0, grown, 0, n)
      arr = grown
    }
    arr(n) = v
    n += 1
  }

  def clear(): Unit = n = 0

  def toArray: Array[Int] = java.util.Arrays.copyOf(arr, n)

  def foreach(f: Int => Unit): Unit = {
    var i = 0
    while (i < n) { f(arr(i)); i += 1 }
  }
}

/** Growable primitive Long buffer (packed elements). */
final class LongVec(initialCapacity: Int = 16) {
  private var arr = new Array[Long](math.max(4, initialCapacity))
  private var n   = 0

  @inline def size: Int = n
  @inline def apply(i: Int): Long = arr(i)

  def add(v: Long): Unit = {
    if (n == arr.length) {
      val grown = new Array[Long](arr.length * 2)
      System.arraycopy(arr, 0, grown, 0, n)
      arr = grown
    }
    arr(n) = v
    n += 1
  }

  def clear(): Unit = n = 0
  def toArray: Array[Long] = java.util.Arrays.copyOf(arr, n)
}

/** Coarse software traffic accounting — the stand-in for the paper's
  * hardware memory-bandwidth counters (Fig. 11d). Index structures call the
  * record methods on their logical loads/stores; the bench reads the
  * aggregate split. Disabled (and near-free) by default.
  */
object Telemetry {
  @volatile var enabled: Boolean = false

  val bytesLoaded  = new java.util.concurrent.atomic.LongAdder
  val bytesStored  = new java.util.concurrent.atomic.LongAdder

  @inline def load(bytes: Long): Unit  = if (enabled) bytesLoaded.add(bytes)
  @inline def store(bytes: Long): Unit = if (enabled) bytesStored.add(bytes)

  def reset(): Unit = { bytesLoaded.reset(); bytesStored.reset() }
}
