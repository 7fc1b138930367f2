package repro.perfbench

import java.nio.file.{Files, Path}

import scala.collection.mutable

import repro.core.LongVec
import repro.index.{PIMTree, WindowIndex}

/** Spans kept in memory during a traced run and written out when the
  * benchmark ends. A span has a name, a start and an end (System.nanoTime)
  * and the id of the span that caused it (-1 for none).
  *
  * Once all but `Reserved` of `capacity` are stored, further recorded
  * spans must be leaves; they are kept only as totals, and their time is
  * charged to their parent so self times stay exact. Opened spans may use
  * the reserve.
  */
final class SpanLog(capacity: Int = 1 << 20) {
  private val MaxNames = 64
  private val Reserved = math.min(4096, capacity / 2)
  private val names    = mutable.ArrayBuffer.empty[String]
  private val nameIds  = mutable.HashMap.empty[String, Int]
  private val nameOf   = new Array[Int](capacity)
  private val parentOf = new Array[Int](capacity)
  private val startOf  = new Array[Long](capacity)
  private val endOf    = new Array[Long](capacity)
  private var stored   = 0
  /** time of dropped children, by parent id; count and time of dropped spans, by name id */
  private val droppedCovered = new Array[Long](capacity)
  private val droppedCount   = new Array[Long](MaxNames)
  private val droppedNs      = new Array[Long](MaxNames)

  /** Id of a span name, for [[record]] on hot paths. */
  def nameId(name: String): Int = synchronized(nameIds.getOrElseUpdate(name, {
    require(names.length < MaxNames, "too many span names")
    names += name
    names.length - 1
  }))

  /** Open a span now; close it with [[end]]. Returns its id. */
  def begin(name: String, parent: Int): Int = synchronized {
    require(stored < capacity, "span log full")
    val id = stored
    nameOf(id) = nameId(name); parentOf(id) = parent
    startOf(id) = System.nanoTime(); endOf(id) = -1
    stored += 1
    id
  }

  def end(id: Int): Unit = synchronized { endOf(id) = System.nanoTime() }

  /** Record a finished span. Returns its id, or -1 when it was kept as a
    * total only.
    */
  def record(name: String, parent: Int, start: Long, end: Long): Int =
    record(nameId(name), parent, start, end)

  def record(name: Int, parent: Int, start: Long, end: Long): Int = synchronized {
    if (stored < capacity - Reserved) {
      val id = stored
      nameOf(id) = name; parentOf(id) = parent
      startOf(id) = start; endOf(id) = end
      stored += 1
      id
    } else {
      if (parent >= 0) droppedCovered(parent) += end - start
      droppedCount(name) += 1
      droppedNs(name) += end - start
      -1
    }
  }

  /** Per span name: (count, total ns, self ns). Self time is a span's
    * duration minus the part of it that its child spans cover.
    */
  def summary: Map[String, (Long, Long, Long)] = synchronized {
    val children = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
    var i = 0
    while (i < stored) {
      if (parentOf(i) >= 0 && endOf(i) >= 0)
        children.getOrElseUpdate(parentOf(i), mutable.ArrayBuffer.empty) += i
      i += 1
    }
    val acc = mutable.HashMap.empty[String, (Long, Long, Long)].withDefaultValue((0L, 0L, 0L))
    i = 0
    while (i < stored) {
      if (endOf(i) >= 0) {
        val dur     = endOf(i) - startOf(i)
        val covered = coveredBy(i, children.getOrElse(i, mutable.ArrayBuffer.empty)) + droppedCovered(i)
        val (c, t, s) = acc(names(nameOf(i)))
        acc(names(nameOf(i))) = (c + 1, t + dur, s + math.max(0L, dur - covered))
      }
      i += 1
    }
    for (id <- names.indices if droppedCount(id) > 0) {
      val (c0, t0, s0) = acc(names(id))
      acc(names(id)) = (c0 + droppedCount(id), t0 + droppedNs(id), s0 + droppedNs(id))
    }
    acc.toMap
  }

  /** Length of the union of the children's intervals, clipped to the parent. */
  private def coveredBy(parent: Int, kids: mutable.ArrayBuffer[Int]): Long = {
    val lo = startOf(parent); val hi = endOf(parent)
    Stats.unionLength(kids.toSeq.map(k => (math.max(lo, startOf(k)), math.min(hi, endOf(k)))))
  }

  /** Write every stored span as CSV: id,parent,name,start_ns,end_ns. */
  def writeCsv(path: Path): Unit = synchronized {
    Files.createDirectories(path.getParent)
    val sb = new StringBuilder("id,parent,name,start_ns,end_ns\n")
    var i = 0
    while (i < stored) {
      sb.append(i).append(',').append(parentOf(i)).append(',').append(names(nameOf(i)))
        .append(',').append(startOf(i)).append(',').append(endOf(i)).append('\n')
      i += 1
    }
    Files.writeString(path, sb)
  }
}

/** What the calls into one or two [[TimedIndex]] wrappers added up to.
  * Every call time has the timer's own cost taken off.
  */
final class IndexCalls {
  private val timerNs = IndexCalls.TimerNs
  /** A call's time from its two readings of System.nanoTime. */
  def callNs(t0: Long, t1: Long): Long = math.max(0L, t1 - t0 - timerNs)

  val insertNs = new NsHistogram
  val probeNs  = new NsHistogram
  var otherNs: Long   = 0 // expire and maintain calls without a merge
  var candidates: Long = 0
  var merges: Long     = 0
  var mergeNs: Long    = 0
  var mergeElems: Long = 0

  def totalNs: Long = insertNs.sumNanos + probeNs.sumNanos + otherNs + mergeNs

  /** Index time of the timed arrivals only: the run calls [[timedStart]]
    * when it reaches its first timed arrival and [[timedEnd]] when it
    * returns.
    */
  var timedNs: Long   = 0
  private var markNs  = -1L
  def timedStart(): Unit = markNs = totalNs
  def timedEnd(): Unit   = if (markNs >= 0) { timedNs += totalNs - markNs; markNs = -1 }
}

object IndexCalls {
  /** What two back-to-back readings of System.nanoTime differ by, in ns:
    * the part of every timed interval that is the timer's, not the call's.
    * The median of several rounds, measured once per process.
    */
  lazy val TimerNs: Long = {
    val rounds = (1 to 7).map { _ =>
      val n = 200000
      var acc = 0L
      var i = 0
      while (i < n) { val t0 = System.nanoTime(); acc += System.nanoTime() - t0; i += 1 }
      acc.toDouble / n
    }
    math.round(Stats.median(rounds))
  }
}

/** A [[WindowIndex]] that times every call into the index it wraps,
  * counts probe candidates, and records each call as a span under
  * `parent`. It passes every call and result through unchanged.
  */
final class TimedIndex(val inner: WindowIndex, calls: IndexCalls, log: SpanLog) extends WindowIndex {
  /** span id of the join call the index calls belong to */
  var parent: Int = -1

  private val Seq(insertSpan, probeSpan, expireSpan, mergeSpan, maintainSpan) =
    Seq("index.insert", "index.probe", "index.expire", "index.merge", "index.maintain").map(log.nameId)

  override def name: String = inner.name
  override def size: Int = inner.size
  override def memoryBytes: Long = inner.memoryBytes

  override def insert(key: Int, ref: Int): Unit = {
    val t0 = System.nanoTime()
    inner.insert(key, ref)
    val t1 = System.nanoTime()
    calls.insertNs.add(calls.callNs(t0, t1))
    log.record(insertSpan, parent, t0, t1)
  }

  override def rangeSearch(lo: Int, hi: Int, out: LongVec): Unit = {
    val before = out.size
    val t0 = System.nanoTime()
    inner.rangeSearch(lo, hi, out)
    val t1 = System.nanoTime()
    calls.probeNs.add(calls.callNs(t0, t1))
    calls.candidates += out.size - before
    log.record(probeSpan, parent, t0, t1)
  }

  override def expire(key: Int, ref: Int): Unit = {
    val t0 = System.nanoTime()
    inner.expire(key, ref)
    val t1 = System.nanoTime()
    calls.otherNs += calls.callNs(t0, t1)
    log.record(expireSpan, parent, t0, t1)
  }

  override def maintain(validFrom: Int): Unit = {
    val merging = inner match {
      case p: PIMTree if p.needsMerge => p.currentState.ts.size + p.tiSize
      case _                          => -1
    }
    val t0 = System.nanoTime()
    inner.maintain(validFrom)
    val t1 = System.nanoTime()
    if (merging >= 0) {
      calls.merges += 1; calls.mergeNs += calls.callNs(t0, t1); calls.mergeElems += merging
      log.record(mergeSpan, parent, t0, t1)
    } else {
      calls.otherNs += calls.callNs(t0, t1)
      log.record(maintainSpan, parent, t0, t1)
    }
  }
}
