package repro.perfbench

/** Order statistics for the benchmark's timing samples. */
object Stats {

  /** A tail percentile together with the sample it was read from. */
  final case class Tail(percentile: Double, value: Double, samples: Int)

  /** Middle value; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Nearest-rank percentile: the smallest sample with at least `p`
    * percent of the samples at or below it.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s    = xs.sorted
    val rank = math.ceil(p / 100 * s.length).toInt
    s(math.min(s.length, math.max(1, rank)) - 1)
  }

  /** Total length covered by a set of [start, end) intervals, overlaps
    * counted once; empty or inverted intervals cover nothing.
    */
  def unionLength(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L; var curS = 0L; var curE = Long.MinValue
    intervals.filter(i => i._1 < i._2).sortBy(_._1).foreach { case (s, e) =>
      if (s > curE) { if (curE > curS) total += curE - curS; curS = s; curE = e }
      else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total
  }

  /** Samples a reported tail percentile must have above it. */
  val Beyond = 10

  /** The highest percentile that still has at least [[Beyond]] samples
    * above it, with its value and the sample count; None when the sample
    * is too small to leave that many.
    */
  def tail(xs: Seq[Double]): Option[Tail] =
    if (xs.length <= Beyond) None
    else {
      val s    = xs.sorted
      val rank = s.length - Beyond
      Some(Tail(100.0 * rank / s.length, s(rank - 1), s.length))
    }
}

/** Latency histogram for per-call nanosecond timings: exact below 1024 ns,
  * then 128 buckets per power of two (under 1% relative error), so a run
  * of millions of calls keeps a fixed 62 KiB.
  */
final class NsHistogram {
  import NsHistogram._

  private val counts = new Array[Long](Buckets)
  private var n      = 0L
  private var total  = 0L

  def count: Long = n
  def sumNanos: Long = total
  def mean: Double = if (n == 0) 0 else total.toDouble / n

  def add(ns: Long): Unit = {
    val v = math.max(0L, ns)
    counts(bucketOf(v)) += 1
    n += 1
    total += v
  }

  /** Nearest-rank percentile, reported as the lower bound of its bucket. */
  def percentile(p: Double): Double = {
    if (n == 0) return 0
    val rank = math.max(1L, math.ceil(p / 100 * n).toLong)
    var seen = 0L
    var b    = 0
    while (b < Buckets) {
      seen += counts(b)
      if (seen >= rank) return lowerBound(b).toDouble
      b += 1
    }
    lowerBound(Buckets - 1).toDouble
  }
}

object NsHistogram {
  private val Exact   = 1024
  private val SubBits = 7
  private val Buckets = Exact + (63 - 10) * (1 << SubBits)

  private[perfbench] def bucketOf(v: Long): Int =
    if (v < Exact) v.toInt
    else {
      val e = 63 - java.lang.Long.numberOfLeadingZeros(v)
      Exact + (e - 10) * (1 << SubBits) + ((v >>> (e - SubBits)) & ((1 << SubBits) - 1)).toInt
    }

  private[perfbench] def lowerBound(b: Int): Long =
    if (b < Exact) b.toLong
    else {
      val e   = 10 + (b - Exact) / (1 << SubBits)
      val sub = (b - Exact) % (1 << SubBits)
      ((1L << SubBits) + sub) << (e - SubBits)
    }
}
