package repro.perfbench

import repro.StreamGen
import repro.StreamGen.Workload
import repro.bench.Harness

/** The arrivals of one workload, made from the seed alone.
  *
  * @param prefill arrivals that fill the windows before timing starts
  */
final case class Inputs(wl: Workload, w: Int, diff: Int, prefill: Int, selfJoin: Boolean) {
  def length: Int = wl.length

  /** Arrival index of each stream-local sequence number, for R and S
    * (one shared stream in a self-join).
    */
  lazy val arrivalOf: (Array[Int], Array[Int]) = {
    val r = Array.newBuilder[Int]; val s = Array.newBuilder[Int]
    var i = 0
    while (i < wl.length) { if (selfJoin || wl.fromR(i)) r += i else s += i; i += 1 }
    val ra = r.result()
    (ra, if (selfJoin) ra else s.result())
  }
}

object Inputs {
  /** Match rate sigma_s the band width is set for (paper Section 5). */
  val SigmaS = 2.0

  /** Two-way join of uniform keys over the paper's domain [0, 2^26):
    * the bench suites' steady-state input, a 2.2-window prefill then
    * `timed` arrivals.
    */
  def uniformTwoWay(w: Int, timed: Int, seed: Long): Inputs = {
    val b = Harness.steadyTwoWay(w, timed, SigmaS, seed = mix(seed, 1))
    Inputs(b.wl, w, b.diff, b.timedFrom, selfJoin = false)
  }

  /** Self-join over the three-phase shifting Gaussian of Fig. 13 with
    * r = 1.0: phase 1 is the 1.2-window prefill, the mean then drifts over
    * the first three quarters of the timed arrivals and holds for the last
    * quarter. `diff` is calibrated to sigma_s on the stream itself.
    */
  def shiftingSelf(w: Int, timed: Int, seed: Long): Inputs = {
    val prefill = (1.2 * w).toInt
    val shift   = timed / 4 * 3
    val keys = StreamGen.shiftingGaussian(prefill, shift, timed - shift, r = 1.0, seed = mix(seed, 3))
    Inputs(StreamGen.selfJoin(keys), w, Harness.calibrateDiff(keys, w, SigmaS), prefill, selfJoin = true)
  }

  /** Small two-way or self-join stream over the full Int domain, keys in
    * [-1000, 1000): the differential probe of the band clamp.
    */
  def fullDomain(selfJoin: Boolean, seed: Long): Inputs = {
    val n   = 4000
    val rnd = new scala.util.Random(mix(seed, 4))
    val keys = Array.fill(n)(rnd.nextInt(2000) - 1000)
    val wl =
      if (selfJoin) StreamGen.selfJoin(keys)
      else StreamGen.twoWay(keys.take(n / 2), keys.drop(n / 2))
    Inputs(wl, 256, 20, 0, selfJoin)
  }

  /** Independent generator seeds per stream from one run seed. */
  private def mix(seed: Long, stream: Int): Long = seed * 1000003L + stream * 7919L
}
