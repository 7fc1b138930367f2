package repro.core

/** The paper's band predicate |r.x − s.x| <= diff (Section 2.1), exact over
  * the full `Int` key domain. Building one validates `diff`, so every
  * runner rejects a negative band at its entry.
  */
final case class Band(diff: Int) {
  require(diff >= 0, s"diff must be >= 0, got $diff")

  /** Lowest key in k's band, saturating at `Int.MinValue`. */
  @inline def lo(k: Int): Int = if (k >= Int.MinValue + diff) k - diff else Int.MinValue

  /** Highest key in k's band, saturating at `Int.MaxValue`. */
  @inline def hi(k: Int): Int = if (k <= Int.MaxValue - diff) k + diff else Int.MaxValue

  /** Whether keys a and b are within the band of each other. */
  @inline def matches(a: Int, b: Int): Boolean = math.abs(a.toLong - b) <= diff
}
