package repro.stream

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.StreamGen.Workload
import repro.core.Arrivals

/** DataFrame-level band joins (Catalyst) and the workload → DataFrame
  * bridge used by the DuckDB oracle checks.
  *
  * The paper's query is `SELECT * FROM R, S WHERE ABS(R.x - S.x) <= diff`
  * evaluated continuously over sliding windows. [[bandJoin]] is the plain
  * relational form; [[windowedBandJoin]] adds the count-based window
  * semantics (Section 2.1): r matches s iff s was one of the last w_S
  * S-arrivals when r arrived, or vice versa.
  */
object SparkBandJoin {

  /** Plain band join of r(rid, rx) and s(sid, sx): pairs within `diff`. */
  def bandJoin(r: DataFrame, s: DataFrame, diff: Int): DataFrame =
    r.join(s, abs(col("rx") - col("sx")) <= diff).select(col("rid"), col("sid"))

  /** The SQL text of [[windowedBandJoin]] — run verbatim on DuckDB by the
    * oracle tests so both engines evaluate the same query.
    */
  def windowedBandJoinSql(wR: Int, wS: Int, diff: Int): String =
    s"""SELECT r.rid AS rid, s.sid AS sid
       |FROM r JOIN s
       |  ON ABS(CAST(r.rx AS BIGINT) - CAST(s.sx AS BIGINT)) <= $diff
       | AND ((CAST(s.sgseq AS BIGINT) < CAST(r.rgseq AS BIGINT)
       |        AND CAST(s.sid AS BIGINT) >  CAST(r.rh AS BIGINT) - $wS
       |        AND CAST(s.sid AS BIGINT) <= CAST(r.rh AS BIGINT))
       |   OR (CAST(r.rgseq AS BIGINT) < CAST(s.sgseq AS BIGINT)
       |        AND CAST(r.rid AS BIGINT) >  CAST(s.sh AS BIGINT) - $wR
       |        AND CAST(r.rid AS BIGINT) <= CAST(s.sh AS BIGINT)))""".stripMargin

  /** Sliding-window band join with count-based semantics, expressed in
    * Spark SQL over the arrival-annotated relations of [[toDataFrames]].
    */
  def windowedBandJoin(spark: SparkSession, r: DataFrame, s: DataFrame,
                       wR: Int, wS: Int, diff: Int): DataFrame = {
    r.createOrReplaceTempView("r")
    s.createOrReplaceTempView("s")
    spark.sql(windowedBandJoinSql(wR, wS, diff))
  }

  /** Split a workload into arrival-annotated relations:
    * r(rid = stream seq, rx, rgseq = global arrival, rh = latest S seq at
    * arrival) and symmetrically s(sid, sx, sgseq, sh).
    */
  def toDataFrames(spark: SparkSession, workload: Workload): (DataFrame, DataFrame) = {
    import spark.implicits._
    val c      = new Arrivals.Cursor(workload, selfJoin = false)
    val rows   = (0 until workload.length).map { i => c.next(i); (c.isR, (c.seq, workload.keys(i), i, c.oppHead)) }
    val (r, s) = rows.partition(_._1)
    (r.map(_._2).toDF("rid", "rx", "rgseq", "rh"), s.map(_._2).toDF("sid", "sx", "sgseq", "sh"))
  }
}
