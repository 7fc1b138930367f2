package repro.perfbench

/** How one run is to be made. */
final case class RunConfig(seed: Long, seconds: Int, trace: Boolean, outDir: java.nio.file.Path)

/** What one run found: the metrics it computed, how many join runs (or
  * Spark batches) it attempted and how many of them failed, and lines
  * for the human-readable summary.
  */
final case class Outcome(metrics: Map[String, Double], attempted: Int, failed: Int,
                         referenceOk: Boolean, notes: Seq[String])

trait Workload {
  def name: String
  /** Worker threads or Spark cores the workload uses. */
  def workerThreads: Int
  def sparkMaster: String = "none"
  def run(cfg: RunConfig, log: SpanLog): Outcome
}

object Workloads {
  /** Worker threads of the in-JVM joins: one per processor of a 4-core box. */
  val Threads = 4
  /** Spark cores. With the driver thread, a batch keeps about three
    * threads busy at once; local[4] oversubscribed 4 cores, ran no faster
    * on 2048-tuple batches and varied more from run to run.
    */
  val SparkCores = 2

  val all: Seq[Workload] = Seq(
    JoinBench.parUniform(Threads),
    JoinBench.parShiftSelf(Threads),
    new SparkBench(SparkCores),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
