package repro.perfbench

import java.lang.management.ManagementFactory

import scala.jdk.CollectionConverters._

/** Process-wide readings from the JVM's management beans. */
object JvmStats {
  private val runtime = ManagementFactory.getRuntimeMXBean
  private val os      = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs     = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  // JVM uptime has millisecond resolution; nanoTime from main() on refines it
  private val mainNs     = System.nanoTime()
  private val uptimeAtMs = runtime.getUptime

  /** Seconds since the JVM started. */
  def uptimeS: Double = uptimeAtMs / 1e3 + (System.nanoTime() - mainNs) / 1e9

  final case class Sample(cpuNs: Long, allocBytes: Long, gcMs: Long, gcCount: Long) {
    def -(o: Sample): Sample = Sample(cpuNs - o.cpuNs, allocBytes - o.allocBytes, gcMs - o.gcMs, gcCount - o.gcCount)
    def +(o: Sample): Sample = Sample(cpuNs + o.cpuNs, allocBytes + o.allocBytes, gcMs + o.gcMs, gcCount + o.gcCount)
  }
  val Zero: Sample = Sample(0, 0, 0, 0)

  /** Process CPU, bytes allocated by all threads (ended ones included),
    * and collector time and count.
    */
  def sample(): Sample = Sample(
    os.getProcessCpuTime,
    threads.getTotalThreadAllocatedBytes,
    gcs.map(_.getCollectionTime).sum,
    gcs.map(_.getCollectionCount).sum,
  )

  /** Used heap in MB after a forced full collection. */
  def retainedHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def maxHeapMb: Double = Runtime.getRuntime.maxMemory / (1024.0 * 1024.0)
}

/** What every result records about where it was measured. */
object Env {
  def nproc: Int = Runtime.getRuntime.availableProcessors

  def stamp(workload: String, seed: Long, seconds: Int, trace: Boolean,
            workerThreads: Int, sparkMaster: String): Seq[(String, String)] = Seq(
    "workload"       -> workload,
    "seed"           -> seed.toString,
    "seconds"        -> seconds.toString,
    "trace"          -> trace.toString,
    "worker_threads" -> workerThreads.toString,
    "nproc"          -> nproc.toString,
    "jvm"            -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
    "max_heap_mb"    -> f"${JvmStats.maxHeapMb}%.0f",
    "spark_version"  -> org.apache.spark.SPARK_VERSION,
    "spark_master"   -> sparkMaster,
    "revision"       -> sys.props.getOrElse("perfbench.revision", "unknown"),
  )
}
