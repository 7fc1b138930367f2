package repro.perfbench

import java.nio.file.{Files, Paths}

/** The benchmark's JVM entry point; `perfbench/run.py` builds the
  * classpath and starts it.
  *
  * Usage: Main --workload NAME --seconds S [--seed N] [--trace 0|1] [--out DIR]
  *
  * Prints a human-readable summary, then, as its last line, one JSON
  * object with `correct`, `attempted`, `failed` and `metrics`: the
  * end-to-end metrics with `--trace 0`, the per-layer ones with
  * `--trace 1`. Spans of a traced run and every result go under `--out`.
  */
object Main {
  /** Seed used when none is given, and the second seed for re-checking a claim. */
  val DefaultSeed: Long = 1
  val RecheckSeed: Long = 2

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def fail(msg: String): Nothing = { System.err.println(s"perfbench: $msg"); sys.exit(2) }
    val known = Set("workload", "seed", "seconds", "trace", "out")
    if (args.length % 2 != 0 || !opts.keySet.subsetOf(known))
      fail(s"usage: --workload {${Workloads.all.map(_.name).mkString(",")}} --seconds S [--seed N] [--trace 0|1] [--out DIR]")
    val workload = opts.get("workload").flatMap(Workloads.byName)
      .getOrElse(fail(s"--workload must be one of ${Workloads.all.map(_.name).mkString(", ")}"))
    val seed = opts.get("seed").fold(DefaultSeed)(s => s.toLongOption.getOrElse(fail(s"--seed must be an integer, not $s")))
    val seconds = opts.get("seconds").fold(fail("--seconds is required"))(s =>
      s.toIntOption.filter(_ >= 1).getOrElse(fail(s"--seconds must be a whole number of at least 1, not $s")))
    val trace   = opts.get("trace") match {
      case None | Some("0") => false
      case Some("1")        => true
      case Some(other)      => fail(s"--trace must be 0 or 1, not $other")
    }
    val out = Paths.get(opts.getOrElse("out", ".bench_build/perfbench"))
    if (workload.workerThreads > Env.nproc)
      fail(s"${workload.name} needs ${workload.workerThreads} worker threads or Spark cores, " +
           s"but this machine has ${Env.nproc} processors")

    val env = Env.stamp(workload.name, seed, seconds, trace, workload.workerThreads, workload.sparkMaster)
    val log = new SpanLog(if (trace) 1 << 20 else 1)
    val o   = workload.run(RunConfig(seed, seconds, trace, out), log)

    val declared  = if (trace) Metrics.PerLayer else Metrics.EndToEnd
    val errorRate = o.failed.toDouble / o.attempted
    val lines = Seq.newBuilder[String]
    lines += env.map { case (k, v) => s"$k=$v" }.mkString("env: ", " ", "")
    o.notes.foreach(n => lines += s"note: $n")
    lines += f"error_rate: $errorRate%.4f fraction (${o.failed} failed of ${o.attempted} checked runs and batches)"
    declared.foreach(m => lines += f"${m.name}%-32s ${o.metrics(m.name)}%16.4f ${m.unit}")
    if (trace) {
      val spansFile = out.resolve(s"${workload.name}-seed$seed.spans.csv")
      log.writeCsv(spansFile)
      lines += s"spans: $spansFile (count, total ms, self ms per name)"
      log.summary.toSeq.sortBy(_._1).foreach { case (n, (c, t, s)) =>
        lines += f"  $n%-22s $c%10d ${t / 1e6}%12.1f ${s / 1e6}%12.1f"
      }
    }
    val json = Metrics.resultJson(o.referenceOk && o.failed == 0, o.attempted, o.failed, declared, o.metrics)
    val summary = lines.result()
    Files.createDirectories(out)
    Files.writeString(out.resolve(s"${workload.name}-seed$seed-trace${if (trace) 1 else 0}.txt"),
                      (summary :+ json).mkString("", "\n", "\n"))
    summary.foreach(println)
    println(json)
    System.out.flush()
    // ParallelIBWJ workers are daemon threads; nothing else is left running
    sys.exit(0)
  }
}
