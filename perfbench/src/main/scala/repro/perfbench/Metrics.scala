package repro.perfbench

/** Every metric the benchmark reports, with its unit. BENCHMARK.json at
  * the repository root declares the same names; a test keeps them equal.
  */
object Metrics {
  final case class Metric(name: String, unit: String)

  /** Printed with tracing off. */
  val EndToEnd: Seq[Metric] = Seq(
    Metric("throughput_tps", "tuples/s"),
    Metric("batch_p50_ms", "ms"),
    Metric("batch_p90_ms", "ms"),
    Metric("retained_heap_mb", "MB"),
    Metric("setup_s", "s"),
  )

  /** Printed by the traced run. A metric of a layer part that the
    * workload does not run reads 0.
    */
  val PerLayer: Seq[Metric] = Seq(
    Metric("index.insert_ns_p50", "ns"),
    Metric("index.insert_ns_p99", "ns"),
    Metric("index.probe_ns_p50", "ns"),
    Metric("index.probe_ns_p99", "ns"),
    Metric("index.probe_candidates", "count"),
    Metric("index.probe_live_ratio", "fraction"),
    Metric("index.merges", "count"),
    Metric("index.merge_ms_mean", "ms"),
    Metric("index.merge_ns_per_elem", "ns"),
    Metric("index.subindexes", "count"),
    Metric("index.insert_skew", "x"),
    Metric("index.bytes", "B"),
    Metric("join.coord_ns_per_tuple", "ns"),
    Metric("join.results_per_tuple", "count"),
    Metric("join.task_latency_us_mean", "us"),
    Metric("join.emit_gap_ms_max", "ms"),
    Metric("join.emit_stall_ms", "ms"),
    Metric("stream.route_ns_per_tuple", "ns"),
    Metric("stream.replication", "x"),
    Metric("stream.joiner_ns_per_tuple", "ns"),
    Metric("stream.map_stage_ms", "ms"),
    Metric("stream.reduce_stage_ms", "ms"),
    Metric("stream.driver_ms", "ms"),
    Metric("stream.shuffle_bytes_per_tuple", "B"),
    Metric("stream.partition_skew", "x"),
    Metric("stream.tasks_per_batch", "count"),
    Metric("jvm.cpu_ns_per_tuple", "ns"),
    Metric("jvm.alloc_bytes_per_tuple", "B"),
    Metric("jvm.gc_ms", "ms"),
    Metric("jvm.gc_count", "count"),
    Metric("trace.overhead_frac", "fraction"),
    Metric("check.full_domain_lost_pairs", "count"),
  )

  /** Names of the per-layer metrics of one layer, such as "stream". */
  def layer(prefix: String): Seq[String] = PerLayer.map(_.name).filter(_.startsWith(prefix + "."))

  /** The last line of a run: exactly the declared metrics, in order. */
  def resultJson(correct: Boolean, attempted: Int, failed: Int,
                 declared: Seq[Metric], values: Map[String, Double]): String = {
    val missing = declared.map(_.name).filterNot(values.contains)
    require(missing.isEmpty, s"metrics not computed: ${missing.mkString(", ")}")
    val ms = declared.map { m =>
      val v = values(m.name)
      require(!v.isNaN && !v.isInfinite, s"metric ${m.name} is $v")
      s""""${m.name}": {"value": $v, "unit": "${m.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
