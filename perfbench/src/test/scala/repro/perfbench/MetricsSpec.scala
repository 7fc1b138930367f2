package repro.perfbench

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {
  // tests run in the benchmark's directory, one below the repository root
  private val declared = new ObjectMapper().readTree(Files.readString(Paths.get("..", "BENCHMARK.json")))

  private def section(key: String): Seq[(String, String)] =
    declared.get(key).elements.asScala.map(m => (m.get("name").asText, m.get("unit").asText)).toSeq

  test("printed metric names and units are those BENCHMARK.json declares") {
    assert(Metrics.EndToEnd.map(m => (m.name, m.unit)) == section("end_to_end"))
    assert(Metrics.PerLayer.map(m => (m.name, m.unit)) == section("per_layer"))
  }

  test("BENCHMARK.json names the benchmark's workloads") {
    val names = declared.get("workloads").elements.asScala.map(_.get("name").asText).toSeq
    assert(names == Workloads.all.map(_.name))
  }

  test("the result line carries exactly the declared metrics") {
    val values = Metrics.EndToEnd.map(_.name -> 1.5).toMap
    val line   = new ObjectMapper().readTree(Metrics.resultJson(true, 3, 0, Metrics.EndToEnd, values))
    assert(line.fieldNames.asScala.toSeq == Seq("correct", "attempted", "failed", "metrics"))
    assert(line.get("metrics").fieldNames.asScala.toSeq == Metrics.EndToEnd.map(_.name))
    assertThrows[IllegalArgumentException](Metrics.resultJson(true, 1, 0, Metrics.EndToEnd, values - "setup_s"))
  }
}
