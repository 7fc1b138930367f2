package repro.bench

import java.io.ByteArrayOutputStream

import org.scalatest.funsuite.AnyFunSuite

import Harness._

/** Bench rows hold numbers; `printTable` alone formats them. These pin
  * the printed text of every unit at the precision its tables use, so
  * EXPERIMENTS.md stays comparable across changes.
  */
class HarnessSpec extends AnyFunSuite {

  private def printed(title: String, rows: Seq[Row]): Seq[String] = {
    val out = new ByteArrayOutputStream
    Console.withOut(out)(printTable(title, rows))
    out.toString.split("\n", -1).toSeq
  }

  test("printTable prints each unit at its column's precision") {
    val samples = Seq[(Cell, String)](
      Tps(1.456e6)       -> "1.46M/s",
      Tps(35600)         -> "36K/s",
      Tps(999400)        -> "999K/s",
      Ns(12.34)          -> "12.3ns",
      Us(3.26)           -> "3.3us",
      Ms(1.234)          -> "1.23ms",
      MB(12.96)          -> "13.0MB",
      Pct(45.0)          -> "45.0%",
      Ratio(1.987)       -> "1.99x",
      Times(3.14)        -> "3.1x",
      Count(42)          -> "42",
      Count(123456789.0) -> "123456789",
      Plain(0.6)         -> "0.6",
      Text("1 (no CC)")  -> "1 (no CC)",
    )
    val lines = printed("units", samples.map { case (c, _) => Vector("v" -> c) })
    assert(lines.slice(4, 4 + samples.size).map(_.trim) == samples.map(_._2))
  }

  test("printTable pads every column to its widest cell") {
    val rows = Seq(
      Vector("w" -> Text("2^16"), "B+-Tree" -> Tps(1.456e6)),
      Vector("w" -> Text("2^8"), "B+-Tree" -> Tps(35600)),
    )
    assert(printed("T", rows) == Seq(
      "", "== T ==",
      "w     B+-Tree",
      "----  -------",
      "2^16  1.46M/s",
      "2^8   36K/s  ",
      ""))
  }

  test("num returns the unrounded value that cell prints rounded") {
    val row = Vector("w" -> Text("2^16"), "t" -> Tps(1.456e6), "r" -> Ratio(1.987654))
    assert(num(row, "t") == 1.456e6)
    assert(cell(row, "t") == "1.46M/s")
    assert(num(row, "r") == 1.987654)
    assert(cell(row, "w") == "2^16")
  }

  test("a missing column or a text cell read as a number fails loudly") {
    val row = Vector("w" -> Text("2^16"), "t" -> Tps(1.0))
    assert(intercept[RuntimeException](cell(row, "nope")).getMessage.contains("no column 'nope'"))
    assert(intercept[RuntimeException](num(row, "nope")).getMessage.contains("no column 'nope'"))
    assert(intercept[RuntimeException](num(row, "w")).getMessage.contains("holds text"))
  }
}
