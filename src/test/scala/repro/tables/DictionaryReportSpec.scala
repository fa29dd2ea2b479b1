package repro.tables

import java.nio.charset.StandardCharsets.UTF_8
import org.scalatest.funsuite.AnyFunSuite
import repro.data.MachineData

/** Pins every benchmark dataset's dictionary and ratios to the committed
  * [[DictionaryReport]]: a change to either fails here until the report
  * is rewritten, so it is always visible as a diff.
  */
class DictionaryReportSpec extends AnyFunSuite {

  private lazy val pinned: Map[String, String] = {
    val in = getClass.getResourceAsStream("/dictionary-report.txt")
    assert(in != null, s"${DictionaryReport.File} is missing")
    try DictionaryReport.sections(new String(in.readAllBytes(), UTF_8)) finally in.close()
  }

  for (name <- MachineData.all) {
    test(s"$name dictionary and ratios match the committed report") {
      val now = DictionaryReport.section(name)
      val was = pinned.getOrElse(name, fail(s"no $name section in ${DictionaryReport.File}"))
      if (now != was) {
        val (a, b) = (was.linesIterator.toVector, now.linesIterator.toVector)
        val i = a.indices.find(i => i >= b.size || a(i) != b(i)).getOrElse(a.size)
        fail(s"$name differs from ${DictionaryReport.File} at line ${i + 1} of its section:\n" +
          s"  pinned: ${a.lift(i).getOrElse("<end>")}\n  now:    ${b.lift(i).getOrElse("<end>")}\n" +
          """rewrite it with sbt "Test/runMain repro.tables.DictionaryReport" if the change is intended""")
      }
    }
  }
}
