package repro.tables

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import repro.core.{PbcCodec, VarInt}
import repro.data.MachineData

/** A readable account of each benchmark dataset's dictionary: its PBC and
  * PBC_F compressed bytes, its outlier count and, per pattern in dispatch
  * order, the records it wins, its encoders and its glob.
  *
  * `DictionaryReportSpec` compares it with the committed [[File]], so any
  * change to a dictionary or a ratio shows up as a diff of that file.
  * After an intended change, rewrite the file with
  * {{{
  *   sbt "Test/runMain repro.tables.DictionaryReport"
  * }}}
  * and commit the diff with the change.
  */
object DictionaryReport {

  /** The committed report, relative to the repository root. */
  val File = "src/test/resources/dictionary-report.txt"

  /** The report section of `name`, one line per entry, `\n`-terminated. */
  def section(name: String): String = {
    val records = Dictionaries.records(name)
    val raw = Dictionaries.rawBytes(name)
    val pbc = new PbcCodec(Dictionaries.pbc(name, withFsst = false))
    val pbcF = new PbcCodec(Dictionaries.pbc(name, withFsst = true))
    val wins = new Array[Int](pbc.dict.size + 1) // slot 0: outliers
    var pbcBytes, pbcFBytes = 0L
    records.foreach { r =>
      val c = pbc.compress(r)
      pbcBytes += c.length
      pbcFBytes += pbcF.compress(r).length
      wins(VarInt.read(c, 0)._1.toInt) += 1
    }
    val b = new StringBuilder
    b ++= s"== $name: ${records.size} records, $raw raw bytes\n"
    b ++= f"PBC   $pbcBytes bytes, ratio ${pbcBytes.toDouble / raw}%.4f\n"
    b ++= f"PBC_F $pbcFBytes bytes, ratio ${pbcFBytes.toDouble / raw}%.4f\n"
    b ++= s"outliers ${wins(0)}\n"
    b ++= s"patterns ${pbc.dict.size}\n"
    pbc.dict.patterns.zipWithIndex.foreach { case (cp, i) =>
      b ++= s"  #$i wins ${wins(i + 1)} [${cp.encoders.map(_.tag).mkString(", ")}] ${oneLine(cp.pattern.glob)}\n"
    }
    b.result()
  }

  /** `s` on one line: line breaks written as `\n`/`\r`, lone surrogates
    * as in [[Bench.printable]].
    */
  private def oneLine(s: String): String =
    Bench.printable(s).replace("\n", "\\n").replace("\r", "\\r")

  /** Splits a report into its sections, keyed by dataset name. */
  def sections(report: String): Map[String, String] =
    report.split("(?m)^(?=== )").filter(_.nonEmpty)
      .map(s => s.stripPrefix("== ").takeWhile(_ != ':') -> s).toMap

  def main(args: Array[String]): Unit = {
    val report = MachineData.all.map(section).mkString
    Files.write(Paths.get(File), report.getBytes(UTF_8))
    println(s"wrote $File (${MachineData.all.size} datasets)")
  }
}
