package repro.tables

import java.nio.charset.StandardCharsets.UTF_8
import org.scalatest.funsuite.AnyFunSuite
import repro.codecs.{LzmaCodec, ZstdCodec}
import repro.core.{PatternExtractor, PbcCodec}
import repro.data.MachineData
import repro.jsonbin.{BinPackD, IonB, MiniJson}
import repro.kvstore.ValueCodec

class FramedSpec extends AnyFunSuite {

  private def roundTrips(codec: Framed, blob: String): Unit = {
    val bytes = blob.getBytes(UTF_8)
    assert(new String(codec.decompress(codec.compress(bytes)), UTF_8) == blob)
  }

  test("PBC + Zstd round-trips a blob with empty lines and a trailing newline") {
    val records = MachineData.records("HDFS", 300)
    val pbc = new ValueCodec.PbcF(new PbcCodec(
      PatternExtractor.train(records, PatternExtractor.Config(k = 8, sampleSize = 60))))
    val codec = new Framed("PBC_Z", pbc, new ZstdCodec(3))
    roundTrips(codec, records.take(100).mkString("\n") + "\n\n" + records.drop(100).mkString("\n") + "\n")
    roundTrips(codec, "\n")
    roundTrips(codec, "")
  }

  private lazy val cities = MachineData.records("cities", 200)
  private lazy val parsed = cities.take(100).map(MiniJson.parse)

  for ((name, codec) <- Seq(
      "BP-D + LZMA" -> (() => new Framed("BP-D+LZMA", new Tables.BpdRecord(BinPackD.inferSchema(parsed)), new LzmaCodec(6))),
      "Ion-B + LZMA" -> (() => new Framed("Ion-B+LZMA", new Tables.IonRecord(IonB.fileMode(parsed)), new LzmaCodec(6)))))
    test(s"$name round-trips JSON records through the framed stream") {
      val c = codec()
      roundTrips(c, cities.mkString("\n"))
      // empty records: an empty line and a trailing newline
      roundTrips(c, cities.take(100).mkString("\n") + "\n\n" + cities.drop(100).mkString("\n") + "\n")
      roundTrips(c, "\n")
      roundTrips(c, "")
    }
}
