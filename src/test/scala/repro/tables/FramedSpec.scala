package repro.tables

import java.nio.charset.StandardCharsets.UTF_8
import org.scalatest.funsuite.AnyFunSuite
import repro.codecs.{LzmaCodec, ZstdCodec}
import repro.core.{PatternExtractor, PbcCodec}
import repro.data.MachineData
import repro.jsonbin.{BinPackD, MiniJson}
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

  test("BP-D + LZMA round-trips JSON records through the framed stream") {
    val records = MachineData.records("cities", 200)
    val schema = BinPackD.inferSchema(records.take(100).map(MiniJson.parse))
    val codec = new Framed("BP-D+LZMA", new Tables.BpdRecord(schema), new LzmaCodec(6))
    roundTrips(codec, records.mkString("\n"))
  }
}
