package repro.kvstore

import org.scalatest.funsuite.AnyFunSuite
import repro.PropUtil
import repro.codecs.{DictTraining, ZstdDictCodec}
import repro.core.{PatternExtractor, PbcCodec}
import repro.data.MachineData
import java.nio.charset.StandardCharsets.UTF_8

class TierBaseLiteSpec extends AnyFunSuite with PropUtil {

  private lazy val records = MachineData.records("KV1", 500)
  private lazy val zstdCodec = new ValueCodec.OverBytes("Zstd", new ZstdDictCodec(
    DictTraining.zstdDict(records.take(200).map(_.getBytes(UTF_8)))))
  private lazy val pbcCodec = new ValueCodec.PbcF(
    new PbcCodec(PatternExtractor.train(records, PatternExtractor.Config(k = 8, withFsst = true))))

  private def codecs = Seq(ValueCodec.Uncompressed, zstdCodec, pbcCodec)

  for (c <- codecs) {
    test(s"${c.name}: set/get round-trips values") {
      val store = new TierBaseLite(c)
      records.take(100).zipWithIndex.foreach { case (v, i) => store.set(s"k$i", v) }
      records.take(100).zipWithIndex.foreach { case (v, i) =>
        assert(store.get(s"k$i").contains(v))
      }
    }
  }

  test("get of a missing key is None") {
    val store = new TierBaseLite(ValueCodec.Uncompressed)
    assert(store.get("nope").isEmpty)
  }

  test("overwriting a key replaces the value and fixes accounting") {
    val store = new TierBaseLite(ValueCodec.Uncompressed)
    store.set("k", "aaaa")
    val b1 = store.valueBytes
    store.set("k", "bb")
    assert(store.get("k").contains("bb"))
    assert(store.valueBytes == b1 - 2)
    assert(store.size == 1)
  }

  test("memory accounting: uncompressed valueBytes equals raw size") {
    val store = new TierBaseLite(ValueCodec.Uncompressed)
    records.take(50).zipWithIndex.foreach { case (v, i) => store.set(s"k$i", v) }
    assert(store.valueBytes == records.take(50).map(_.getBytes(UTF_8).length.toLong).sum)
  }

  test("memory accounting counts key bytes in UTF-8") {
    val store = new TierBaseLite(ValueCodec.Uncompressed)
    store.set("ключ", "v")
    assert(store.memoryBytes == 8 + 1 + store.perEntryOverhead)
  }

  test("compressed codecs use less value memory than uncompressed") {
    def bytesWith(c: ValueCodec): Long = {
      val s = new TierBaseLite(c)
      records.zipWithIndex.foreach { case (v, i) => s.set(s"k$i", v) }
      s.valueBytes
    }
    val raw = bytesWith(ValueCodec.Uncompressed)
    assert(bytesWith(zstdCodec) < raw)
    assert(bytesWith(pbcCodec) < raw)
  }

  test("PBC_F uses less memory than Zstd(dict) on this workload") {
    def bytesWith(c: ValueCodec): Long = {
      val s = new TierBaseLite(c)
      records.zipWithIndex.foreach { case (v, i) => s.set(s"k$i", v) }
      s.valueBytes
    }
    assert(bytesWith(pbcCodec) < bytesWith(zstdCodec))
  }

  test("memoryBytes includes keys and per-entry overhead") {
    val store = new TierBaseLite(ValueCodec.Uncompressed)
    store.set("key1", "v")
    assert(store.memoryBytes == 4 + 1 + store.perEntryOverhead)
  }
}
