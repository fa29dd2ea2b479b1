package perfbench

import java.nio.file.Path
import scala.util.Random
import repro.codecs.ZstdCodec
import repro.core.{Framing, PatternDictionary, PatternExtractor, PbcCodec}
import repro.data.MachineData

/** PBC_Z on HDFS logs (paper Table 4): fixed-size blocks of records go
  * through `PbcCodec.compress` (plain PBC), `Framing.pack` and
  * `ZstdCodec(3)`; every block is read back in full. A lookup reads one
  * random record, which takes the whole block's Zstd and framing work.
  * Zstd rather than LZMA keeps PBC's share of the time visible.
  */
final class LogArchive(seed: Long, tr: Trace, workDir: Path) extends Workload(seed, tr, workDir) {
  import Layers.BlockRecords
  private val Blocks = 200
  private val Records = BlockRecords * Blocks
  private val LookupsPerRound = 100

  override def warmupRounds: Int = 40

  private val zstd = new ZstdCodec(3)
  private var corpus: Vector[String] = _
  /** The corpus in the seed's order: block `b` holds records `b * BlockRecords` onwards. */
  private var records: Vector[String] = _
  private var dict: PatternDictionary = _
  private var codec: PbcCodec = _

  private var rawLen: Array[Int] = _
  private var expectedHeader: Array[Int] = _
  private var blockRaw: Array[Long] = _
  private var lookups: Array[Int] = _
  private var oracle0: Oracle = _
  private val blobs = new Array[Array[Byte]](Blocks)

  private val writeId = if (tr != null) tr.id("log.write_block") else -1
  private val readId = if (tr != null) tr.id("log.read_block") else -1
  private val lookupId = if (tr != null) tr.id("log.lookup") else -1
  private val compressId = if (tr != null) tr.id("core.compress") else -1
  private val decompressId = if (tr != null) tr.id("core.decompress") else -1
  private val packId = if (tr != null) tr.id("core.framing.pack") else -1
  private val unpackId = if (tr != null) tr.id("core.framing.unpack") else -1
  private val zcId = if (tr != null) tr.id("codecs.zstd.compress") else -1
  private val zdId = if (tr != null) tr.id("codecs.zstd.decompress") else -1

  override def setup(): Unit = {
    corpus = timedSetup(genS)(MachineData.records("HDFS", Records, Workload.CorpusSeed))
    dict = timedSetup(trainS)(PatternExtractor.train(corpus, Workload.trainConfig))
    codec = new PbcCodec(dict.copy(fsst = None))
  }

  override def prepare(): Unit = {
    val rnd = new Random(seed * 1000003L + 29L)
    records = rnd.shuffle(corpus)
    rawLen = records.map(Workload.utf8Len).toArray
    oracle0 = new Oracle(dict)
    expectedHeader = records.map(r => oracle0.dispatch(r)._1).toArray
    blockRaw = Array.tabulate(Blocks)(b => (0 until BlockRecords).map(j => rawLen(b * BlockRecords + j).toLong).sum)
    lookups = Array.fill(LookupsPerRound)(rnd.nextInt(Records))
  }

  private def span(id: Int): Int = if (tr != null) tr.begin(id) else -1
  private def end(s: Int): Unit = if (tr != null) tr.end(s)

  private def writeBlock(b: Int): Array[Array[Byte]] = {
    val out = new Array[Array[Byte]](BlockRecords)
    var j = 0
    while (j < BlockRecords) {
      val s = span(compressId)
      out(j) = codec.compress(records(b * BlockRecords + j))
      end(s)
      j += 1
    }
    out
  }

  private def unpackBlock(blob: Array[Byte]): Vector[Array[Byte]] = {
    var s = span(zdId)
    val packed = zstd.decompress(blob)
    end(s)
    s = span(unpackId)
    val recs = Framing.unpack(packed)
    end(s)
    recs
  }

  private def decompress(b: Array[Byte]): String = {
    val s = span(decompressId)
    val v = codec.decompress(b)
    end(s)
    v
  }

  override def round(): Unit = {
    var b = 0
    while (b < Blocks) {
      val blk = b
      attempt {
        val s = span(writeId)
        val t0 = System.nanoTime()
        val compressed = writeBlock(blk)
        var s2 = span(packId)
        val packed = Framing.pack(compressed.iterator)
        end(s2)
        s2 = span(zcId)
        blobs(blk) = zstd.compress(packed)
        end(s2)
        val t1 = System.nanoTime()
        end(s)
        op(write, t1 - t0, blockRaw(blk))
        compressed.indices.forall(j => Oracle.header(compressed(j)) == expectedHeader(blk * BlockRecords + j))
      }
      b += 1
    }
    b = 0
    while (b < Blocks) {
      val blk = b
      attempt {
        val s = span(readId)
        val t0 = System.nanoTime()
        val recs = unpackBlock(blobs(blk))
        val out = new Array[String](recs.length)
        var j = 0
        while (j < out.length) { out(j) = decompress(recs(j)); j += 1 }
        val t1 = System.nanoTime()
        end(s)
        op(read, t1 - t0, blockRaw(blk))
        out.length == BlockRecords &&
          out.indices.forall(j => out(j) == records(blk * BlockRecords + j))
      }
      b += 1
    }
    lookups.foreach { r =>
      attempt {
        val s = span(lookupId)
        val t0 = System.nanoTime()
        val v = decompress(unpackBlock(blobs(r / BlockRecords))(r % BlockRecords))
        val t1 = System.nanoTime()
        end(s)
        op(lookup, t1 - t0, rawLen(r))
        v == records(r)
      }
    }
  }

  /** Zstd output of the last round's blocks over the raw bytes. */
  override def bytesPerUserByte: Double = blobs.map(_.length.toLong).sum.toDouble / blockRaw.sum

  override def layerInput: Layers.Input = Layers.Input(corpus, dict, useFsst = false, workDir)
  override def oracle: Oracle = oracle0

  override def info: Seq[(String, String)] = Seq(
    "dataset" -> "HDFS",
    "records" -> Records.toString,
    "raw_MB" -> Workload.mb(blockRaw.sum),
    "block_records" -> BlockRecords.toString,
    "blocks" -> Blocks.toString,
    "lookups_per_round" -> LookupsPerRound.toString,
    "codec" -> "PBC_Z = PBC + Framing + Zstd(3)"
  )
}
