package repro.codecs

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import com.github.luben.zstd.{ZstdCompressCtx, ZstdDecompressCtx, ZstdDictCompress, ZstdDictDecompress, ZstdDictTrainer}
import net.jpountz.lz4.LZ4Factory
import org.tukaani.xz.{LZMA2Options, XZInputStream, XZOutputStream}
import org.xerial.snappy.Snappy
import repro.core.{ByteReader, ByteWriter, VarInt}

/** Uniform byte-array codec interface for all general-purpose baselines.
  *
  * Every implementation prefixes the original length as a varint so the
  * wrapper is self-describing regardless of the underlying library's
  * framing. Backed by the exact libraries the surveyed systems use
  * (lz4-java, zstd-jni, snappy-java, org.tukaani.xz), which Spark ships.
  */
trait ByteCodec extends Serializable {
  def name: String
  def compress(input: Array[Byte]): Array[Byte]
  def decompress(coded: Array[Byte]): Array[Byte]
}

object ByteCodec {
  private[codecs] def withLen(body: Array[Byte], origLen: Int): Array[Byte] = {
    val out = new ByteWriter(body.length + 5)
    out.writeVarInt(origLen.toLong)
    out.writeBytes(body)
    out.toBytes
  }
  private[codecs] def splitLen(coded: Array[Byte]): (Int, Array[Byte], Int) = {
    val (len, n) = VarInt.read(coded, 0)
    (len.toInt, coded, n)
  }
}

/** LZ4 block compression (lz4-java, as used by Hadoop). */
final class Lz4Codec extends ByteCodec {
  @transient private lazy val factory = LZ4Factory.fastestInstance()
  override def name: String = "LZ4"
  override def compress(input: Array[Byte]): Array[Byte] =
    ByteCodec.withLen(factory.fastCompressor().compress(input), input.length)
  override def decompress(coded: Array[Byte]): Array[Byte] = {
    val (origLen, buf, off) = ByteCodec.splitLen(coded)
    val out = new Array[Byte](origLen)
    factory.fastDecompressor().decompress(buf, off, out, 0, origLen)
    out
  }
}

/** Snappy (snappy-java, as used by LevelDB/Bigtable). */
final class SnappyCodec extends ByteCodec {
  override def name: String = "Snappy"
  override def compress(input: Array[Byte]): Array[Byte] = Snappy.compress(input)
  override def decompress(coded: Array[Byte]): Array[Byte] = Snappy.uncompress(coded)
}

/** Zstandard at a given level (zstd-jni, as used by RocksDB). The native
  * contexts are reused, one pair per thread: a context is not thread-safe
  * and the codec may be shared.
  */
final class ZstdCodec(level: Int = 3) extends ByteCodec {
  @transient private lazy val cctx = ThreadLocal.withInitial(() => new ZstdCompressCtx().setLevel(level))
  @transient private lazy val dctx = ThreadLocal.withInitial(() => new ZstdDecompressCtx())
  override def name: String = s"Zstd($level)"
  override def compress(input: Array[Byte]): Array[Byte] =
    ByteCodec.withLen(cctx.get.compress(input), input.length)
  override def decompress(coded: Array[Byte]): Array[Byte] = {
    val (origLen, buf, off) = ByteCodec.splitLen(coded)
    dctx.get.decompress(buf, off, buf.length - off, origLen)
  }
}

/** Zstd with a pre-trained dictionary — the paper's `Zstd(dict)`
  * line-by-line baseline and TierBase's production scheme.
  */
final class ZstdDictCodec(dictBytes: Array[Byte], level: Int = 3) extends ByteCodec {
  // Magicless minimal frames (no magic/checksum/content-size/dict-id):
  // the frame overhead would otherwise dominate short records — the
  // same configuration a KV store embedding zstd per value uses.
  @transient private lazy val cctx = {
    val c = new ZstdCompressCtx()
    c.setLevel(level)
    c.setMagicless(true).setChecksum(false).setContentSize(false).setDictID(false)
    c.loadDict(new ZstdDictCompress(dictBytes, level))
    c
  }
  @transient private lazy val dctx = {
    val d = new ZstdDecompressCtx()
    d.setMagicless(true)
    d.loadDict(new ZstdDictDecompress(dictBytes))
    d
  }
  override def name: String = "Zstd(dict)"
  override def compress(input: Array[Byte]): Array[Byte] =
    ByteCodec.withLen(cctx.compress(input), input.length)
  override def decompress(coded: Array[Byte]): Array[Byte] = {
    val (origLen, buf, off) = ByteCodec.splitLen(coded)
    dctx.decompress(buf, off, buf.length - off, origLen)
  }
}

/** LZMA via the XZ container (org.tukaani.xz). `preset` 0–9. */
final class LzmaCodec(preset: Int = 6) extends ByteCodec {
  override def name: String = s"LZMA($preset)"
  override def compress(input: Array[Byte]): Array[Byte] = {
    val bos = new ByteArrayOutputStream(math.max(64, input.length / 3))
    val xz = new XZOutputStream(bos, new LZMA2Options(preset))
    xz.write(input); xz.finish(); xz.close()
    bos.toByteArray
  }
  override def decompress(coded: Array[Byte]): Array[Byte] = {
    val in = new XZInputStream(new ByteArrayInputStream(coded))
    val out = new ByteArrayOutputStream(coded.length * 4)
    val buf = new Array[Byte](8192)
    var n = in.read(buf)
    while (n >= 0) { out.write(buf, 0, n); n = in.read(buf) }
    in.close()
    out.toByteArray
  }
}

object DictTraining {
  /** Train a Zstd dictionary on sample records; falls back to a raw
    * content dictionary (the concatenated sample) when zstd's trainer
    * rejects the sample (it needs enough distinct samples).
    */
  def zstdDict(samples: Seq[Array[Byte]], dictSize: Int = 16 * 1024): Array[Byte] = {
    val total = samples.map(_.length).sum
    try {
      val t = new ZstdDictTrainer(math.max(total, dictSize * 4), dictSize)
      samples.foreach(t.addSample)
      t.trainSamples()
    } catch {
      case _: Exception =>
        val out = new ByteArrayOutputStream()
        samples.iterator.takeWhile(_ => out.size < dictSize).foreach(s => out.write(s, 0, s.length))
        val b = out.toByteArray
        java.util.Arrays.copyOf(b, math.min(b.length, dictSize))
    }
  }
}

/** From-scratch LZ77 with a preset dictionary window — the stand-in for
  * the paper's `LZ4(dict)` line-by-line baseline (lz4-java exposes no
  * dictionary API; see DESIGN.md §5). Greedy hash-chain matching over
  * `dict ++ input`; matches may reach back into the preset dictionary,
  * which is what makes short records compressible.
  *
  * Token stream: varint origLen, then tokens — literal run
  * `varint(len<<1)` + bytes, or match `varint(len<<1 | 1)` +
  * `varint(distance)` (distance ≥ 1, counted from the current position
  * in the dict+output space).
  */
final class Lz77DictCodec(dictBytes: Array[Byte]) extends ByteCodec {
  private val MinMatch = 4
  private val MaxChain = 32
  private val HashBits = 16

  override def name: String = "LZ4(dict)"

  @inline private def hash4(b: Array[Byte], i: Int): Int = {
    val v = ((b(i) & 0xff) << 24) | ((b(i + 1) & 0xff) << 16) | ((b(i + 2) & 0xff) << 8) | (b(i + 3) & 0xff)
    (v * -1640531535) >>> (32 - HashBits)
  }

  // The dictionary hash chains are built once; per-record state uses
  // generation-stamped heads so compressing a record costs O(record),
  // not O(dict) — essential for line-by-line benchmarking.
  @transient private lazy val dictIndex: (Array[Int], Array[Int]) = {
    val head = Array.fill(1 << HashBits)(-1)
    val prev = Array.fill(math.max(dictBytes.length, 1))(-1)
    var i = 0
    while (i + MinMatch <= dictBytes.length) {
      val h = hash4(dictBytes, i)
      prev(i) = head(h); head(h) = i
      i += 1
    }
    (head, prev)
  }
  @transient private lazy val inHead = new Array[Int](1 << HashBits)
  @transient private lazy val inHeadGen = new Array[Int](1 << HashBits)
  @transient private var generation = 0

  override def compress(input: Array[Byte]): Array[Byte] = {
    val (dictHead, dictPrev) = dictIndex
    val dictEnd = dictBytes.length
    val end = dictEnd + input.length
    generation += 1
    val gen = generation
    val inPrev = Array.fill(input.length)(-1)

    // virtual window dict ++ input, without materializing the copy
    @inline def byteAt(p: Int): Byte =
      if (p < dictEnd) dictBytes(p) else input(p - dictEnd)
    @inline def hashAt(p: Int): Int = {
      val v = ((byteAt(p) & 0xff) << 24) | ((byteAt(p + 1) & 0xff) << 16) |
        ((byteAt(p + 2) & 0xff) << 8) | (byteAt(p + 3) & 0xff)
      (v * -1640531535) >>> (32 - HashBits)
    }
    @inline def chainHead(h: Int): Int =
      if (inHeadGen(h) == gen) inHead(h) else dictHead(h)
    @inline def chainPrev(p: Int): Int =
      if (p >= dictEnd) inPrev(p - dictEnd) else dictPrev(p)
    @inline def insert(pos: Int): Unit =
      if (pos + MinMatch <= end) {
        val h = hashAt(pos)
        inPrev(pos - dictEnd) = chainHead(h)
        inHead(h) = pos; inHeadGen(h) = gen
      }

    val out = new ByteWriter(input.length + 8)
    out.writeVarInt(input.length.toLong)
    var pos = dictEnd
    var litStart = dictEnd
    @inline def flushLits(upTo: Int): Unit =
      if (upTo > litStart) {
        out.writeVarInt((upTo - litStart).toLong << 1)
        out.writeBytes(java.util.Arrays.copyOfRange(input, litStart - dictEnd, upTo - dictEnd))
      }
    while (pos < end) {
      var bestLen = 0
      var bestDist = 0
      if (pos + MinMatch <= end) {
        val h = hashAt(pos)
        var cand = chainHead(h)
        var chain = 0
        while (cand >= 0 && chain < MaxChain) {
          var l = 0
          val maxL = end - pos
          // overlapping matches (cand + l >= pos) are fine: the decoder
          // copies byte-by-byte, reproducing run-length behaviour
          while (l < maxL && byteAt(cand + l) == byteAt(pos + l)) l += 1
          if (l >= MinMatch && l > bestLen) { bestLen = l; bestDist = pos - cand }
          cand = chainPrev(cand); chain += 1
        }
      }
      if (bestLen >= MinMatch) {
        flushLits(pos)
        out.writeVarInt((bestLen.toLong << 1) | 1L)
        out.writeVarInt(bestDist.toLong)
        var k = pos
        while (k < pos + bestLen) { insert(k); k += 1 }
        pos += bestLen
        litStart = pos
      } else {
        insert(pos)
        pos += 1
      }
    }
    flushLits(end)
    out.toBytes
  }

  override def decompress(coded: Array[Byte]): Array[Byte] = {
    val in = new ByteReader(coded)
    val origLen = in.readVarInt().toInt
    val dictEnd = dictBytes.length
    val outBuf = new Array[Byte](origLen)
    var pos = 0 // position within the output (window position = dictEnd + pos)
    @inline def srcByte(p: Int): Byte =
      if (p < dictEnd) dictBytes(p) else outBuf(p - dictEnd)
    while (in.hasRemaining) {
      val tok = in.readVarInt()
      val len = (tok >>> 1).toInt
      if ((tok & 1L) == 0L) {
        System.arraycopy(in.buf, in.pos, outBuf, pos, len)
        in.pos += len
        pos += len
      } else {
        val dist = in.readVarInt().toInt
        val from = dictEnd + pos - dist
        var k = 0
        while (k < len) { outBuf(pos + k) = srcByte(from + k); k += 1 }
        pos += len
      }
    }
    outBuf
  }
}
