package repro.kvstore

import java.nio.charset.StandardCharsets.UTF_8
import repro.codecs.ByteCodec
import repro.core.PbcCodec

/** A codec of string values: the unit the Table 8 case study swaps
  * between Uncompressed / Zstd(dict) / PBC_F, and the per-record method
  * that the table runners evaluate.
  */
trait ValueCodec extends Serializable {
  def name: String
  def encode(v: String): Array[Byte]
  def decode(b: Array[Byte]): String
}

object ValueCodec {
  /** No compression — the 100 % memory baseline. */
  object Uncompressed extends ValueCodec {
    override val name = "Uncompressed"
    override def encode(v: String): Array[Byte] = v.getBytes(UTF_8)
    override def decode(b: Array[Byte]): String = new String(b, UTF_8)
  }

  /** A byte codec applied to each value's UTF-8 bytes, e.g. TierBase's
    * production scheme, Zstd with a workload-trained dictionary.
    */
  final class OverBytes(val name: String, codec: ByteCodec) extends ValueCodec {
    override def encode(v: String): Array[Byte] = codec.compress(v.getBytes(UTF_8))
    override def decode(b: Array[Byte]): String = new String(codec.decompress(b), UTF_8)
  }

  /** The paper's integration: PBC with workload-extracted patterns,
    * named PBC_F when its codec re-encodes residuals with FSST.
    */
  final class PbcF(codec: PbcCodec) extends ValueCodec {
    override val name = if (codec.useFsst) "PBC_F" else "PBC"
    override def encode(v: String): Array[Byte] = codec.compress(v)
    override def decode(b: Array[Byte]): String = codec.decompress(b)
  }
}

/** TierBase-lite: a single-node, in-memory, Redis-style KV store with
  * value compression at SET and decompression at GET — the substrate for
  * the paper's §7.5 production case study (Table 8).
  *
  * Memory accounting counts key bytes + stored value bytes + a fixed
  * per-entry overhead, mirroring how an in-memory store's footprint
  * scales; the Table 8 "Memory Usage %" compares stored-value bytes
  * across codecs for identical key sets.
  */
final class TierBaseLite(val codec: ValueCodec) {
  private val map = new java.util.HashMap[String, Array[Byte]]()
  private var valueBytes0 = 0L
  private var keyBytes0 = 0L

  /** Per-entry bookkeeping overhead (pointers + hash bucket), constant
    * across codecs so it cancels in relative comparisons.
    */
  val perEntryOverhead = 48L

  def set(key: String, value: String): Unit = {
    val b = codec.encode(value)
    val old = map.put(key, b)
    if (old != null) valueBytes0 -= old.length
    else keyBytes0 += key.getBytes(UTF_8).length.toLong
    valueBytes0 += b.length.toLong
  }

  def get(key: String): Option[String] =
    Option(map.get(key)).map(codec.decode)

  def size: Int = map.size
  def valueBytes: Long = valueBytes0
  def memoryBytes: Long = valueBytes0 + keyBytes0 + size.toLong * perEntryOverhead
}
