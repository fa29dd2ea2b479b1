package repro.core

import java.io.IOException
import java.nio.charset.StandardCharsets.UTF_8
import repro.fsst.FsstTable

/** Bytes that [[PbcCodec]] or the `.pbc` file writer cannot have made.
  * For a compressed record: one cut short, one with bytes left over after
  * its fields, or one naming a pattern the dictionary does not have. For
  * a `.pbc` file: a bad magic, an index that does not fit the file,
  * offsets out of order or outside the payload region, a dictionary that
  * does not parse, or a file cut short (what a failed task attempt
  * leaves).
  */
final class PbcCorruptException(message: String, cause: Throwable = null)
    extends IOException(message, cause)

/** Pattern-Based Compression codec (paper Fig. 1b/1c).
  *
  * Compresses every record individually: the record is matched against
  * the dictionary patterns longest-first; the winning pattern's ID and
  * its encoded residual fields form the compressed record. Records that
  * match no pattern (or violate a pattern's field encoders) are stored
  * raw as outliers.
  *
  * Wire format per record (record boundaries are kept by the container):
  * {{{
  *   varint header          // 0 = outlier, else patternId + 1
  *   outlier: payload bytes // raw UTF-8, or FSST-coded in PBC_F mode
  *   match:   field_0 ... field_{n-1} per the pattern's encoders;
  *            VARCHAR payloads are FSST-coded in PBC_F mode
  * }}}
  *
  * A dictionary that carries an FSST table makes this the paper's
  * `PBC_F` variant; one without makes it plain `PBC`. Both are strictly
  * per-record, so random access is preserved. `PBC_Z`/`PBC_L` are
  * block-level compositions built on top of [[Framing]] plus a block
  * codec.
  */
final class PbcCodec(val dict: PatternDictionary) extends Serializable {

  /** The codec of `dict` with its FSST table, if `useFsst`, or without it. */
  def this(dict: PatternDictionary, useFsst: Boolean) = {
    this(if (useFsst) dict else dict.copy(fsst = None))
    require(!useFsst || dict.fsst.isDefined, "PBC_F requires a dictionary with an FSST table")
  }

  private val fsst: Option[FsstTable] = dict.fsst

  /** Whether residual strings are FSST-coded (`PBC_F`). */
  def useFsst: Boolean = fsst.isDefined

  /** Outlier count since construction (drives the paper's re-training
    * trigger in the production integration).
    */
  @transient private var outlierCount0: Long = 0L
  @transient private var recordCount0: Long = 0L
  def outlierCount: Long = outlierCount0
  def recordCount: Long = recordCount0
  def outlierRate: Double = if (recordCount0 == 0) 0.0 else outlierCount0.toDouble / recordCount0

  /** Whether field encoder `e` stores its value through [[writeString]]:
    * every VARCHAR, and in PBC_F mode also CHAR fields long enough for
    * FSST to win (the paper applies the residual encoder to all string
    * residuals); short CHARs stay raw — a length header would cost more
    * than FSST could save.
    */
  private def viaString(e: FieldEncoder): Boolean = e match {
    case FieldEncoder.VarChar  => true
    case FieldEncoder.Char_(n) => fsst.isDefined && n >= 4
    case _                     => false
  }

  /** String payload framing.
    *
    * Plain mode: `varint(len) ++ bytes` (VARCHAR) or bare bytes (outlier;
    * the container keeps boundaries). PBC_F mode stores whichever of
    * {raw, FSST-coded} is smaller, flagged in the low bit of the length
    * varint (VARCHAR) or a leading flag varint (outlier) — FSST must
    * never make a record larger than plain PBC.
    */
  private def writeString(out: ByteWriter, b: Array[Byte], lengthPrefixed: Boolean): Unit =
    fsst match {
      case Some(t) =>
        val coded = t.encode(b)
        val (payload, flag) = if (coded.length < b.length) (coded, 1L) else (b, 0L)
        if (lengthPrefixed) out.writeVarInt((payload.length.toLong << 1) | flag)
        else out.writeVarInt(flag)
        out.writeBytes(payload)
      case None =>
        if (lengthPrefixed) out.writeVarInt(b.length.toLong)
        out.writeBytes(b)
    }

  private def readString(in: ByteReader, lengthPrefixed: Boolean): String =
    fsst match {
      case Some(t) =>
        val (payload, coded) =
          if (lengthPrefixed) {
            val header = in.readVarInt()
            (in.readBytes((header >>> 1).toInt), (header & 1L) == 1L)
          } else {
            val flag = in.readVarInt()
            (in.readRest(), flag == 1L)
          }
        new String(if (coded) t.decode(payload) else payload, UTF_8)
      case None =>
        val raw =
          if (lengthPrefixed) in.readBytes(in.readVarInt().toInt)
          else in.readRest()
        new String(raw, UTF_8)
    }

  def compress(record: String): Array[Byte] = {
    recordCount0 += 1
    val out = new ByteWriter(record.length / 2 + 8)
    var id = 0
    val n = dict.patterns.length
    while (id < n) {
      val cp = dict.patterns(id)
      if (cp.pattern.litLen <= record.length) {
        cp.pattern.matchRecord(record) match {
          case Some(caps) =>
            var ok = true
            var f = 0
            while (ok && f < caps.length) { ok = cp.encoders(f).accepts(caps(f)); f += 1 }
            if (ok) {
              out.writeVarInt(id.toLong + 1L)
              f = 0
              while (f < caps.length) {
                val e = cp.encoders(f)
                if (viaString(e)) writeString(out, caps(f).getBytes(UTF_8), lengthPrefixed = true)
                else e.encode(caps(f), out)
                f += 1
              }
              return out.toBytes
            }
          case None => ()
        }
      }
      id += 1
    }
    // outlier
    outlierCount0 += 1
    out.writeVarInt(0L)
    writeString(out, record.getBytes(UTF_8), lengthPrefixed = false)
    out.toBytes
  }

  /** The record `bytes` were compressed from. Bytes that `compress`
    * cannot have made with this dictionary raise [[PbcCorruptException]]:
    * a varint or field that runs past the end, a pattern id out of range,
    * or bytes left over after a matched record's fields. Damage that
    * keeps the layout decodes to some other record; only a checksum
    * could catch that.
    */
  def decompress(bytes: Array[Byte]): String =
    try {
      val in = new ByteReader(bytes)
      val h = in.readVarInt()
      if (h == 0L) readString(in, lengthPrefixed = false)
      else {
        if (java.lang.Long.compareUnsigned(h, dict.size.toLong) > 0)
          throw new PbcCorruptException(s"pattern id ${java.lang.Long.toUnsignedString(h - 1)} " +
            s"out of range for ${dict.size} patterns")
        val cp = dict.patterns((h - 1).toInt)
        val record = cp.pattern.renderWith(cp.encoders.length, { f =>
          val e = cp.encoders(f)
          if (viaString(e)) readString(in, lengthPrefixed = true) else e.decode(in)
        })
        if (in.hasRemaining)
          throw new PbcCorruptException(s"${in.remaining} bytes left after the fields of pattern ${h - 1}")
        record
      }
    } catch {
      // every read past the end of `bytes`, in the varints, the fields and
      // the FSST payloads, surfaces as an out-of-bounds access
      case e: IndexOutOfBoundsException =>
        throw new PbcCorruptException(s"a ${bytes.length}-byte record cut short (${e.getMessage})", e)
    }
}

/** Length-prefixed record framing for block-level composition
  * (`PBC_Z` / `PBC_L`): per-record byte arrays → one blob and back.
  */
object Framing {
  def pack(records: Iterator[Array[Byte]]): Array[Byte] = {
    val out = new ByteWriter(4096)
    records.foreach { r => out.writeVarInt(r.length.toLong); out.writeBytes(r) }
    out.toBytes
  }

  def unpack(blob: Array[Byte]): Vector[Array[Byte]] = {
    val in = new ByteReader(blob)
    val out = Vector.newBuilder[Array[Byte]]
    while (in.hasRemaining) out += in.readBytes(in.readVarInt().toInt)
    out.result()
  }
}
