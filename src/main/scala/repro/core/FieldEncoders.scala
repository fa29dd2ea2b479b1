package repro.core

import java.nio.charset.StandardCharsets.UTF_8

/** Field encoders for residual subsequences (paper Table 1).
  *
  * Every wildcard field of a pattern carries one encoder, selected once
  * at pattern-extraction time from the values that field captured in the
  * calibration records the pattern won, and fixed in the dictionary. Encoders must be able to *reject* a value at compression
  * time (`accepts`) so that a record whose field violates the encoder
  * falls through to the next pattern / outlier path instead of
  * corrupting the stream.
  */
sealed trait FieldEncoder extends Serializable {

  /** Whether this encoder can losslessly encode `v`. */
  def accepts(v: String): Boolean

  /** Append the encoding of `v` (must satisfy `accepts`) to `out`. */
  def encode(v: String, out: ByteWriter): Unit

  /** Decode one value from `in`. */
  def decode(in: ByteReader): String

  /** Compact tag used by the dictionary serializer. */
  def tag: String
}

object FieldEncoder {

  private def allDigits(v: String): Boolean =
    v.nonEmpty && v.forall(c => c >= '0' && c <= '9')

  /** CHAR(n): fixed-length character payload, no length descriptor. */
  final case class Char_(n: Int) extends FieldEncoder {
    override def accepts(v: String): Boolean = v.getBytes(UTF_8).length == n
    override def encode(v: String, out: ByteWriter): Unit = out.writeBytes(v.getBytes(UTF_8))
    override def decode(in: ByteReader): String = new String(in.readBytes(n), UTF_8)
    override def tag: String = s"CHAR($n)"
  }

  /** VARCHAR: varint length descriptor + payload (paper Eq. 2). */
  case object VarChar extends FieldEncoder {
    override def accepts(v: String): Boolean = true
    override def encode(v: String, out: ByteWriter): Unit = {
      val b = v.getBytes(UTF_8)
      out.writeVarInt(b.length.toLong)
      out.writeBytes(b)
    }
    override def decode(in: ByteReader): String = {
      val n = in.readVarInt().toInt
      new String(in.readBytes(n), UTF_8)
    }
    override def tag: String = "VARCHAR"
  }

  /** INT(n,m): exactly n digits stored as an m-byte little-endian integer.
    * Leading zeros are preserved by re-padding to n digits on decode.
    */
  final case class Int_(n: Int, m: Int) extends FieldEncoder {
    require(n >= 1 && n <= 18 && m >= 1 && m <= 8, s"INT($n,$m) out of range")
    override def accepts(v: String): Boolean = v.length == n && allDigits(v)
    override def encode(v: String, out: ByteWriter): Unit = out.writeUIntLE(v.toLong, m)
    override def decode(in: ByteReader): String = {
      val v = in.readUIntLE(m)
      val s = v.toString
      if (s.length >= n) s else ("0" * (n - s.length)) + s
    }
    override def tag: String = s"INT($n,$m)"
  }

  /** VARINT: variable-length digit strings without leading zeros,
    * stored as a LEB128 varint of the numeric value.
    */
  case object VarIntEnc extends FieldEncoder {
    override def accepts(v: String): Boolean =
      allDigits(v) && v.length <= 18 && (v.length == 1 || v.charAt(0) != '0')
    override def encode(v: String, out: ByteWriter): Unit = out.writeVarInt(v.toLong)
    override def decode(in: ByteReader): String = in.readVarInt().toString
    override def tag: String = "VARINT"
  }

  /** Smallest byte width that can hold any n-digit decimal number. */
  def bytesForDigits(n: Int): Int = {
    val maxV = math.pow(10, n.toDouble) - 1
    var m = 1
    while (m < 8 && maxV > math.pow(2, 8.0 * m) - 1) m += 1
    m
  }

  private val MinFixedSamples = 3

  /** Select the cheapest encoder that accepts every observed field value
    * (pattern-extraction time). Preference order: INT(n,m) for
    * equal-length digit runs, VARINT for leading-zero-free digits,
    * CHAR(n) for constant byte length, VARCHAR otherwise.
    *
    * Fixed-shape encoders (INT/CHAR) reject values of other lengths at
    * compression time, so they are only chosen when the constant length
    * is corroborated by at least `MinFixedSamples` observations —
    * otherwise the variable-shape encoder is the safe default.
    */
  def select(values: Seq[String]): FieldEncoder = {
    require(values.nonEmpty, "cannot select an encoder from zero samples")
    val lens = values.map(_.getBytes(UTF_8).length).distinct
    val digits = values.forall(allDigits)
    val trustFixed = values.size >= MinFixedSamples
    if (trustFixed && digits && lens.size == 1 && lens.head >= 1 && lens.head <= 18)
      Int_(lens.head, bytesForDigits(lens.head))
    else if (values.forall(VarIntEnc.accepts)) VarIntEnc
    else if (trustFixed && lens.size == 1 && lens.head > 0) Char_(lens.head)
    else VarChar
  }

  /** Parse a `tag` back into an encoder (dictionary deserialization). */
  def fromTag(tag: String): FieldEncoder = tag match {
    case "VARCHAR" => VarChar
    case "VARINT"  => VarIntEnc
    case t if t.startsWith("CHAR(") =>
      Char_(t.stripPrefix("CHAR(").stripSuffix(")").toInt)
    case t if t.startsWith("INT(") =>
      val Array(n, m) = t.stripPrefix("INT(").stripSuffix(")").split(',')
      Int_(n.toInt, m.toInt)
    case other => throw new IllegalArgumentException(s"unknown encoder tag: $other")
  }
}
