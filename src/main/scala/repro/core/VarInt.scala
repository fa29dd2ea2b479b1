package repro.core

import java.io.ByteArrayOutputStream

/** LEB128-style unsigned variable-length integer coding.
  *
  * Used by the VARCHAR/VARINT field encoders (length descriptors and
  * digit payloads), the pattern dictionary serializer, and the `pbc`
  * file format footers. The long is interpreted as *unsigned* 64-bit
  * (so zigzag-coded values, which use the full range, round-trip):
  * 1 byte covers 0..127, 2 bytes 0..16383, ..., 10 bytes for values
  * with the top bit set.
  */
object VarInt {

  /** Number of bytes the varint encoding of `v` occupies. */
  def size(v: Long): Int = {
    var x = v; var n = 1
    while ((x & ~0x7fL) != 0) { x >>>= 7; n += 1 }
    n
  }

  /** Append the varint encoding of `v` to `out`. */
  def write(out: ByteArrayOutputStream, v: Long): Unit = {
    var x = v
    while ((x & ~0x7fL) != 0) { out.write(((x & 0x7f) | 0x80).toInt); x >>>= 7 }
    out.write(x.toInt)
  }

  /** Zigzag mapping for signed values: 0,-1,1,-2,... → 0,1,2,3,... */
  def zigzag(v: Long): Long = (v << 1) ^ (v >> 63)
  def unzigzag(z: Long): Long = (z >>> 1) ^ -(z & 1L)

  /** Decode a varint starting at `buf(pos)`; returns (value, bytesConsumed). */
  def read(buf: Array[Byte], pos: Int): (Long, Int) = {
    var v = 0L; var shift = 0; var i = pos
    while ({
      val b = buf(i) & 0xff
      v |= (b & 0x7fL) << shift
      shift += 7; i += 1
      (b & 0x80) != 0
    }) ()
    (v, i - pos)
  }
}

/** Mutable cursor over a byte array for sequential decoding. */
final class ByteReader(val buf: Array[Byte], var pos: Int = 0) {
  def remaining: Int = buf.length - pos
  def hasRemaining: Boolean = pos < buf.length

  def readVarInt(): Long = {
    val (v, n) = VarInt.read(buf, pos); pos += n; v
  }

  def readZigZag(): Long = VarInt.unzigzag(readVarInt())

  /** The next `n` bytes; fails when fewer than `n` are left (a negative
    * `n` compares as a huge unsigned one).
    */
  def readBytes(n: Int): Array[Byte] = {
    if (Integer.compareUnsigned(n, remaining) > 0)
      throw new IndexOutOfBoundsException(s"$n bytes wanted, $remaining left")
    val out = java.util.Arrays.copyOfRange(buf, pos, pos + n); pos += n; out
  }

  /** Little-endian unsigned integer of `m` bytes. */
  def readUIntLE(m: Int): Long = {
    var v = 0L
    var i = 0
    while (i < m) { v |= (buf(pos + i) & 0xffL) << (8 * i); i += 1 }
    pos += m
    v
  }

  /** All bytes from the cursor to the end of the buffer. */
  def readRest(): Array[Byte] = readBytes(remaining)
}

/** Growable byte sink mirroring [[ByteReader]]. */
final class ByteWriter(initial: Int = 64) {
  private val out = new ByteArrayOutputStream(initial)
  def writeVarInt(v: Long): Unit = VarInt.write(out, v)
  def writeZigZag(v: Long): Unit = VarInt.write(out, VarInt.zigzag(v))
  def writeBytes(b: Array[Byte]): Unit = out.write(b, 0, b.length)
  def writeByte(b: Int): Unit = out.write(b)
  def writeUIntLE(v: Long, m: Int): Unit = {
    var i = 0
    while (i < m) { out.write(((v >>> (8 * i)) & 0xff).toInt); i += 1 }
  }
  def size: Int = out.size
  def toBytes: Array[Byte] = out.toByteArray
}
