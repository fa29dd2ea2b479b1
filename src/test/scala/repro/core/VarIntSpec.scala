package repro.core

import java.io.ByteArrayOutputStream
import org.scalatest.funsuite.AnyFunSuite
import repro.PropUtil

class VarIntSpec extends AnyFunSuite with PropUtil {

  /** `v` as a standalone varint. */
  private def encode(v: Long): Array[Byte] = {
    val out = new ByteArrayOutputStream(10)
    VarInt.write(out, v)
    out.toByteArray
  }

  test("zero encodes to one byte") {
    assert(encode(0L).toSeq == Seq(0.toByte))
    assert(VarInt.size(0L) == 1)
  }

  test("127 is the one-byte boundary") {
    assert(VarInt.size(127L) == 1)
    assert(VarInt.size(128L) == 2)
  }

  test("16383/16384 is the two-byte boundary") {
    assert(VarInt.size(16383L) == 2)
    assert(VarInt.size(16384L) == 3)
  }

  test("Long.MaxValue round-trips") {
    val b = encode(Long.MaxValue)
    assert(VarInt.read(b, 0) == ((Long.MaxValue, b.length)))
  }

  test("negative longs round-trip as unsigned 64-bit (10 bytes)") {
    for (v <- Seq(-1L, -5L, Long.MinValue)) {
      val b = encode(v)
      assert(b.length == 10)
      assert(VarInt.read(b, 0) == ((v, 10)))
    }
  }

  test("size matches encode length for boundaries") {
    for (v <- Seq(0L, 1L, 127L, 128L, 300L, 16384L, 1L << 21, 1L << 28, 1L << 35, Long.MaxValue))
      assert(VarInt.size(v) == encode(v).length, s"v=$v")
  }

  test("round-trip property over random non-negative longs") {
    forAllSeeded() { r =>
      val v = r.nextLong().abs
      val b = encode(v)
      val (got, n) = VarInt.read(b, 0)
      assert(got == v && n == b.length)
    }
  }

  test("read with offset") {
    val out = new ByteWriter()
    out.writeByte(0x55)
    out.writeVarInt(12345L)
    val (v, n) = VarInt.read(out.toBytes, 1)
    assert(v == 12345L && n == 2)
  }

  test("zigzag maps small magnitudes to small codes") {
    assert(VarInt.zigzag(0L) == 0L)
    assert(VarInt.zigzag(-1L) == 1L)
    assert(VarInt.zigzag(1L) == 2L)
    assert(VarInt.zigzag(-2L) == 3L)
  }

  test("zigzag round-trip property") {
    forAllSeeded() { r =>
      val v = r.nextLong()
      assert(VarInt.unzigzag(VarInt.zigzag(v)) == v)
    }
  }

  test("zigzag extremes") {
    for (v <- Seq(Long.MaxValue, Long.MinValue, 0L, -1L))
      assert(VarInt.unzigzag(VarInt.zigzag(v)) == v)
  }

  test("ByteWriter/ByteReader varint stream") {
    val out = new ByteWriter()
    val vs = Seq(0L, 5L, 300L, 1L << 40)
    vs.foreach(out.writeVarInt)
    val in = new ByteReader(out.toBytes)
    assert(vs.map(_ => in.readVarInt()) == vs)
    assert(!in.hasRemaining)
  }

  test("ByteWriter/ByteReader zigzag stream") {
    val out = new ByteWriter()
    val vs = Seq(0L, -7L, 42L, Long.MinValue)
    vs.foreach(out.writeZigZag)
    val in = new ByteReader(out.toBytes)
    assert(vs.map(_ => in.readZigZag()) == vs)
  }

  test("ByteReader readUIntLE little-endian") {
    val out = new ByteWriter()
    out.writeUIntLE(0x0102030405L, 5)
    val in = new ByteReader(out.toBytes)
    assert(in.readUIntLE(5) == 0x0102030405L)
  }

  test("readUIntLE round-trip property over widths") {
    forAllSeeded() { r =>
      val m = 1 + r.nextInt(8)
      val max = if (m == 8) Long.MaxValue else (1L << (8 * m)) - 1
      val v = (r.nextLong().abs) % (max / 2 + 1)
      val out = new ByteWriter()
      out.writeUIntLE(v, m)
      assert(new ByteReader(out.toBytes).readUIntLE(m) == v)
    }
  }

  test("ByteReader readBytes and readRest") {
    val in = new ByteReader(Array[Byte](1, 2, 3, 4, 5))
    assert(in.readBytes(2).toSeq == Seq[Byte](1, 2))
    assert(in.readRest().toSeq == Seq[Byte](3, 4, 5))
    assert(in.remaining == 0)
  }

  test("ByteReader readBytes rejects a length past the end or below zero") {
    val in = new ByteReader(Array[Byte](1, 2))
    intercept[IndexOutOfBoundsException](in.readBytes(5))
    intercept[IndexOutOfBoundsException](in.readBytes(-1))
    intercept[IndexOutOfBoundsException](in.readBytes(1 << 30))
    assert(in.pos == 0)
    assert(in.readBytes(2).toSeq == Seq[Byte](1, 2))
    assert(in.readBytes(0).isEmpty)
  }
}
