package repro.fsst

import org.scalatest.funsuite.AnyFunSuite
import repro.PropUtil
import repro.core.{ByteReader, ByteWriter}
import repro.tables.Bench.printable
import java.nio.charset.StandardCharsets.UTF_8

class FsstSpec extends AnyFunSuite with PropUtil {

  private def rt(t: FsstTable, s: String): Unit = {
    val b = s.getBytes(UTF_8)
    assert(t.decode(t.encode(b)).toSeq == b.toSeq, s"lossy on '${printable(s)}'")
  }

  test("empty table escapes everything (2 bytes per byte)") {
    val t = FsstTable.empty
    val in = "abc".getBytes(UTF_8)
    assert(t.encode(in).length == 6)
    assert(t.decode(t.encode(in)).toSeq == in.toSeq)
  }

  test("the escape byte 0xFF itself round-trips") {
    val t = FsstTable.empty
    val in = Array[Byte](0xff.toByte, 0x00, 0xff.toByte)
    assert(t.decode(t.encode(in)).toSeq == in.toSeq)
  }

  test("a learned symbol shortens repeated content") {
    val sample = Vector.fill(100)("http://example.com/".getBytes(UTF_8))
    val t = Fsst.train(sample)
    val in = "http://example.com/abc".getBytes(UTF_8)
    val coded = t.encode(in)
    assert(coded.length < in.length, s"coded=${coded.length} raw=${in.length}")
    assert(t.decode(coded).toSeq == in.toSeq)
  }

  test("training yields at most 255 symbols of 1..8 bytes") {
    val sample = Vector.fill(50)(("lorem ipsum dolor sit amet " * 3).getBytes(UTF_8))
    val t = Fsst.train(sample)
    assert(t.symbols.length <= 255)
    t.symbols.foreach(s => assert(s.length >= 1 && s.length <= 8))
  }

  test("training on empty sample gives the empty table") {
    assert(Fsst.train(Nil).symbols.isEmpty)
  }

  test("compression ratio on templated text is at least 2x") {
    val recs = (0 until 500).map(i => s"GET /api/v1/items/$i HTTP/1.1 200 OK".getBytes(UTF_8))
    val t = Fsst.train(recs)
    val raw = recs.map(_.length).sum
    val comp = recs.map(r => t.encode(r).length).sum
    assert(comp.toDouble / raw < 0.55, s"ratio=${comp.toDouble / raw}")
  }

  test("random binary input round-trips (worst case: all escapes)") {
    val t = Fsst.train(Vector("some ascii sample".getBytes(UTF_8)))
    forAllSeeded(100) { r =>
      val b = randomBytes(r, 64)
      assert(t.decode(t.encode(b)).toSeq == b.toSeq)
    }
  }

  test("property: trained tables round-trip their own domain") {
    forAllSeeded(30) { r =>
      val recs = Vector.fill(50)(randomAscii(r, 40).getBytes(UTF_8))
      val t = Fsst.train(recs)
      recs.foreach(b => assert(t.decode(t.encode(b)).toSeq == b.toSeq))
    }
  }

  test("greedy encoder prefers longest symbols") {
    val t = new FsstTable(Array("ab".getBytes(UTF_8), "abcd".getBytes(UTF_8)))
    val coded = t.encode("abcd".getBytes(UTF_8))
    assert(coded.length == 1) // one code for "abcd", not two for "ab"+escapes
  }

  test("table serialization round-trips") {
    val t = Fsst.train(Vector.fill(30)("pattern based compression".getBytes(UTF_8)))
    val out = new ByteWriter()
    t.serialize(out)
    val t2 = FsstTable.deserialize(new ByteReader(out.toBytes))
    assert(t2.symbols.length == t.symbols.length)
    t.symbols.zip(t2.symbols).foreach { case (a, b) => assert(a.toSeq == b.toSeq) }
    rt(t2, "pattern based compression works")
  }

  test("training is deterministic") {
    val sample = Vector.fill(40)("deterministic training sample 12345".getBytes(UTF_8))
    val t1 = Fsst.train(sample)
    val t2 = Fsst.train(sample)
    assert(t1.symbols.map(_.toSeq).toSeq == t2.symbols.map(_.toSeq).toSeq)
  }

  test("empty input encodes to empty output") {
    val t = Fsst.train(Vector("abc".getBytes(UTF_8)))
    assert(t.encode(Array.empty[Byte]).isEmpty)
    assert(t.decode(Array.empty[Byte]).isEmpty)
  }
}
