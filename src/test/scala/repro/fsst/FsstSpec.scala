package repro.fsst

import org.scalatest.funsuite.AnyFunSuite
import repro.PropUtil
import repro.core.{ByteReader, ByteWriter, PatternExtractor}
import repro.data.MachineData
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

  test("a table codes the same after Java serialization") {
    val t = Fsst.train(Vector.fill(30)("pattern based compression".getBytes(UTF_8)))
    val buf = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(buf)
    oos.writeObject(t)
    oos.close()
    val t2 = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(buf.toByteArray))
      .readObject().asInstanceOf[FsstTable]
    val in = "pattern based compression works".getBytes(UTF_8)
    assert(t2.encode(in).toSeq == t.encode(in).toSeq)
    assert(t2.decode(t.encode(in)).toSeq == in.toSeq)
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

  test("decode rejects an escape with no byte after it and a code past the table") {
    val t = new FsstTable(Array("ab".getBytes(UTF_8)))
    for (bad <- Seq(Array(0xff.toByte), Array[Byte](0, 0xff.toByte), Array[Byte](1), Array[Byte](0, 0xfe.toByte)))
      intercept[IndexOutOfBoundsException](t.decode(bad))
    intercept[IndexOutOfBoundsException](FsstTable.empty.decode(Array[Byte](0)))
  }

  // ---- the indexed coder against ReferenceFsst ----

  private def hex(b: Array[Byte]): String = b.map(x => f"${x & 0xff}%02x").mkString

  private def assertAsReference(t: FsstTable, ref: ReferenceFsst, in: Array[Byte]): Unit = {
    val coded = t.encode(in)
    val expected = ref.encode(in)
    if (!java.util.Arrays.equals(coded, expected))
      fail(s"encode(${hex(in)}) = ${hex(coded)}, reference ${hex(expected)}; table ${t.symbols.map(hex).mkString(" ")}")
    assert(java.util.Arrays.equals(t.decode(coded), ref.decode(coded)))
    assert(java.util.Arrays.equals(t.decode(coded), in), s"lossy on ${hex(in)}")
  }

  test("property: random tables with colliding and repeated symbols code as the reference does") {
    forAllSeeded(1500) { r =>
      // 0x00 is a letter so that the zero padding of the last word could
      // match; 0xff is the escape code's byte value
      val letters = r.shuffle(Vector[Byte](0, 'a', 'b', 'c')).take(3 + r.nextInt(2)) :+ 0xff.toByte
      def bytes(n: Int) = Array.fill(n)(letters(r.nextInt(letters.length)))
      // one symbol in six repeats an earlier one under a higher code
      val syms = new Array[Array[Byte]](r.nextInt(256))
      for (i <- syms.indices)
        syms(i) = if (i > 0 && r.nextInt(6) == 0) syms(r.nextInt(i)).clone() else bytes(1 + r.nextInt(8))
      val t = new FsstTable(syms)
      val ref = new ReferenceFsst(syms)
      for (_ <- 0 until 40)
        assertAsReference(t, ref, bytes(if (r.nextBoolean()) 1 + r.nextInt(8) else r.nextInt(41)))
      // any code string, not only what encode makes
      for (_ <- 0 until 10) {
        val coded = Array.newBuilder[Byte]
        for (_ <- 0 until r.nextInt(12)) {
          val c = r.nextInt(syms.length + 1)
          if (c == syms.length) { coded += 0xff.toByte; coded += r.nextInt(256).toByte }
          else coded += c.toByte
        }
        val c = coded.result()
        assert(java.util.Arrays.equals(t.decode(c), ref.decode(c)), s"decode(${hex(c)})")
      }
    }
  }

  // perfbench's corpora and training settings
  for ((name, n) <- Seq("Android" -> 100000, "KV1" -> 70000, "HDFS" -> 25600))
    test(s"the trained $name table codes its records and their fields as the reference does") {
      val records = MachineData.records(name, n)
      val dict = PatternExtractor.train(records,
        PatternExtractor.Config(k = 16, sampleSize = 120, maxPatternLen = 320, withFsst = true))
      val t = dict.fsst.get
      val ref = new ReferenceFsst(t.symbols)
      records.foreach { rec =>
        assertAsReference(t, ref, rec.getBytes(UTF_8))
        dict.patterns.iterator.flatMap(_.pattern.matchRecord(rec)).take(1).flatten
          .foreach(f => assertAsReference(t, ref, f.getBytes(UTF_8)))
      }
    }
}
