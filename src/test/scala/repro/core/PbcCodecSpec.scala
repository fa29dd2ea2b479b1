package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropUtil
import repro.data.MachineData
import repro.kvstore.ValueCodec
import repro.tables.Bench.printable
import scala.util.Random

class PbcCodecSpec extends AnyFunSuite with PropUtil {

  private def trainOn(records: Seq[String], k: Int = 8, withFsst: Boolean = false): PbcCodec = {
    // small samples / short pattern caps: unit tests exercise correctness,
    // not ratio quality (the benches train at full strength)
    val maxLen = math.min(600, records.map(_.length).max + 1)
    val dict = PatternExtractor.train(records,
      PatternExtractor.Config(k = k, sampleSize = 60, maxPatternLen = maxLen, withFsst = withFsst))
    new PbcCodec(dict)
  }

  /** Fails with both strings escaped (`Bench.printable`): the assertion
    * macro would print them raw, lone surrogates included.
    */
  private def assertRoundTrip(codec: PbcCodec, rec: String): Unit = {
    val back = codec.decompress(codec.compress(rec))
    if (back != rec) fail(s"lossy on: '${printable(rec)}' came back as '${printable(back)}'")
  }

  // ---- round-trips on every dataset (small scale) ----

  for (name <- MachineData.all) {
    test(s"PBC round-trips every record of $name") {
      val records = MachineData.records(name, if (name == "unece") 50 else 500)
      val codec = trainOn(records)
      records.foreach { rec =>
        assertRoundTrip(codec, rec)
      }
    }
  }

  for (name <- Seq("KV1", "Android", "github", "uuid")) {
    test(s"PBC_F round-trips every record of $name") {
      val records = MachineData.records(name, 300)
      val codec = trainOn(records, withFsst = true)
      records.foreach { rec =>
        assertRoundTrip(codec, rec)
      }
    }
  }

  // ---- compression behaviour ----

  test("templated data compresses below 60% of raw") {
    val records = MachineData.records("KV1", 2000)
    val codec = trainOn(records, k = 16)
    val raw = records.map(_.getBytes("UTF-8").length).sum
    val comp = records.map(r => codec.compress(r).length).sum
    assert(comp.toDouble / raw < 0.6, s"ratio=${comp.toDouble / raw}")
  }

  test("records unseen at training time still round-trip (generalization)") {
    val train = MachineData.records("KV3", 1000, seed = 1)
    val fresh = MachineData.records("KV3", 1000, seed = 999)
    val codec = trainOn(train, k = 16)
    fresh.foreach(r => assert(codec.decompress(codec.compress(r)) == r))
  }

  test("outliers are stored raw and round-trip") {
    val codec = trainOn(Vector.fill(50)("AAAA-1234"), k = 2)
    val outlier = "completely different record §§§"
    assert(codec.decompress(codec.compress(outlier)) == outlier)
    assert(codec.outlierCount >= 1)
  }

  test("outlier rate is tracked") {
    val codec = trainOn(Vector.fill(50)("AAAA-1234"), k = 2)
    codec.compress("AAAA-5678")
    codec.compress("zzz")
    assert(codec.recordCount == 2)
    assert(codec.outlierRate > 0.0 && codec.outlierRate <= 1.0)
  }

  test("matched records do not count as outliers") {
    val records = (0 until 100).map(i => f"item=$i%03d done").toVector
    val codec = trainOn(records, k = 2)
    records.foreach(codec.compress)
    assert(codec.outlierCount == 0, s"outliers=${codec.outlierCount}")
  }

  test("empty record round-trips") {
    val codec = trainOn(Vector("abc", "abd"), k = 1)
    assert(codec.decompress(codec.compress("")) == "")
  }

  test("unicode record round-trips (as outlier)") {
    val codec = trainOn(Vector("abc", "abd"), k = 1)
    val s = "héllo 世界 ✓"
    assert(codec.decompress(codec.compress(s)) == s)
  }

  test("property: arbitrary strings always round-trip") {
    val codec = trainOn(MachineData.records("KV4", 200), k = 8)
    forAllSeeded(200) { r =>
      val s = randomAscii(r, 80)
      assertRoundTrip(codec, s)
    }
  }

  test("property: PBC_F arbitrary strings always round-trip") {
    val codec = trainOn(MachineData.records("KV4", 200), k = 8, withFsst = true)
    forAllSeeded(200) { r =>
      val s = randomAscii(r, 80)
      assertRoundTrip(codec, s)
    }
  }

  // ---- non-BMP characters (code points outside the UTF-16 BMP) ----

  private def cp(c: Int): String = new String(Character.toChars(c))

  test("emoji in a pattern field round-trip under PBC and PBC_F") {
    // all 40 emoji share their high surrogate; a Char-based pattern kept
    // it as a literal and lost the low surrogate in the field
    val records = (0 until 40).map(i => "user=a" + cp(0x1F600 + i) + " ok").toVector
    for (withFsst <- Seq(false, true)) {
      val codec = trainOn(records, withFsst = withFsst)
      records.foreach { rec =>
        // compared as code points: a lossy result holds a lone surrogate,
        // which the test report's XML writer cannot encode
        val back = codec.decompress(codec.compress(rec))
        assert(back.codePoints.toArray.toSeq == rec.codePoints.toArray.toSeq,
          s"lossy (fsst=$withFsst) on: ${rec.codePoints.toArray.mkString(",")}")
      }
    }
  }

  /** Valid Unicode strings built from code points (lone surrogates cannot
    * survive UTF-8): every plane, the glob metacharacters `*` and `\`,
    * and the empty string.
    */
  private val codePoint: Gen[Int] = Gen.frequency(
    4 -> Gen.oneOf('*'.toInt, '\\'.toInt, ' '.toInt, '='.toInt),
    12 -> Gen.choose(0x20, 0x7e),
    2 -> Gen.choose(0x80, 0xd7ff),
    1 -> Gen.choose(0xe000, 0xffff),
    3 -> Gen.choose(0x10000, 0x10ffff))
  private val unicode: Gen[String] =
    Gen.listOf(codePoint).map(cps => new String(cps.toArray, 0, cps.length))

  /** Records of the training template with arbitrary field values (the
    * first one starts with an emoji that shares its high surrogate with
    * the literal before it), free strings, and the empty record; fields
    * may make records longer than the 24-code-point pattern cap.
    */
  private val record: Gen[String] = Gen.frequency(
    1 -> Gen.const(""),
    3 -> unicode,
    6 -> Gen.zip(Gen.choose(0x1F600, 0x1F64F), unicode, Gen.choose(0, 2),
        Gen.frequency(3 -> Gen.const(""), 1 -> unicode)).map { case (e, a, j, b) =>
      s"user=${cp(0x1F600)}${cp(e)}$a *path\\x${cp(0x10400 + j)} ok$b"
    })

  private val unicodeCorpus: Vector[String] = (0 until 200).map { i =>
    s"user=${cp(0x1F600)}${cp(0x1F600 + i % 40)}$i *path\\x${cp(0x10400 + i % 3)} ok"
  }.toVector

  for (withFsst <- Seq(false, true)) {
    val variant = if (withFsst) "PBC_F" else "PBC"
    test(s"property: $variant round-trips valid Unicode strings") {
      val codec = new PbcCodec(PatternExtractor.train(unicodeCorpus,
        PatternExtractor.Config(k = 4, sampleSize = 60, maxPatternLen = 24, withFsst = withFsst)))
      // no shrinking: ScalaCheck shrinks strings by Char, which splits
      // surrogate pairs into strings UTF-8 cannot carry
      check(Prop.forAllNoShrink(record)(s => codec.decompress(codec.compress(s)) == s), tests = 500)
    }
  }

  test("PBC_F requires an FSST-bearing dictionary") {
    val dict = PatternExtractor.train(Vector("a", "b"), PatternExtractor.Config(k = 1))
    intercept[IllegalArgumentException](new PbcCodec(dict, useFsst = true))
  }

  test("the dictionary decides PBC or PBC_F; useFsst = false strips its table") {
    val records = MachineData.records("Android", 300)
    val dict = PatternExtractor.train(records, PatternExtractor.Config(k = 8, sampleSize = 60, withFsst = true))
    val fsst = new PbcCodec(dict)
    val plain = new PbcCodec(dict, useFsst = false)
    assert(fsst.useFsst && !plain.useFsst && plain.dict.fsst.isEmpty)
    assert(new ValueCodec.PbcF(fsst).name == "PBC_F")
    assert(new ValueCodec.PbcF(plain).name == "PBC")
    val viaDict = new PbcCodec(dict.copy(fsst = None))
    records.foreach { r =>
      assert(java.util.Arrays.equals(plain.compress(r), viaDict.compress(r)))
      assert(fsst.decompress(fsst.compress(r)) == r)
    }
  }

  test("PBC_F compresses at least as well as PBC on text-heavy data") {
    val records = MachineData.records("Android", 1000)
    val plain = trainOn(records, k = 16)
    val fsst = trainOn(records, k = 16, withFsst = true)
    val a = records.map(r => plain.compress(r).length.toLong).sum
    val b = records.map(r => fsst.compress(r).length.toLong).sum
    assert(b <= a, s"PBC_F=$b should be <= PBC=$a")
  }

  test("compressed records decode with a deserialized dictionary") {
    val records = MachineData.records("KV5", 300)
    val dict = PatternExtractor.train(records, PatternExtractor.Config(k = 8))
    val codec1 = new PbcCodec(dict)
    val codec2 = new PbcCodec(PatternDictionary.deserialize(dict.serialize))
    records.take(50).foreach { r =>
      assert(codec2.decompress(codec1.compress(r)) == r)
    }
  }

  // ---- malformed input ----

  private lazy val kv1 = MachineData.records("KV1", 400)
  private lazy val kv1Codecs = Vector(trainOn(kv1, k = 16), trainOn(kv1, k = 16, withFsst = true))

  test("a short, cut or over-long record and an unknown pattern id are PbcCorruptExceptions") {
    for (codec <- kv1Codecs) {
      val matched = kv1.map(codec.compress).find(_(0) != 0).get
      for (bad <- Seq(Array[Byte](0x7f), Array(0xff.toByte, 0xff.toByte), Array.emptyByteArray,
                      matched.dropRight(2), matched :+ 0.toByte))
        intercept[PbcCorruptException](codec.decompress(bad))
    }
  }

  test("property: damaged records decode or raise PbcCorruptException, nothing else") {
    val outliers = Vector("", "completely different record", "héllo 世界 " + cp(0x1F600))
    val encoded: Gen[(PbcCodec, Array[Byte])] = for {
      codec <- Gen.oneOf(kv1Codecs)
      rec <- Gen.frequency(8 -> Gen.oneOf(kv1), 1 -> Gen.oneOf(outliers))
    } yield (codec, codec.compress(rec))
    val byte: Gen[Byte] = Gen.choose(0, 255).map(_.toByte)
    val damaged: Gen[(PbcCodec, Array[Byte])] = Gen.oneOf(
      Gen.zip(Gen.oneOf(kv1Codecs), Gen.listOf(byte).map(_.toArray)),
      for ((c, b) <- encoded; n <- Gen.choose(0, b.length)) yield (c, b.take(n)),
      for ((c, b) <- encoded; i <- Gen.choose(0, b.length - 1); v <- byte) yield (c, b.updated(i, v)),
      for ((c, b) <- encoded; extra <- Gen.nonEmptyListOf(byte)) yield (c, b ++ extra))
    check(Prop.forAllNoShrink(damaged) { case (codec, bytes) =>
      try { codec.decompress(bytes); true }
      catch { case _: PbcCorruptException => true }
    }, tests = 2000)
  }

  // ---- framing ----

  test("Framing pack/unpack round-trips") {
    forAllSeeded(50) { r =>
      val recs = Vector.fill(r.nextInt(10))(randomBytes(r, 40))
      val unpacked = Framing.unpack(Framing.pack(recs.iterator))
      assert(unpacked.size == recs.size)
      unpacked.zip(recs).foreach { case (a, b) => assert(a.toSeq == b.toSeq) }
    }
  }

  test("Framing of an empty iterator is empty") {
    assert(Framing.unpack(Framing.pack(Iterator.empty)).isEmpty)
  }
}
