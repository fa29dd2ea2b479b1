package repro.sparkpbc

import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardOpenOption}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import scala.util.{Random, Using}
import repro.PropUtil
import repro.core.{PatternDictionary, PbcCodec, PbcCorruptException}
import repro.data.MachineData

/** The `.pbc` container on its own: the writer's bytes, the `Reader`'s
  * random access and scan, and typed errors on malformed files.
  */
class PbcFilesSpec extends AnyFunSuite with BeforeAndAfterAll with PropUtil {

  private val dir = Files.createTempDirectory("pbc-files")
  override def afterAll(): Unit = Using.resource(Files.list(dir)) { files =>
    files.forEach(f => Files.delete(f))
    Files.delete(dir)
  }
  private val emptyDict = PatternDictionary(Vector.empty, None).serialize

  private def write(name: String, records: Seq[Array[Byte]], dictBytes: Array[Byte] = emptyDict): Path = {
    val p = dir.resolve(name)
    val w = new PbcFiles.Writer(p, dictBytes)
    records.foreach(w.append)
    assert(w.close() == records.size)
    p
  }

  private def withReader[A](p: Path)(f: PbcFiles.Reader => A): A = Using.resource(new PbcFiles.Reader(p))(f)

  /** Every read the `Reader` and the path-based entry points offer. */
  private def readEverything(p: Path): Unit = {
    withReader(p) { r =>
      r.dict()
      r.records().foreach(_ => ())
      (0 until r.count).foreach(r.record)
    }
    PbcFiles.readAll(p)
    PbcFiles.readDict(p)
    PbcFiles.recordCount(p)
    PbcFiles.readRecord(p, 0)
  }

  private def copyWith(p: Path, name: String)(edit: Array[Byte] => Array[Byte]): Path =
    Files.write(dir.resolve(name), edit(Files.readAllBytes(p)))

  private def putLong(b: Array[Byte], at: Int, v: Long): Array[Byte] = { ByteBuffer.wrap(b).putLong(at, v); b }

  private def sameBytes(a: Seq[Array[Byte]], b: Seq[Array[Byte]]): Boolean =
    a.length == b.length && a.indices.forall(i => java.util.Arrays.equals(a(i), b(i)))

  private val small: Vector[Array[Byte]] = {
    val r = new Random(5)
    Vector.fill(30)(randomBytes(r, 40)) :+ Array.empty[Byte]
  }

  test("files written before the Reader existed read back identically and are rewritten byte for byte") {
    // kv1-40.pbc: the first 40 KV1 records under PBC_F; empty.pbc: no
    // records, the same dictionary. Both were written by the
    // RandomAccessFile-era code of commit b30e35b.
    def resource(name: String) = Path.of(getClass.getResource(s"/pbc/$name").toURI)
    val fixture = resource("kv1-40.pbc")
    val records = MachineData.records("KV1", 40)
    withReader(fixture) { r =>
      val codec = new PbcCodec(r.dict())
      assert(r.count == 40)
      assert(r.records().map(codec.decompress).toVector == records)
      assert(records.indices.forall(i => codec.decompress(r.record(i)) == records(i)))
    }
    val bytes = Files.readAllBytes(fixture)
    val dictBytes = java.util.Arrays.copyOfRange(bytes, 8, 8 + ByteBuffer.wrap(bytes).getInt(4))
    val again = write("rewritten.pbc", PbcFiles.readAll(fixture).records, dictBytes)
    assert(java.util.Arrays.equals(Files.readAllBytes(again), bytes))
    val empty = write("empty-again.pbc", Nil, dictBytes)
    assert(java.util.Arrays.equals(Files.readAllBytes(empty), Files.readAllBytes(resource("empty.pbc"))))
  }

  test("a file with no records") {
    val p = write("none.pbc", Nil)
    withReader(p) { r =>
      assert(r.count == 0)
      assert(r.dict() == PatternDictionary(Vector.empty, None))
      assert(r.records().isEmpty)
      intercept[IllegalArgumentException](r.record(0))
    }
    assert(PbcFiles.readAll(p).records.isEmpty)
    assert(PbcFiles.recordCount(p) == 0)
  }

  test("record(i) equals the scan on every record, the last and the empty one included") {
    val p = write("small.pbc", small)
    withReader(p) { r =>
      assert(r.count == small.size)
      assert(sameBytes(r.records().toVector, small))
      assert(sameBytes((0 until r.count).map(r.record), small))
      intercept[IllegalArgumentException](r.record(-1))
      intercept[IllegalArgumentException](r.record(r.count))
    }
    assert(sameBytes(PbcFiles.readAll(p).records, small))
    assert(java.util.Arrays.equals(PbcFiles.readRecord(p, small.size - 1), small.last))
  }

  test("the scan crosses its buffers: an index longer than one buffer and records longer than one") {
    val r = new Random(11)
    val records = Vector.tabulate(20000) { i =>
      val b = new Array[Byte](if (i % 5000 == 7) 200000 else r.nextInt(31))
      r.nextBytes(b)
      b
    }
    val p = write("large.pbc", records)
    withReader(p) { rd =>
      assert(sameBytes(rd.records().toVector, records))
      assert(Seq(0, 7, 5007, 12345, 19999).forall(i => java.util.Arrays.equals(rd.record(i), records(i))))
    }
  }

  test("a file cut short at any length is a PbcCorruptException, on every read") {
    val p = write("to-cut.pbc", small)
    val full = Files.readAllBytes(p)
    for (len <- 0 until full.length) {
      val cut = copyWith(p, "cut.pbc")(java.util.Arrays.copyOf(_, len))
      intercept[PbcCorruptException](new PbcFiles.Reader(cut))
      intercept[PbcCorruptException](PbcFiles.readRecord(cut, 0))
      intercept[PbcCorruptException](PbcFiles.recordCount(cut))
      intercept[PbcCorruptException](PbcFiles.readAll(cut))
      intercept[PbcCorruptException](PbcFiles.readDict(cut))
    }
  }

  test("bad magics, an index that does not fit and offsets out of order are PbcCorruptExceptions") {
    val p = write("to-break.pbc", small)
    val size = Files.size(p).toInt
    val offsetsStart = size - 16 - 8 * small.size
    val broken = Seq(
      copyWith(p, "head.pbc") { b => b(0) = 'X'; b },
      copyWith(p, "end.pbc") { b => b(size - 1) = 'X'; b },
      copyWith(p, "count.pbc") { b => ByteBuffer.wrap(b).putInt(size - 8, small.size + 1); b },
      copyWith(p, "start.pbc")(putLong(_, size - 16, offsetsStart - 8L)),
      copyWith(p, "dictlen.pbc") { b => ByteBuffer.wrap(b).putInt(4, Int.MaxValue); b },
      copyWith(p, "order.pbc") { b =>
        val i = small.indexWhere(_.nonEmpty)
        val (at, next) = (offsetsStart + 8 * i, offsetsStart + 8 * (i + 1))
        val bb = ByteBuffer.wrap(b)
        putLong(putLong(b, at, bb.getLong(next)), next, bb.getLong(at))
      },
      copyWith(p, "first.pbc")(putLong(_, offsetsStart, 9L)),
    )
    broken.foreach(f => intercept[PbcCorruptException](readEverything(f)))
  }

  test("a dictionary damaged at any byte parses or is a PbcCorruptException") {
    val fixture = Path.of(getClass.getResource("/pbc/kv1-40.pbc").toURI)
    val dictLen = ByteBuffer.wrap(Files.readAllBytes(fixture)).getInt(4)
    var parsed = 0
    for (at <- 8 until 8 + dictLen) {
      val damaged = copyWith(fixture, "damaged.pbc") { b => b(at) = 0xff.toByte; b }
      try { PbcFiles.readDict(damaged); parsed += 1 }
      catch { case _: PbcCorruptException => () }
    }
    assert(parsed < dictLen)
  }

  test("dictionaries that claim 2^30 bytes, or have bytes left over, are PbcCorruptExceptions") {
    val gib = Array[Byte](0x80.toByte, 0x80.toByte, 0x80.toByte, 0x80.toByte, 0x04) // varint 2^30
    val damaged = Seq(
      // one pattern of one wildcard whose encoder tag is 2^30 bytes long
      "tag-length.pbc" -> (Array[Byte](1, 1, 0) ++ gib),
      // no patterns and an FSST table of 2^30 symbols
      "fsst-count.pbc" -> (Array[Byte](0, 1) ++ gib),
      "left-over.pbc" -> (emptyDict :+ 0.toByte),
    )
    for ((name, dictBytes) <- damaged) {
      val p = write(name, small, dictBytes)
      intercept[PbcCorruptException](PbcFiles.readDict(p))
      intercept[PbcCorruptException](PbcFiles.readAll(p))
    }
  }

  test("offsets past 2 GiB are a PbcCorruptException before any allocation") {
    // in a small file they pass the index
    val p = write("far.pbc", small)
    val offsetsStart = Files.size(p).toInt - 16 - 8 * small.size
    val far = copyWith(p, "far-index.pbc")(putLong(_, offsetsStart + 8, 3L << 30))
    withReader(far) { r =>
      intercept[PbcCorruptException](r.record(0))
      intercept[PbcCorruptException](r.records().foreach(_ => ()))
    }
    // in a sparse 3 GiB file one record spans the whole payload region
    val huge = dir.resolve("huge.pbc")
    val start = 8L + emptyDict.length
    val end = start + (3L << 30)
    val head = ByteBuffer.allocate(8 + emptyDict.length).putInt(0x50424331).putInt(emptyDict.length).put(emptyDict)
    val tail = ByteBuffer.allocate(8 + 16).putLong(start).putLong(end).putInt(1).putInt(0x50424345)
    Using.resource(FileChannel.open(huge, StandardOpenOption.CREATE_NEW, StandardOpenOption.WRITE)) { ch =>
      ch.write(head.flip(), 0)
      ch.write(tail.flip(), end)
    }
    try withReader(huge) { r =>
      assert(r.count == 1)
      val e = intercept[PbcCorruptException](r.record(0))
      assert(e.getMessage.contains("3221225472 bytes long"))
      intercept[PbcCorruptException](r.records().foreach(_ => ()))
    } finally Files.delete(huge)
  }
}
