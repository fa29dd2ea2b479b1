package repro.sparkpbc

import java.io.{BufferedOutputStream, DataOutputStream, FileOutputStream}
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, Paths, StandardOpenOption}
import scala.util.Using
import scala.util.control.NonFatal
import repro.core.{PatternDictionary, PbcCorruptException}

/** On-disk layout of a `.pbc` file — the container behind the `pbc`
  * DataSourceV2 format.
  *
  * {{{
  *   "PBC1"                      4 B   magic
  *   dictLen                     4 B   big-endian
  *   dict bytes                        serialized PatternDictionary
  *   record payloads                   back-to-back PbcCodec outputs
  *   offsets                 n * 8 B   absolute offset of each record
  *   offsetsStart                8 B
  *   nRecords                    4 B
  *   "PBCE"                      4 B   end magic
  * }}}
  *
  * The trailing fixed-width offset index is what gives *per-record
  * random access*: a [[PbcFiles.Reader]] reads the 16-byte tail once,
  * then each [[PbcFiles.Reader.record]] is two positional reads (the
  * record's index entries, then its payload) and decompresses only that
  * record — the paper's core advantage over block-wise compression
  * (§7.2.2). The path-based entry points open a `Reader` per call.
  */
object PbcFiles {
  private val Magic = 0x50424331 // "PBC1"
  private val EndMagic = 0x50424345 // "PBCE"
  private val HeaderLen = 8
  private val TailLen = 16
  /** Bytes each of the scan's two cursors (payloads, index) reads at a time. */
  private val ScanBuffer = 1 << 16

  final class Writer(path: Path, dictBytes: Array[Byte]) {
    private val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path.toFile)))
    private var offsets = new Array[Long](1024)
    private var n = 0
    private var pos: Long = 0L

    out.writeInt(Magic); pos += 4
    out.writeInt(dictBytes.length); pos += 4
    out.write(dictBytes); pos += dictBytes.length

    def append(record: Array[Byte]): Unit = {
      if (n == offsets.length) offsets = java.util.Arrays.copyOf(offsets, 2 * n)
      offsets(n) = pos
      n += 1
      out.write(record)
      pos += record.length
    }

    def close(): Long = {
      val offsetsStart = pos
      var i = 0
      while (i < n) { out.writeLong(offsets(i)); i += 1 }
      out.writeLong(offsetsStart)
      out.writeInt(n)
      out.writeInt(EndMagic)
      out.close()
      n.toLong
    }
  }

  /** An open `.pbc` file. Opening reads and checks the 16-byte tail;
    * the header and dictionary are read by [[dict]] and [[records]].
    * Every read is positional, so one `Reader` may serve several threads.
    * Malformed files raise [[repro.core.PbcCorruptException]].
    */
  final class Reader(path: Path) extends AutoCloseable {
    private val ch = FileChannel.open(path, StandardOpenOption.READ)
    private val size: Long = ch.size()
    private val tail: ByteBuffer =
      try {
        if (size < HeaderLen + TailLen) corrupt(s"$size bytes is shorter than an empty file")
        val t = read(size - TailLen, TailLen)
        val (start, n) = (t.getLong(0), t.getInt(8))
        if (t.getInt(12) != EndMagic) corrupt("no PBCE end magic")
        if (n < 0 || start < HeaderLen || start != size - TailLen - 8L * n)
          corrupt(s"an index of $n records at $start does not fit $size bytes")
        t
      } catch { case e: Throwable => ch.close(); throw e }

    /** Where the offset index starts, which is where the payloads end. */
    private val offsetsStart: Long = tail.getLong(0)
    /** Number of records. */
    val count: Int = tail.getInt(8)

    private lazy val dictLen: Int = {
      val h = read(0, HeaderLen)
      if (h.getInt(0) != Magic) corrupt("no PBC1 magic")
      val len = h.getInt(4)
      if (len < 0 || HeaderLen + len.toLong > offsetsStart)
        corrupt(s"a $len-byte dictionary does not fit before the payloads at $offsetsStart")
      len
    }

    /** The pattern dictionary every record of the file was written with. */
    def dict(): PatternDictionary = {
      val bytes = read(HeaderLen, dictLen).array
      try PatternDictionary.deserialize(bytes)
      catch { case NonFatal(e) => throw new PbcCorruptException(s"$path: a damaged dictionary ($e)", e) }
    }

    /** Record `i`'s compressed bytes: its index entries, then its payload. */
    def record(i: Int): Array[Byte] = {
      require(i >= 0 && i < count, s"record $i out of range [0,$count)")
      val last = i + 1 == count
      val idx = read(offsetsStart + 8L * i, if (last) 8 else 16)
      val start = idx.getLong(0)
      val end = if (last) offsetsStart else idx.getLong(8)
      val out = new Array[Byte](recordLength(i, start, end))
      readFully(ByteBuffer.wrap(out), start)
      out
    }

    /** Every record's compressed bytes in file order. The payloads and
      * the index stream through two fixed-size buffers, so memory does
      * not grow with the file.
      */
    def records(): Iterator[Array[Byte]] = {
      val payloads = new Cursor(HeaderLen + dictLen, offsetsStart)
      val index = new Cursor(offsetsStart, size - TailLen)
      var start = if (count > 0) index.long() else offsetsStart
      if (start != HeaderLen + dictLen)
        corrupt(s"record 0 starts at $start, not where the dictionary ends (${HeaderLen + dictLen})")
      Iterator.tabulate(count) { i =>
        val end = if (i + 1 < count) index.long() else offsetsStart
        val out = payloads.bytes(recordLength(i, start, end))
        start = end
        out
      }
    }

    override def close(): Unit = ch.close()

    private def corrupt(why: String): Nothing = throw new PbcCorruptException(s"$path: $why")

    /** Record `i`'s length, checked before anything is allocated for it. */
    private def recordLength(i: Int, start: Long, end: Long): Int = {
      if (start < HeaderLen || end < start || end > offsetsStart)
        corrupt(s"record $i spans [$start, $end), outside the payloads [$HeaderLen, $offsetsStart)")
      if (end - start > Int.MaxValue) corrupt(s"record $i is ${end - start} bytes long")
      (end - start).toInt
    }

    private def read(at: Long, n: Int): ByteBuffer = {
      val b = ByteBuffer.allocate(n)
      readFully(b, at)
      b
    }

    private def readFully(dst: ByteBuffer, at: Long): Unit = {
      var p = at
      while (dst.hasRemaining) {
        val r = ch.read(dst, p)
        if (r < 0) corrupt(s"ends at $p, inside a read that the index places before $size")
        p += r
      }
    }

    /** Sequential reads of `[pos, end)` through one buffer. No caller
      * reads past `end`: the index exactly fills its region, and each
      * record's length is checked against the payloads before it is read.
      */
    private final class Cursor(private var pos: Long, end: Long) {
      private val buf = ByteBuffer.allocate(ScanBuffer).limit(0)

      def long(): Long = { fill(8); buf.getLong() }

      def bytes(n: Int): Array[Byte] = {
        val out = new Array[Byte](n)
        if (n <= buf.capacity) { fill(n); buf.get(out) }
        else {
          val have = buf.remaining
          buf.get(out, 0, have)
          readFully(ByteBuffer.wrap(out, have, n - have), pos)
          pos += n - have
        }
        out
      }

      /** Make at least `n` bytes, `n` at most the buffer's capacity, available. */
      private def fill(n: Int): Unit = if (buf.remaining < n) {
        buf.compact()
        val want = math.min(buf.remaining.toLong, end - pos).toInt
        buf.limit(buf.position + want)
        readFully(buf, pos)
        pos += want
        buf.flip()
      }
    }
  }

  final case class Loaded(dict: PatternDictionary, records: Vector[Array[Byte]])

  /** Load a whole file: the dictionary and every record's bytes. */
  def readAll(path: Path): Loaded =
    Using.resource(new Reader(path))(r => Loaded(r.dict(), r.records().toVector))

  /** Number of records without loading payloads. */
  def recordCount(path: Path): Int = Using.resource(new Reader(path))(_.count)

  /** Random access: read and return only record `i`'s compressed bytes;
    * neighbouring records are never touched. A caller with many lookups
    * into one file keeps a [[Reader]] open instead.
    */
  def readRecord(path: Path, i: Int): Array[Byte] = Using.resource(new Reader(path))(_.record(i))

  /** The dictionary of a file (shared by every record in it). */
  def readDict(path: Path): PatternDictionary = Using.resource(new Reader(path))(_.dict())

  /** All part files of a dataset directory, deterministically ordered. */
  def listParts(dir: String): Vector[Path] = {
    import scala.jdk.CollectionConverters._
    val d = Paths.get(dir)
    if (!Files.isDirectory(d)) return Vector.empty
    val s = Files.list(d)
    try s.iterator().asScala
      .filter(_.getFileName.toString.endsWith(".pbc")).toVector.sortBy(_.toString)
    finally s.close()
  }
}
