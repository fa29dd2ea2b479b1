package repro.fsst

import java.io.ByteArrayOutputStream
import java.nio.{ByteBuffer, ByteOrder}
import repro.core.{ByteReader, ByteWriter}

/** Fast Static Symbol Table (FSST; Boncz, Neumann & Leis, VLDB 2020),
  * reimplemented on the JVM.
  *
  * A table of at most 255 symbols (1–8 bytes each, codes 0–254) replaces
  * frequent substrings by one-byte codes; code 255 escapes a literal
  * byte. Compression and decompression are per-string, preserving random
  * access — FSST is both a baseline (Table 3) and the residual backbone
  * of `PBC_F`.
  *
  * `encode` is greedy: at each position it emits the longest symbol that
  * matches there, or an escape. Among equal symbols (a hand-built or
  * deserialized table may repeat one) the highest code wins. The matcher
  * follows the FSST paper's kernel over an index built once per table:
  *  - a 65 536-entry short-code table keyed by the next two bytes, holding
  *    the best match of at most two bytes (the 2-byte symbol, else the
  *    1-byte symbol of the first byte, else an escape);
  *  - the symbols of 3–8 bytes in buckets keyed by their first two bytes,
  *    longest first, each a little-endian word with a mask, so one 8-byte
  *    load of the input and one masked compare test a symbol. Every symbol
  *    sits in its bucket, so no match is lost to a collision.
  * Within the last 7 bytes the load is zero-padded, and a symbol also has
  * to fit in what is left. `decode` stores each symbol's whole word into
  * an output of 8 bytes per code and cuts it once. Neither keeps state
  * between calls, and the index is not part of the serialized table.
  *
  * Training follows the paper's iterative bottom-up construction: encode
  * the sample with the current table, count emitted symbols and adjacent
  * pairs, score candidates by `gain = count * length`, keep the best 255.
  */
final class FsstTable(val symbols: Array[Array[Byte]]) extends Serializable {
  require(symbols.length <= 255, s"at most 255 symbols, got ${symbols.length}")
  require(symbols.forall(s => s.length >= 1 && s.length <= 8), "symbols are 1..8 bytes")

  /** Built with the table, not lazily: a lazy field's first read on each
    * new table trapped out of the compiled `encode` and `PbcCodec.compress`
    * (an `unstable_if` deoptimization) every time a dictionary was
    * trained. Not serialized; `readResolve` builds it again.
    */
  @transient private[fsst] val index: FsstTable.Index = new FsstTable.Index(symbols)

  private def readResolve(): AnyRef = new FsstTable(symbols)

  /** Greedy longest-match encoding. */
  def encode(input: Array[Byte]): Array[Byte] = {
    val ix = index
    val words = FsstTable.littleEndian(input)
    val out = new Array[Byte](2 * input.length)
    var pos = 0
    var o = 0
    while (pos < input.length) {
      val m = ix.matchAt(words, pos)
      val code = m & 0xff
      out(o) = code.toByte
      if (code == FsstTable.Escape) { out(o + 1) = input(pos); o += 2 }
      else o += 1
      pos += m >>> 8
    }
    java.util.Arrays.copyOf(out, o)
  }

  /** The bytes `coded` was encoded from. A code past the end of the table
    * or an escape with no byte after it raises an
    * `IndexOutOfBoundsException`.
    */
  def decode(coded: Array[Byte]): Array[Byte] = {
    val ix = index
    // a code writes at most 8 bytes, so every symbol's whole word fits;
    // the bytes past its length are written again by what follows
    val out = new Array[Byte](8 * coded.length)
    val words = FsstTable.littleEndian(out)
    var p = 0
    var o = 0
    while (p < coded.length) {
      val c = coded(p) & 0xff
      if (c == FsstTable.Escape) { out(o) = coded(p + 1); o += 1; p += 2 }
      else { words.putLong(o, ix.symWord(c)); o += ix.symLen(c); p += 1 }
    }
    java.util.Arrays.copyOf(out, o)
  }

  def serialize(out: ByteWriter): Unit = {
    out.writeVarInt(symbols.length.toLong)
    symbols.foreach { s => out.writeVarInt(s.length.toLong); out.writeBytes(s) }
  }
}

object FsstTable {
  def deserialize(in: ByteReader): FsstTable = {
    val n = in.readVarInt()
    // each symbol takes at least its length byte: a count past that is
    // damage, and is rejected before the array is allocated
    if (n < 0 || n > in.remaining)
      throw new IllegalArgumentException(s"$n FSST symbols in ${in.remaining} bytes")
    new FsstTable(Array.fill(n.toInt)(in.readBytes(in.readVarInt().toInt)))
  }

  private[fsst] final val Escape = 0xff

  /** The identity table: everything escaped (used before training). */
  val empty: FsstTable = new FsstTable(Array.empty)

  /** `b` read in little-endian words. A `ByteBuffer`, not a `VarHandle`:
    * the JIT compiles a `VarHandle` access to a plain load only when the
    * handle is a static final field, which a Scala object cannot declare.
    */
  private[fsst] def littleEndian(b: Array[Byte]): ByteBuffer = ByteBuffer.wrap(b).order(ByteOrder.LITTLE_ENDIAN)

  /** The 8 bytes at `pos` as a little-endian word, zero-padded past the
    * end of `b`.
    */
  private def loadWord(b: ByteBuffer, pos: Int): Long =
    if (b.limit() - pos >= 8) b.getLong(pos)
    else {
      var w = 0L
      var i = b.limit() - 1
      while (i >= pos) { w = (w << 8) | (b.get(i) & 0xffL); i -= 1 }
      w
    }

  /** The matcher's tables for one symbol table. A match is encoded as
    * `(length << 8) | code`, an escape as `(1 << 8) | Escape`.
    */
  private[fsst] final class Index(symbols: Array[Array[Byte]]) {
    // Plain arrays and loops throughout: an array built through a ClassTag
    // (`map`, `fill`, `toArray`) is written through
    // `ScalaRunTime.array_update`, and each new element type there
    // deoptimized compiled training code sharing it, mid-training.
    val symLen = new Array[Int](symbols.length)
    /** Each symbol's bytes as a little-endian word, zero-padded. */
    val symWord = new Array[Long](symbols.length)
    for (c <- symbols.indices) {
      symLen(c) = symbols(c).length
      symWord(c) = loadWord(littleEndian(symbols(c)), 0)
    }

    private def prefix(code: Int): Int = symWord(code).toInt & 0xffff

    // codes ascend, so among equal symbols the highest code is written last
    private val single = new Array[Short](256)
    java.util.Arrays.fill(single, ((1 << 8) | Escape).toShort)
    for (c <- symbols.indices) if (symLen(c) == 1) single(prefix(c)) = ((1 << 8) | c).toShort

    private val short: Array[Short] = {
      // `single` repeated for every second byte, by doubling copies: a
      // loop over the 65 536 keys ran interpreted in the first trainings
      // of a JVM and doubled their time
      val t = new Array[Short](1 << 16)
      System.arraycopy(single, 0, t, 0, 256)
      var filled = 256
      while (filled < t.length) { System.arraycopy(t, 0, t, filled, filled); filled *= 2 }
      for (c <- symbols.indices) if (symLen(c) == 2) t(prefix(c)) = ((2 << 8) | c).toShort
      t
    }

    /** The codes of the symbols of 3-8 bytes by first two bytes, then
      * longest and highest code first: sorted as keys packing the prefix,
      * 8 - length and 255 - code.
      */
    private val long: Array[Int] = {
      val keys = new Array[Int](symLen.count(_ > 2))
      var k = 0
      for (c <- symbols.indices) if (symLen(c) > 2) {
        keys(k) = (prefix(c) << 12) | ((8 - symLen(c)) << 8) | (255 - c)
        k += 1
      }
      java.util.Arrays.sort(keys)
      for (i <- keys.indices) keys(i) = 255 - (keys(i) & 0xff)
      keys
    }
    private val longWord = new Array[Long](long.length)
    private val longMask = new Array[Long](long.length)
    private val longMatch = new Array[Int](long.length)
    for (i <- long.indices) {
      val c = long(i)
      longWord(i) = symWord(c)
      longMask(i) = -1L >>> (64 - 8 * symLen(c))
      longMatch(i) = (symLen(c) << 8) | c
    }
    /** `(start << 8) | end` of each prefix's run in `long`: at most 255
      * symbols, so both fit in a byte.
      */
    private val bucket: Array[Char] = {
      val t = new Array[Char](1 << 16)
      var i = 0
      while (i < long.length) {
        val key = prefix(long(i))
        var j = i + 1
        while (j < long.length && prefix(long(j)) == key) j += 1
        t(key) = ((i << 8) | j).toChar
        i = j
      }
      t
    }

    /** The longest symbol that matches `in` at `pos`, or an escape. */
    def matchAt(in: ByteBuffer, pos: Int): Int = {
      val rem = in.limit() - pos
      val word = loadWord(in, pos)
      val key = word.toInt & 0xffff
      val range: Int = bucket(key)
      var i = range >>> 8
      val end = range & 0xff
      while (i < end) {
        val m = longMatch(i)
        if ((word & longMask(i)) == longWord(i) && (m >>> 8) <= rem) return m
        i += 1
      }
      // with one byte left, `key` is that byte
      if (rem >= 2) short(key) else single(key)
    }
  }
}

object Fsst {
  private val MaxSymbols = 255
  private val MaxSymbolLen = 8
  private val Iterations = 5
  private val MaxTrainBytes = 1 << 16

  private final class Key(val bytes: Array[Byte]) {
    override val hashCode: Int = java.util.Arrays.hashCode(bytes)
    override def equals(o: Any): Boolean = o match {
      case k: Key => java.util.Arrays.equals(bytes, k.bytes)
      case _      => false
    }
  }

  /** Gain descending, then shorter first, then unsigned bytes: a total
    * order, so training is deterministic.
    */
  private val byGain: Ordering[(Key, Long)] = Ordering.by[(Key, Long), Long](-_._2)
    .orElseBy(_._1.bytes.length)
    .orElse((x, y) => java.util.Arrays.compareUnsigned(x._1.bytes, y._1.bytes))

  /** Train a symbol table on a sample of byte chunks. */
  def train(sampleChunks: Iterable[Array[Byte]]): FsstTable = {
    val buf = new ByteArrayOutputStream()
    val it = sampleChunks.iterator
    while (it.hasNext && buf.size < MaxTrainBytes) {
      val c = it.next()
      buf.write(c, 0, math.min(c.length, MaxTrainBytes - buf.size))
    }
    val sample = buf.toByteArray
    if (sample.isEmpty) return FsstTable.empty

    var table = FsstTable.empty
    var iter = 0
    while (iter < Iterations) {
      // Walk the sample with the current table, recording emitted units.
      val index = table.index
      val words = FsstTable.littleEndian(sample)
      val unitPos = new Array[Int](sample.length)
      val unitLen = new Array[Int](sample.length)
      var units = 0
      var pos = 0
      while (pos < sample.length) {
        val len = index.matchAt(words, pos) >>> 8
        unitPos(units) = pos; unitLen(units) = len
        units += 1
        pos += len
      }
      // Count units and adjacent-pair concatenations; gain = freq * len.
      val gain = scala.collection.mutable.Map.empty[Key, Long]
      def bump(p: Int, l: Int): Unit =
        if (l >= 1 && l <= MaxSymbolLen) {
          val k = new Key(java.util.Arrays.copyOfRange(sample, p, p + l))
          gain.update(k, gain.getOrElse(k, 0L) + l)
        }
      var u = 0
      while (u < units) {
        bump(unitPos(u), unitLen(u))
        if (u + 1 < units)
          bump(unitPos(u), math.min(unitLen(u) + unitLen(u + 1), MaxSymbolLen))
        u += 1
      }
      // Reserve a slot for every single byte observed in the sample —
      // an escape costs 2 bytes, so dropping a seen byte from the table
      // can only lose; this bounds worst-case expansion on the trained
      // alphabet at 1.0x. Remaining slots go to multi-byte candidates.
      val singles = scala.collection.mutable.LinkedHashSet.empty[Byte]
      sample.foreach(singles += _)
      val singleSyms = singles.toVector.sorted.map(b => Array(b))
      val multis = gain.toVector
        .filter(_._1.bytes.length > 1)
        .sorted(byGain)
        .take(MaxSymbols - math.min(singleSyms.size, MaxSymbols))
        .map(_._1.bytes)
      table = new FsstTable((singleSyms.take(MaxSymbols) ++ multis).toArray)
      iter += 1
    }
    table
  }
}
