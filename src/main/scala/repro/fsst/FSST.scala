package repro.fsst

import java.io.ByteArrayOutputStream
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
  * Training follows the paper's iterative bottom-up construction: encode
  * the sample with the current table, count emitted symbols and adjacent
  * pairs, score candidates by `gain = count * length`, keep the best 255.
  */
final class FsstTable(val symbols: Array[Array[Byte]]) extends Serializable {
  require(symbols.length <= 255, s"at most 255 symbols, got ${symbols.length}")
  require(symbols.forall(s => s.length >= 1 && s.length <= 8), "symbols are 1..8 bytes")

  /** First-byte index: candidates sorted longest-first for greedy match. */
  @transient private lazy val byFirst: Array[Array[Int]] = {
    val tmp = Array.fill(256)(List.empty[Int])
    symbols.indices.foreach { i =>
      val fb = symbols(i)(0) & 0xff
      tmp(fb) = i :: tmp(fb)
    }
    tmp.map(_.sortBy(i => -symbols(i).length).toArray)
  }

  private def matchesAt(input: Array[Byte], pos: Int, sym: Array[Byte]): Boolean = {
    if (pos + sym.length > input.length) return false
    var i = 0
    while (i < sym.length) {
      if (input(pos + i) != sym(i)) return false
      i += 1
    }
    true
  }

  /** Code of the longest symbol matching at `pos`, or -1. */
  def longestMatch(input: Array[Byte], pos: Int): Int = {
    val cands = byFirst(input(pos) & 0xff)
    var ci = 0
    while (ci < cands.length) {
      if (matchesAt(input, pos, symbols(cands(ci)))) return cands(ci)
      ci += 1
    }
    -1
  }

  /** Greedy longest-match encoding. */
  def encode(input: Array[Byte]): Array[Byte] = {
    val out = new ByteArrayOutputStream(math.max(16, input.length))
    var pos = 0
    while (pos < input.length) {
      val code = longestMatch(input, pos)
      if (code >= 0) {
        out.write(code)
        pos += symbols(code).length
      } else {
        out.write(0xff) // escape
        out.write(input(pos))
        pos += 1
      }
    }
    out.toByteArray
  }

  def decode(coded: Array[Byte]): Array[Byte] = {
    val out = new ByteArrayOutputStream(coded.length * 2)
    var pos = 0
    while (pos < coded.length) {
      val c = coded(pos) & 0xff
      if (c == 0xff) { out.write(coded(pos + 1)); pos += 2 }
      else { val s = symbols(c); out.write(s, 0, s.length); pos += 1 }
    }
    out.toByteArray
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

  /** The identity table: everything escaped (used before training). */
  val empty: FsstTable = new FsstTable(Array.empty)
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
      val unitPos = scala.collection.mutable.ArrayBuffer.empty[Int]
      val unitLen = scala.collection.mutable.ArrayBuffer.empty[Int]
      var pos = 0
      while (pos < sample.length) {
        val code = if (table.symbols.isEmpty) -1 else table.longestMatch(sample, pos)
        val len = if (code >= 0) table.symbols(code).length else 1
        unitPos += pos; unitLen += len
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
      while (u < unitPos.length) {
        bump(unitPos(u), unitLen(u))
        if (u + 1 < unitPos.length)
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
