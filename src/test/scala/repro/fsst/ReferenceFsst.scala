package repro.fsst

import java.io.ByteArrayOutputStream

/** The FSST coder [[FsstTable]] must agree with byte for byte: greedy
  * longest match over a first-byte candidate list, byte-by-byte compares,
  * no index. Among equal symbols the highest code wins, because each
  * list holds the codes in descending order before the stable sort by
  * length.
  */
final class ReferenceFsst(symbols: Array[Array[Byte]]) {

  private val byFirst: Array[Array[Int]] = {
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

  private def longestMatch(input: Array[Byte], pos: Int): Int = {
    val cands = byFirst(input(pos) & 0xff)
    var ci = 0
    while (ci < cands.length) {
      if (matchesAt(input, pos, symbols(cands(ci)))) return cands(ci)
      ci += 1
    }
    -1
  }

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
}
