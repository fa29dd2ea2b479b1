package perfbench

import repro.core.PatternDictionary

/** The benchmark's own longest-first dispatch, written apart from the
  * codec's matcher, to check the pattern id the codec writes into each
  * record header.
  *
  * Each dictionary pattern is read back from its glob rendering (`*` is
  * a field, `\*` and `\\` are literals) and matched with a position
  * table: `can(t)(i)` tells whether tokens `t..` match the record from
  * character `i`. A field then takes the shortest capture after which
  * the rest still matches. A pattern wins when it matches and every
  * field encoder accepts its capture; patterns are tried in dictionary
  * order, which is longest literal first.
  */
final class Oracle(dict: PatternDictionary) {
  private val Wild = -1

  /** Tokens per pattern: a char code, or [[Wild]]. */
  private val tokens: Vector[Array[Int]] = dict.patterns.map { cp =>
    val g = cp.pattern.glob
    val out = Array.newBuilder[Int]
    var i = 0
    while (i < g.length) {
      g(i) match {
        case '\\' if i + 1 < g.length => out += g(i + 1).toInt; i += 1
        case '*'                      => out += Wild
        case c                        => out += c.toInt
      }
      i += 1
    }
    out.result()
  }

  /** Field captures of pattern `p` on `s`, or None when it does not match. */
  def captures(p: Int, s: String): Option[Array[String]] = {
    val tok = tokens(p)
    val t = tok.length
    val n = s.length
    // cheap rejects: the leading and trailing literal runs
    var k = 0
    while (k < t && tok(k) != Wild) { if (k >= n || s.charAt(k) != tok(k)) return None; k += 1 }
    k = 0
    while (k < t && tok(t - 1 - k) != Wild) {
      if (k >= n || s.charAt(n - 1 - k) != tok(t - 1 - k)) return None
      k += 1
    }
    val can = Array.ofDim[Boolean](t + 1, n + 1)
    can(t)(n) = true
    var ti = t - 1
    while (ti >= 0) {
      var i = n
      while (i >= 0) {
        can(ti)(i) =
          if (tok(ti) == Wild) can(ti + 1)(i) || (i < n && can(ti)(i + 1))
          else i < n && s.charAt(i) == tok(ti) && can(ti + 1)(i + 1)
        i -= 1
      }
      ti -= 1
    }
    if (!can(0)(0)) return None
    val caps = Array.newBuilder[String]
    var i = 0
    ti = 0
    while (ti < t) {
      if (tok(ti) == Wild) {
        var j = i
        while (!can(ti + 1)(j)) j += 1
        caps += s.substring(i, j)
        i = j
      } else i += 1
      ti += 1
    }
    Some(caps.result())
  }

  /** Header value the codec must write for `s`: 0 for an outlier, else
    * the winning pattern's index + 1; with the winner's captures.
    */
  def dispatch(s: String): (Int, Array[String]) = {
    var p = 0
    while (p < tokens.length) {
      captures(p, s) match {
        case Some(caps) if caps.indices.forall(f => dict.patterns(p).encoders(f).accepts(caps(f))) =>
          return (p + 1, caps)
        case _ => ()
      }
      p += 1
    }
    (0, Array(s))
  }
}

object Oracle {
  /** The header varint at the start of a compressed record. */
  def header(b: Array[Byte]): Long = {
    var v = 0L
    var shift = 0
    var i = 0
    var more = true
    while (more) {
      val x = b(i) & 0xff
      v |= (x & 0x7fL) << shift
      shift += 7
      i += 1
      more = (x & 0x80) != 0
    }
    v
  }
}
