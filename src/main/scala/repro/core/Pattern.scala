package repro.core

/** Token of a pattern's common subsequence: a literal Unicode code point
  * or a wildcard (`*`) marking one residual field.
  *
  * Literals are code points, not UTF-16 `Char`s: a surrogate pair split
  * between a literal and a field would leave a lone surrogate in the
  * field, which does not survive UTF-8 encoding.
  */
sealed trait PTok extends Serializable
object PTok {
  final case class Lit(c: Int) extends PTok
  case object Wild extends PTok

  /** Literal tokens for a whole string, one per code point. */
  def lits(s: String): Vector[PTok] = s.codePoints.toArray.iterator.map(Lit.apply).toVector

  /** Collapse runs of adjacent wildcards into a single wildcard. */
  def normalize(toks: Seq[PTok]): Vector[PTok] = {
    val out = Vector.newBuilder[PTok]
    var prevWild = false
    toks.foreach {
      case Wild => if (!prevWild) out += Wild; prevWild = true
      case l    => out += l; prevWild = false
    }
    out.result()
  }
}

/** A pattern: alternating literal runs and wildcards, e.g. `ab*c*` has
  * runs ["ab", "c"] with fields after "ab" and after "c".
  *
  * The paper matches patterns as regular expressions (via Hyperscan); we
  * use an equivalent greedy glob matcher: matching every literal run at
  * its earliest feasible position is complete for `*`-globs, and the
  * final run is anchored at the end of the record when the pattern does
  * not end with a wildcard. Wildcards may capture empty strings.
  */
final case class Pattern(tokens: Vector[PTok]) extends Serializable {
  import PTok._

  /** Literal chunks around the fields: `chunk(0) f0 chunk(1) f1 ... chunk(n)`
    * (possibly empty chunks) — precomputed so rendering appends whole
    * strings instead of single code points. Built without a ClassTag,
    * like the DP's arrays in [[EncodingLength.merge]], which constructs
    * patterns.
    */
  private val chunks: Array[String] = {
    val out = new Array[String](tokens.count(_ == Wild) + 1)
    val sb = new java.lang.StringBuilder
    var f = 0
    tokens.foreach {
      case Lit(c) => sb.appendCodePoint(c)
      case Wild   => out(f) = sb.toString; sb.setLength(0); f += 1
    }
    out(f) = sb.toString
    out
  }

  /** Literal runs in order. */
  val runs: Vector[String] = chunks.iterator.filter(_.nonEmpty).toVector

  val startsWithWild: Boolean = tokens.headOption.contains(Wild)
  val endsWithWild: Boolean   = tokens.lastOption.contains(Wild)

  /** Number of wildcard fields. */
  val numFields: Int = tokens.count(_ == Wild)

  /** Total literal code points — the paper's tiebreaker ("longest pattern"). */
  val litLen: Int = tokens.count(_.isInstanceOf[Lit])

  /** Match `s` against this pattern; returns the captured residual field
    * values (one per wildcard, in order) or None if the pattern does not
    * match.
    */
  def matchRecord(s: String): Option[Vector[String]] = {
    if (runs.isEmpty) {
      // pure-wildcard pattern: single field capturing everything
      return if (numFields == 1) Some(Vector(s)) else None
    }
    val caps = Vector.newBuilder[String]
    var i = 0
    var r = 0
    // leading anchored run
    if (!startsWithWild) {
      val run = runs(0)
      if (!s.startsWith(run)) return None
      i = run.length; r = 1
    }
    val lastAnchored = !endsWithWild
    val lastRunIdx = runs.length - 1
    while (r < runs.length) {
      val run = runs(r)
      if (lastAnchored && r == lastRunIdx) {
        val start = s.length - run.length
        if (start < i || !s.startsWith(run, start)) return None
        caps += s.substring(i, start)
        i = s.length
      } else {
        val idx = s.indexOf(run, i)
        if (idx < 0) return None
        caps += s.substring(i, idx)
        i = idx + run.length
      }
      r += 1
    }
    if (endsWithWild) caps += s.substring(i)
    else if (i != s.length) return None
    Some(caps.result())
  }

  /** Reassemble a record from captured field values. */
  def render(fields: IndexedSeq[String]): String =
    renderWith(fields.length, fields.apply)

  /** Streaming variant: `fieldAt` is called once per field, in order —
    * lets the decompressor decode fields straight into the output.
    */
  def renderWith(n: Int, fieldAt: Int => String): String = {
    val sb = new StringBuilder(litLen + 16 * n)
    var f = 0
    while (f < n) {
      sb.append(chunks(f)).append(fieldAt(f))
      f += 1
    }
    sb.append(chunks(f))
    sb.toString
  }

  /** Glob rendering, `*` = wildcard (literal `*` escaped as `\*`). */
  def glob: String = {
    val sb = new java.lang.StringBuilder
    tokens.foreach {
      case Lit(c) =>
        if (c == '*' || c == '\\') sb.append('\\')
        sb.appendCodePoint(c)
      case Wild => sb.append('*')
    }
    sb.toString
  }
}

object Pattern {
  /** Exact-literal pattern for a single record (the initial cluster
    * pattern). Records longer than `maxLen` are truncated with a trailing
    * wildcard absorbing the tail, bounding the DP table size.
    */
  def ofRecord(s: String, maxLen: Int = Int.MaxValue): Pattern = {
    val lits = PTok.lits(s)
    if (lits.length <= maxLen) Pattern(lits)
    else Pattern(lits.take(maxLen) :+ PTok.Wild)
  }
}
