package repro.core

/** Reference implementations that the specs compare the codec against.
  * Exhaustive or slow by design: tiny inputs only.
  */
object Reference {
  import EncodingLength.Merge

  /** Reference O(|F|·n²·m²)-style solver: exhaustively enumerates every
    * order-preserving alignment of equal literal tokens and charges the
    * same cost model as [[EncodingLength.merge]]. Exponential.
    */
  def mergeBruteForce(
      csX: Vector[PTok],
      csY: Vector[PTok],
      sizeX: Int,
      sizeY: Int,
      descriptorCost: Boolean = true
  ): Merge = {
    val descr = if (descriptorCost) (sizeX + sizeY).toLong else 0L

    var best: Merge = null
    def walk(i: Int, j: Int, acc: Long, isPattern: Boolean, toks: Vector[PTok]): Unit = {
      if (i == csX.length && j == csY.length) {
        val merged = Pattern(PTok.normalize(toks))
        if (best == null || acc < best.increment) best = Merge(acc, merged)
        return
      }
      @inline def consume(tok: PTok, size: Int): (Long, PTok) = {
        var a = (if (isPattern) descr else 0L)
        tok match {
          case PTok.Wild   => if (descriptorCost) a -= size
          case PTok.Lit(_) => a += size
        }
        (a, PTok.Wild)
      }
      // diagonal on equal literals
      if (i < csX.length && j < csY.length) (csX(i), csY(j)) match {
        case (PTok.Lit(a), PTok.Lit(b)) if a == b =>
          walk(i + 1, j + 1, acc, isPattern = true, toks :+ csX(i))
        case _ => ()
      }
      if (i < csX.length) {
        val (d, t) = consume(csX(i), sizeX)
        walk(i + 1, j, acc + d, isPattern = false, toks :+ t)
      }
      if (j < csY.length) {
        val (d, t) = consume(csY(j), sizeY)
        walk(i, j + 1, acc + d, isPattern = false, toks :+ t)
      }
    }
    walk(0, 0, 0L, isPattern = true, Vector.empty)
    best
  }

  /** The paper's Definition 5 distance (multiset symmetric form):
    * |MS1 ∪ MS2| − 2·|MS1 ∩ MS2| with multiset union = Σ max and
    * intersection = Σ min.
    */
  def dist1(s1: String, s2: String): Long = {
    val h1 = s1.groupMapReduce(identity)(_ => 1)(_ + _)
    val h2 = s2.groupMapReduce(identity)(_ => 1)(_ + _)
    val chars = h1.keySet ++ h2.keySet
    var union = 0L; var inter = 0L
    chars.foreach { c =>
      val a = h1.getOrElse(c, 0); val b = h2.getOrElse(c, 0)
      union += math.max(a, b); inter += math.min(a, b)
    }
    union - 2 * inter
  }

  /** Java-regex rendering of a pattern (what the paper feeds to
    * Hyperscan); compile with `DOTALL`.
    */
  def toRegex(p: Pattern): String =
    p.tokens.map {
      case PTok.Lit(c) => java.util.regex.Pattern.quote(Character.toString(c))
      case PTok.Wild   => "(.*?)"
    }.mkString("^", "", "$")
}
