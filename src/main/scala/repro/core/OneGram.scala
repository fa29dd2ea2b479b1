package repro.core

/** §5.1 — 1-gram (character multiset) lower bound for the merge DP.
  *
  * For a character `c` occurring `cx` times among the literals of
  * `cs_x` and `cy` times in `cs_y`, at most `min(cx, cy)` occurrences
  * can be aligned into the merged pattern; every surplus occurrence
  * must be demoted to a residual, costing `size_x` (resp. `size_y`)
  * bytes. Descriptor terms are non-negative in aggregate (a new field
  * charges `size_x + size_y` and refunds at most one `size_x` and one
  * `size_y` wildcard), so
  *
  *   payload lb = Σ_c (cx−min)·size_x + (cy−min)·size_y.
  *
  * Descriptor charges are non-negative and wildcard refunds are bounded
  * by `wilds_x·size_x + wilds_y·size_y` in total, so
  *
  *   max(0, payload lb − wilds_x·size_x − wilds_y·size_y) ≤ ELI(c_x, c_y).
  *
  * Computable in O(alphabet) from cached histograms, versus O(n·m) for
  * the DP — this is the pruning filter of the paper's §5.1.
  */
object OneGram {

  /** Histogram of the literal code points of a pattern. */
  def histogram(p: Pattern): Map[Int, Int] = {
    val m = scala.collection.mutable.Map.empty[Int, Int]
    p.tokens.foreach {
      case PTok.Lit(c) => m.update(c, m.getOrElse(c, 0) + 1)
      case PTok.Wild   => ()
    }
    m.toMap
  }

  /** Lower bound of the encoding-length increment of merging.
    * `wildsX`/`wildsY`: wildcard counts of the two patterns (their
    * descriptor refunds are subtracted to keep the bound sound).
    */
  def lowerBound(
      hx: Map[Int, Int], hy: Map[Int, Int],
      sizeX: Int, sizeY: Int,
      wildsX: Int = 0, wildsY: Int = 0
  ): Long = {
    var lb = 0L
    hx.foreach { case (c, cx) =>
      val cy = hy.getOrElse(c, 0)
      if (cx > cy) lb += (cx - cy).toLong * sizeX
    }
    hy.foreach { case (c, cy) =>
      val cx = hx.getOrElse(c, 0)
      if (cy > cx) lb += (cy - cx).toLong * sizeY
    }
    math.max(0L, lb - wildsX.toLong * sizeX - wildsY.toLong * sizeY)
  }
}
