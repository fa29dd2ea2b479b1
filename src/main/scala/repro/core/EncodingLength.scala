package repro.core

/** Minimal-encoding-length merging of two clusters (paper §4.2,
  * Algorithms 1–2, monotonic-encoder variant).
  *
  * Given the common subsequences `cs_x`, `cs_y` of two clusters (with
  * wildcards marking existing residual fields) and the cluster sizes,
  * the dynamic program computes the minimal encoding length *increment*
  * of merging them under the monotonic VARCHAR cost model:
  *
  *  - a literal character demoted from pattern to residual costs
  *    `size` bytes (one payload byte per member of the cluster it came
  *    from);
  *  - opening a new residual field (an `isPattern -> isRS` transition)
  *    costs `size_x + size_y` bytes of length descriptors;
  *  - an existing wildcard absorbed into a field refunds its already-
  *    counted `size` descriptor bytes (`UpdateState` lines 5–6).
  *
  * Besides the increment, backpointers reconstruct the merged pattern:
  * diagonally matched literals survive; everything else collapses into
  * wildcards.
  */
object EncodingLength {
  import PTok._

  final val Inf: Long = Long.MaxValue / 4

  /** Result of a merge: the encoding-length increment and the merged
    * pattern (None when the DP was aborted by `bound`).
    */
  final case class Merge(increment: Long, merged: Pattern)

  /** Algorithm 1, exact two-layer form. `bound`: abort (return None) as
    * soon as every state on a DP row exceeds it — the §5.1
    * early-termination. `descriptorCost = false` drops the
    * field-descriptor terms, turning the objective into the §6 entropy
    * criterion (Eq. 9: plain residual symbol count increase).
    *
    * The paper's Algorithm 1 stores a single `type` per cell; that loses
    * optimality when a cell is reachable at equal (or trading) cost with
    * both ending types — an `isRS` ending is weakly cheaper downstream
    * (no pending descriptor charge), while an `isPattern` ending may have
    * strictly lower cost. We therefore keep *two* cost layers per cell
    * (ending in pattern / ending in residual), which preserves the
    * O(n·m) bound and makes the DP provably equal to exhaustive
    * alignment enumeration (tested against it).
    */
  def merge(
      csX: Vector[PTok],
      csY: Vector[PTok],
      sizeX: Int,
      sizeY: Int,
      bound: Long = Inf,
      descriptorCost: Boolean = true
  ): Option[Merge] = {
    val n = csX.length
    val m = csY.length
    val descr = if (descriptorCost) (sizeX + sizeY).toLong else 0L
    // tokens as ints for the hot loop: -1 = wildcard, else the code point
    val x = new Array[Int](n)
    val y = new Array[Int](m)
    var ti = 0
    csX.foreach { t => x(ti) = (t match { case Lit(c) => c; case Wild => -1 }); ti += 1 }
    ti = 0
    csY.foreach { t => y(ti) = (t match { case Lit(c) => c; case Wild => -1 }); ti += 1 }

    // two cost layers per row: ending type Pattern (P) and Residual (R)
    val prevP = new Array[Long](m + 1)
    val prevR = new Array[Long](m + 1)
    val curP  = new Array[Long](m + 1)
    val curR  = new Array[Long](m + 1)
    // backpointers per (cell, layer): packed byte
    //   bits 0-1: direction (1 = diag, 2 = up, 3 = left)
    //   bit  2  : source layer (0 = Pattern, 1 = Residual)
    // allocated without a ClassTag: the ClassTag cache holds its tags
    // weakly, so after the first GC the compiled DP met a null there and
    // was deoptimized in the middle of training
    val backP = new Array[Array[Byte]](n + 1)
    val backR = new Array[Array[Byte]](n + 1)
    for (i <- 0 to n) { backP(i) = new Array[Byte](m + 1); backR(i) = new Array[Byte](m + 1) }

    @inline def stepCost(srcCost: Long, srcIsPattern: Boolean, isWild: Boolean, size: Int): Long = {
      if (srcCost >= Inf) return Inf
      var s = srcCost
      if (srcIsPattern) s += descr
      if (isWild) { if (descriptorCost) s -= size }
      else s += size
      s
    }

    prevP(0) = 0L; prevR(0) = Inf
    var j = 1
    while (j <= m) {
      val wild = y(j - 1) < 0
      val fromP = stepCost(prevP(j - 1), srcIsPattern = true, wild, sizeY)
      val fromR = stepCost(prevR(j - 1), srcIsPattern = false, wild, sizeY)
      if (fromP <= fromR) { prevR(j) = fromP; backR(0)(j) = 3 }
      else { prevR(j) = fromR; backR(0)(j) = (3 | 4).toByte }
      prevP(j) = Inf
      j += 1
    }
    var i = 1
    while (i <= n) {
      val xt = x(i - 1)
      val xWild = xt < 0
      locally {
        val fromP = stepCost(prevP(0), srcIsPattern = true, xWild, sizeX)
        val fromR = stepCost(prevR(0), srcIsPattern = false, xWild, sizeX)
        if (fromP <= fromR) { curR(0) = fromP; backR(i)(0) = 2 }
        else { curR(0) = fromR; backR(i)(0) = (2 | 4).toByte }
      }
      curP(0) = Inf
      var rowMin = curR(0)
      val backRi = backR(i)
      val backPi = backP(i)
      j = 1
      while (j <= m) {
        val yt = y(j - 1)
        val yWild = yt < 0
        // Residual layer: consume x (up) or y (left), from either layer.
        var bestC: Long = Inf
        var bestB: Byte = 0
        val upP = stepCost(prevP(j), srcIsPattern = true, xWild, sizeX)
        val upR = stepCost(prevR(j), srcIsPattern = false, xWild, sizeX)
        if (upP <= upR) { bestC = upP; bestB = 2 } else { bestC = upR; bestB = (2 | 4).toByte }
        val lP = stepCost(curP(j - 1), srcIsPattern = true, yWild, sizeY)
        val lR = stepCost(curR(j - 1), srcIsPattern = false, yWild, sizeY)
        if (lP < bestC) { bestC = lP; bestB = 3 }
        if (lR < bestC) { bestC = lR; bestB = (3 | 4).toByte }
        curR(j) = bestC; backRi(j) = bestB
        // Pattern layer: diagonal on matching literals, from either layer.
        if (xt >= 0 && xt == yt) {
          val dP = prevP(j - 1); val dR = prevR(j - 1)
          if (dP <= dR) { curP(j) = dP; backPi(j) = 1 }
          else { curP(j) = dR; backPi(j) = (1 | 4).toByte }
        } else curP(j) = Inf
        val cellMin = math.min(curR(j), curP(j))
        if (cellMin < rowMin) rowMin = cellMin
        j += 1
      }
      if (rowMin > bound) return None // §5.1 pruning (3)
      System.arraycopy(curP, 0, prevP, 0, m + 1)
      System.arraycopy(curR, 0, prevR, 0, m + 1)
      i += 1
    }
    val inc = math.min(prevP(m), prevR(m))
    if (inc > bound) return None

    // Reconstruct the merged pattern by walking the backpointers.
    val toks = scala.collection.mutable.ArrayBuffer.empty[PTok]
    var bi = n; var bj = m
    var inPatternLayer = prevP(m) <= prevR(m)
    while (bi > 0 || bj > 0) {
      val b = if (inPatternLayer) backP(bi)(bj) else backR(bi)(bj)
      val dir = b & 3
      val srcIsR = (b & 4) != 0
      dir match {
        case 1 => toks += Lit(x(bi - 1)); bi -= 1; bj -= 1
        case 2 => toks += Wild; bi -= 1
        case 3 => toks += Wild; bj -= 1
        case _ => throw new IllegalStateException(s"no backpointer at ($bi,$bj)")
      }
      inPatternLayer = !srcIsR
    }
    Some(Merge(inc, Pattern(PTok.normalize(toks.reverseIterator.toSeq))))
  }
}
