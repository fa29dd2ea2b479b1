package repro.core

import scala.collection.mutable

/** Agglomerative minimal-encoding-length clustering (paper §4.2, Fig. 3).
  *
  * Every sampled record starts as its own cluster; each iteration merges
  * the pair with the minimal encoding-length increment (Problem 2) until
  * `k` clusters remain. Candidate pairs are managed in a lazy priority
  * queue: entries are either *exact* DP results or cheap 1-gram lower
  * bounds (§5.1); a bound entry popped at the head is refined with the
  * DP (bounded by the next entry's key, enabling the paper's in-DP early
  * abort) and re-inserted, so the greedy choice is still exact.
  */
object Clustering {

  /** Merge criterion — the paper's EL-based criterion plus the two
    * ablation baselines of §7.3.1.
    */
  sealed trait Criterion
  object Criterion {
    /** Minimal encoding length increment (the paper's contribution). */
    case object EncodingLengthBased extends Criterion
    /** §6 entropy criterion: residual symbol-count increase only. */
    case object EntropyBased extends Criterion
    /** Naive Levenshtein distance over the pattern strings. */
    case object EditDistanceBased extends Criterion
  }

  /** A cluster under construction: the pattern that covers its `size`
    * records. The records themselves are not kept — training picks field
    * encoders from calibration captures, not from cluster members.
    */
  final case class Cluster(pattern: Pattern, size: Int) {
    lazy val histogram: Map[Int, Int] = OneGram.histogram(pattern)
  }

  final case class Config(
      k: Int = 32,
      maxPatternLen: Int = 1024,
      criterion: Criterion = Criterion.EncodingLengthBased,
      usePruning: Boolean = true
  )

  private final case class Entry(cost: Long, a: Int, b: Int, va: Long, vb: Long,
                                 exact: Boolean, merged: Pattern)
  private implicit val entryOrd: Ordering[Entry] = Ordering.by[Entry, Long](_.cost).reverse

  /** Plain Levenshtein over glob strings — ablation baseline. */
  private[core] def editDistance(a: String, b: String): Long = {
    val prev = new Array[Int](b.length + 1)
    val cur = new Array[Int](b.length + 1)
    for (j <- 0 to b.length) prev(j) = j
    for (i <- 1 to a.length) {
      cur(0) = i
      for (j <- 1 to b.length) {
        val sub = prev(j - 1) + (if (a(i - 1) == b(j - 1)) 0 else 1)
        cur(j) = math.min(math.min(prev(j) + 1, cur(j - 1) + 1), sub)
      }
      System.arraycopy(cur, 0, prev, 0, b.length + 1)
    }
    prev(b.length).toLong
  }

  def cluster(samples: Seq[String], cfg: Config = Config()): Vector[Cluster] = {
    require(samples.nonEmpty, "cannot cluster an empty sample")

    // Pre-merge identical records — merging duplicates has increment 0.
    val grouped = samples.groupBy(identity).toVector.sortBy(_._1)
    val initial = grouped.map { case (rec, occ) =>
      Cluster(Pattern.ofRecord(rec, cfg.maxPatternLen), occ.size)
    }
    mergeDown(initial, cfg.k, cfg)
  }

  /** Agglomerative merging from an existing cluster set down to `k`
    * clusters (also used to derive coarse fallback patterns from the
    * primary clustering).
    */
  def mergeDown(initial: Vector[Cluster], k: Int, cfg: Config = Config()): Vector[Cluster] = {
    val clusters = mutable.Map.empty[Int, Cluster]
    var nextId = 0
    initial.foreach { c => clusters(nextId) = c; nextId += 1 }
    if (clusters.size <= k) return clusters.values.toVector

    val version = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    val pq = mutable.PriorityQueue.empty[Entry]

    def cost(x: Cluster, y: Cluster, bound: Long): Option[(Long, Option[Pattern])] =
      cfg.criterion match {
        case Criterion.EncodingLengthBased =>
          EncodingLength.merge(x.pattern.tokens, y.pattern.tokens, x.size, y.size, bound)
            .map(m => (m.increment, Some(m.merged)))
        case Criterion.EntropyBased =>
          EncodingLength.merge(x.pattern.tokens, y.pattern.tokens, x.size, y.size, bound,
            descriptorCost = false).map(m => (m.increment, Some(m.merged)))
        case Criterion.EditDistanceBased =>
          val d = editDistance(x.pattern.glob, y.pattern.glob)
          if (d > bound) None else Some((d, None))
      }

    def lowerBound(x: Cluster, y: Cluster): Long =
      if (!cfg.usePruning || cfg.criterion == Criterion.EditDistanceBased) 0L
      else OneGram.lowerBound(x.histogram, y.histogram, x.size, y.size,
        x.pattern.numFields, y.pattern.numFields)

    def push(a: Int, b: Int): Unit = {
      val (lo, hi) = if (a < b) (a, b) else (b, a)
      val lb = lowerBound(clusters(lo), clusters(hi))
      pq.enqueue(Entry(lb, lo, hi, version(lo), version(hi), exact = false, merged = null))
    }

    val ids = clusters.keys.toVector
    for (i <- ids.indices; j <- (i + 1) until ids.size) push(ids(i), ids(j))

    var live = clusters.size
    while (live > k && pq.nonEmpty) {
      val e = pq.dequeue()
      val valid = clusters.contains(e.a) && clusters.contains(e.b) &&
        version(e.a) == e.va && version(e.b) == e.vb
      if (valid) {
        if (e.exact) {
          // Merge the pair with the minimal increment.
          val x = clusters(e.a); val y = clusters(e.b)
          val merged =
            if (e.merged != null) e.merged
            else // edit-distance criterion carries no merged pattern — build one
              EncodingLength.merge(x.pattern.tokens, y.pattern.tokens, x.size, y.size).get.merged
          clusters.remove(e.a); clusters.remove(e.b)
          version(e.a) += 1; version(e.b) += 1
          val id = nextId; nextId += 1
          clusters(id) = Cluster(merged, x.size + y.size)
          live -= 1
          clusters.keys.foreach(o => if (o != id) push(o, id))
        } else {
          // Refine a bound entry once with a full DP and cache it as exact.
          // The 1-gram bound keeps far-apart pairs from ever reaching this
          // point (§5.1 step 2); refining head entries fully avoids
          // re-running partial DPs when many pairs tie near the minimum.
          val (c, mergedOpt) = cost(clusters(e.a), clusters(e.b), EncodingLength.Inf).get
          pq.enqueue(Entry(c, e.a, e.b, e.va, e.vb, exact = true, mergedOpt.orNull))
        }
      }
    }
    clusters.values.toVector
  }
}
