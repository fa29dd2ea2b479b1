package repro.core

import scala.util.Random

/** Offline pattern-extraction phase (paper Fig. 1a): sample → clusters →
  * patterns with per-field encoders → dictionary.
  */
object PatternExtractor {

  final case class Config(
      /** Target number of patterns (k of Problem 1; "pattern size"). */
      k: Int = 32,
      /** Records drawn from the corpus for clustering. */
      sampleSize: Int = 150,
      /** Pattern length cap — longer records keep a trailing wildcard. */
      maxPatternLen: Int = 1024,
      criterion: Clustering.Criterion = Clustering.Criterion.EncodingLengthBased,
      /** Train an FSST table on residuals for the `PBC_F` variant. */
      withFsst: Boolean = false,
      seed: Long = 42L
  )

  /** Records matched against the patterns to calibrate field encoders.
    * Clustering samples are small (the DP is O(S²·n·m)), so fixed-shape
    * encoders chosen from a handful of captures can reject valid field
    * values at compression time, cascading into outliers; matching is
    * cheap, so encoders are selected from a much larger capture sample.
    */
  private val CalibrationSize = 1000

  /** Deterministic sample of `cfg.sampleSize` records. */
  def sample(records: Seq[String], cfg: Config): Vector[String] = {
    if (records.size <= cfg.sampleSize) records.toVector
    else {
      val rnd = new Random(cfg.seed)
      val idx = rnd.shuffle(records.indices.toVector).take(cfg.sampleSize).sorted
      idx.map(records.apply)
    }
  }

  /** Extract the dictionary from a corpus.
    *
    * A cluster's pattern enters the dictionary only if it is the first
    * match of at least one calibration record, tried longest-literal-first
    * as the compressor tries them; each wildcard gets the cheapest encoder
    * accepting every value it captured there (paper Table 1). Patterns
    * without literals are dropped; their records go to other patterns or
    * the outlier path.
    *
    * Besides the k primary clusters, the merging is continued to a small
    * number of *coarse* clusters whose (more general, shorter-literal)
    * patterns are appended as fallbacks. Specific patterns still win —
    * matching is longest-literal-first — but records that drift from the
    * sampled value shapes degrade to a general pattern instead of the
    * raw outlier path. This keeps the outlier rate low with the small
    * samples used here (the paper uses multi-MB samples and re-triggers
    * extraction when the outlier counter crosses a threshold).
    */
  def train(records: Seq[String], cfg: Config = Config()): PatternDictionary = {
    require(records.nonEmpty, "cannot train on an empty corpus")
    val samp = sample(records, cfg)
    val clusterCfg = Clustering.Config(cfg.k, cfg.maxPatternLen, cfg.criterion)
    val clusters = Clustering.cluster(samp, clusterCfg)
    val coarse = Clustering.mergeDown(clusters, math.max(2, cfg.k / 4), clusterCfg)

    // Order by descending literal length (longest-match-first at
    // compression time); drop degenerate all-wildcard patterns, which
    // would win records at one byte more than the outlier path.
    val candidates = (clusters ++ coarse)
      .filter(_.pattern.litLen > 0)
      .sortBy(c => (-c.pattern.litLen, c.pattern.glob))
      .map(_.pattern)

    // Calibration: match a larger sample through the candidates the way
    // the compressor will (longest-first glob match) and collect captures.
    val calib = sample(records, cfg.copy(sampleSize = CalibrationSize, seed = cfg.seed + 1))
    val captures: Map[Int, Vector[Vector[String]]] = calib
      .flatMap { r =>
        candidates.indices.iterator
          .map(i => i -> candidates(i).matchRecord(r))
          .collectFirst { case (i, Some(caps)) => i -> caps }
      }
      .groupMap(_._1)(_._2)

    // a candidate that no calibration record selects is left out
    val compiled = captures.toVector.sortBy(_._1).map { case (i, caps) =>
      val p = candidates(i)
      CompiledPattern(p, Vector.tabulate(p.numFields)(f => FieldEncoder.select(caps.map(_(f)))))
    }

    val fsst =
      if (!cfg.withFsst) None
      else {
        // Train on residual field values + outliers of the sample.
        val chunks = samp.flatMap { r =>
          compiled.iterator
            .map(cp => cp.pattern.matchRecord(r))
            .collectFirst { case Some(caps) => caps }
            .getOrElse(Vector(r))
        }.map(_.getBytes("UTF-8"))
        Some(repro.fsst.Fsst.train(chunks))
      }

    PatternDictionary(compiled, fsst)
  }
}
