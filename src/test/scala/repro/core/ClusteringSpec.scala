package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropUtil
import scala.util.Random

class ClusteringSpec extends AnyFunSuite with PropUtil {

  private def templated(r: Random, n: Int): Vector[String] = {
    def d(k: Int) = (1 to k).map(_ => ('0' + r.nextInt(10)).toChar).mkString
    Vector.fill(n) {
      if (r.nextBoolean()) s"GET /item/${d(4)} status=200 t=${d(3)}ms"
      else s"login user=${d(6)} ok=true"
    }
  }

  /** Each sampled record matches at least one of the clusters' patterns. */
  private def assertCovered(sample: Seq[String], cs: Seq[Clustering.Cluster]): Unit =
    sample.foreach { m =>
      assert(cs.exists(_.pattern.matchRecord(m).isDefined),
        s"'$m' matches none of ${cs.map(_.pattern.glob).mkString("'", "', '", "'")}")
    }

  test("identical records pre-merge into one cluster") {
    val cs = Clustering.cluster(Vector.fill(10)("same"), Clustering.Config(k = 3))
    assert(cs.size == 1)
    assert(cs.head.size == 10)
    assert(cs.head.pattern.glob == "same")
  }

  test("cluster count respects k") {
    val r = new Random(1)
    val cs = Clustering.cluster(templated(r, 40), Clustering.Config(k = 2))
    assert(cs.size == 2)
  }

  test("two templates separate into two clusters") {
    val r = new Random(2)
    val cs = Clustering.cluster(templated(r, 40), Clustering.Config(k = 2))
    val globs = cs.map(_.pattern.glob).sorted
    assert(globs.exists(_.startsWith("GET /item/")), s"globs=$globs")
    assert(globs.exists(_.startsWith("login user=")), s"globs=$globs")
  }

  test("every sampled record matches a returned pattern") {
    val r = new Random(3)
    val sample = templated(r, 60)
    assertCovered(sample, Clustering.cluster(sample, Clustering.Config(k = 4)))
  }

  test("sizes sum to the sample size") {
    val r = new Random(4)
    val sample = templated(r, 50)
    val cs = Clustering.cluster(sample, Clustering.Config(k = 3))
    assert(cs.map(_.size).sum == sample.size)
  }

  test("pruning on and off produce equally good clusterings") {
    val r = new Random(5)
    val sample = templated(r, 30)
    def totalCost(cs: Vector[Clustering.Cluster]): Long =
      cs.map(c => c.pattern.numFields.toLong * c.size).sum
    val a = Clustering.cluster(sample, Clustering.Config(k = 2, usePruning = true))
    val b = Clustering.cluster(sample, Clustering.Config(k = 2, usePruning = false))
    // greedy order can differ on cost ties; the resulting quality must not
    assert(math.abs(totalCost(a) - totalCost(b)) <= totalCost(b) / 5 + 2,
      s"pruned=$a unpruned=$b")
  }

  test("k larger than distinct records returns every record as a cluster") {
    val cs = Clustering.cluster(Vector("a", "b", "c"), Clustering.Config(k = 10))
    assert(cs.size == 3)
  }

  test("edit-distance criterion still produces valid clusters") {
    val r = new Random(6)
    val sample = templated(r, 30)
    val cs = Clustering.cluster(sample,
      Clustering.Config(k = 2, criterion = Clustering.Criterion.EditDistanceBased))
    assert(cs.size == 2)
    assertCovered(sample, cs)
  }

  test("entropy criterion still produces valid clusters") {
    val r = new Random(7)
    val sample = templated(r, 30)
    val cs = Clustering.cluster(sample,
      Clustering.Config(k = 2, criterion = Clustering.Criterion.EntropyBased))
    assert(cs.size == 2)
    assertCovered(sample, cs)
  }

  test("maxPatternLen truncates long records but keeps them matchable") {
    val long = Vector.fill(5)("prefix-" + "x" * 100 + "-suffix")
    val cs = Clustering.cluster(long, Clustering.Config(k = 1, maxPatternLen = 20))
    assert(cs.head.pattern.tokens.length <= 21)
    assert(cs.head.pattern.matchRecord(long.head).isDefined)
  }

  test("empty sample is rejected") {
    intercept[IllegalArgumentException](Clustering.cluster(Nil))
  }

  test("editDistance is the standard Levenshtein") {
    assert(Clustering.editDistance("kitten", "sitting") == 3L)
    assert(Clustering.editDistance("", "abc") == 3L)
    assert(Clustering.editDistance("abc", "abc") == 0L)
  }

  test("EL criterion compresses better than edit distance on mixed templates") {
    // the paper's §7.3.1 ablation, miniature version
    val r = new Random(8)
    val sample = templated(r, 60)
    def encodedSize(crit: Clustering.Criterion): Long = {
      val dict = PatternExtractor.train(sample,
        PatternExtractor.Config(k = 2, sampleSize = 60, criterion = crit))
      val codec = new PbcCodec(dict)
      sample.map(s => codec.compress(s).length.toLong).sum
    }
    val el = encodedSize(Clustering.Criterion.EncodingLengthBased)
    val ed = encodedSize(Clustering.Criterion.EditDistanceBased)
    assert(el <= ed, s"EL=$el should be <= ED=$ed")
  }
}
