package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropUtil
import repro.data.MachineData
import scala.util.Random

class PatternExtractorSpec extends AnyFunSuite with PropUtil {

  private def trades(r: Random, n: Int): Vector[String] = Vector.fill(n) {
    val sym = Vector("IBM", "AAPL", "GOOG")(r.nextInt(3))
    val qty = 1 + r.nextInt(999)
    s"""{"symbol": "$sym", "quantity": $qty, "timestamp": 16${(1 to 8).map(_ => r.nextInt(10)).mkString}}"""
  }

  test("dictionary has at most k primary + k/4 coarse fallback patterns") {
    val r = new Random(1)
    val d = PatternExtractor.train(trades(r, 100), PatternExtractor.Config(k = 4, sampleSize = 80))
    assert(d.size <= 4 + 2 && d.size >= 1)
  }

  test("patterns are ordered longest-literal-first") {
    val r = new Random(2)
    val d = PatternExtractor.train(trades(r, 100), PatternExtractor.Config(k = 4, sampleSize = 80))
    val lens = d.patterns.map(_.pattern.litLen)
    assert(lens == lens.sortBy(-_))
  }

  test("every pattern's encoder count matches its field count") {
    val r = new Random(3)
    val d = PatternExtractor.train(trades(r, 100), PatternExtractor.Config(k = 4, sampleSize = 80))
    d.patterns.foreach(cp => assert(cp.pattern.numFields == cp.encoders.length))
  }

  test("trade template survives extraction (common JSON keys in pattern)") {
    val r = new Random(4)
    val d = PatternExtractor.train(trades(r, 200), PatternExtractor.Config(k = 3, sampleSize = 100))
    assert(d.patterns.exists(_.pattern.glob.contains("\"quantity\": ")),
      d.patterns.map(_.pattern.glob).mkString("\n"))
  }

  test("numeric fields get numeric encoders") {
    val r = new Random(5)
    // timestamps are 10 fixed digits starting 16 — expect INT or VARINT somewhere
    val d = PatternExtractor.train(trades(r, 200), PatternExtractor.Config(k = 2, sampleSize = 100))
    val tags = d.patterns.flatMap(_.encoders).map(_.tag)
    assert(tags.exists(t => t.startsWith("INT(") || t == "VARINT"), tags.mkString(","))
  }

  test("sample is deterministic in the seed") {
    val records = (1 to 500).map(i => s"rec-$i").toVector
    val cfg = PatternExtractor.Config(sampleSize = 50, seed = 9L)
    assert(PatternExtractor.sample(records, cfg) == PatternExtractor.sample(records, cfg))
  }

  test("sample returns everything when the corpus is small") {
    val records = Vector("a", "b")
    assert(PatternExtractor.sample(records, PatternExtractor.Config(sampleSize = 50)) == records)
  }

  test("training on a single record yields its exact pattern") {
    val d = PatternExtractor.train(Vector("onlyrecord"), PatternExtractor.Config(k = 4))
    assert(d.size == 1)
    assert(d.patterns.head.pattern.glob == "onlyrecord")
  }

  test("withFsst attaches a trained table") {
    val r = new Random(6)
    val d = PatternExtractor.train(trades(r, 100),
      PatternExtractor.Config(k = 4, sampleSize = 80, withFsst = true))
    assert(d.fsst.isDefined)
    assert(d.fsst.get.symbols.nonEmpty)
  }

  test("dictionary serialization round-trips") {
    val r = new Random(7)
    for (withFsst <- Seq(false, true)) {
      val d = PatternExtractor.train(trades(r, 100),
        PatternExtractor.Config(k = 4, sampleSize = 80, withFsst = withFsst))
      val d2 = PatternDictionary.deserialize(d.serialize)
      assert(d2.patterns.map(_.pattern.tokens) == d.patterns.map(_.pattern.tokens))
      assert(d2.patterns.map(_.encoders) == d.patterns.map(_.encoders))
      assert(d2.fsst.isDefined == d.fsst.isDefined)
      if (d.fsst.isDefined)
        assert(d2.fsst.get.symbols.map(_.toSeq) sameElements d.fsst.get.symbols.map(_.toSeq))
    }
  }

  test("training is deterministic") {
    val r1 = new Random(8); val r2 = new Random(8)
    val cfg = PatternExtractor.Config(k = 3, sampleSize = 60)
    val d1 = PatternExtractor.train(trades(r1, 100), cfg)
    val d2 = PatternExtractor.train(trades(r2, 100), cfg)
    assert(d1.serialize.toSeq == d2.serialize.toSeq)
  }

  test("every pattern wins at least one record of a corpus no larger than the calibration sample") {
    // 800 records: the whole corpus is calibrated, so a pattern that wins
    // none of them is one that no calibration record selects
    val records = MachineData.records("KV3", 800, 7)
    val d = PatternExtractor.train(records,
      PatternExtractor.Config(k = 16, sampleSize = 120, maxPatternLen = 320, withFsst = true))
    val codec = new PbcCodec(d)
    val wins = records.map(r => VarInt.read(codec.compress(r), 0)._1.toInt).toSet
    val idle = d.patterns.indices.filterNot(i => wins(i + 1))
    assert(idle.isEmpty, s"${idle.size} of ${d.size} patterns win no record: " +
      idle.map(i => d.patterns(i).pattern.glob).mkString("; "))
  }

  test("empty corpus is rejected") {
    intercept[IllegalArgumentException](PatternExtractor.train(Nil))
  }
}
