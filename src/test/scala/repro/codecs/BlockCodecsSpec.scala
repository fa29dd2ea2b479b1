package repro.codecs

import org.scalatest.funsuite.AnyFunSuite
import repro.PropUtil
import java.nio.charset.StandardCharsets.UTF_8
import java.util.concurrent.{Callable, Executors}
import com.github.luben.zstd.Zstd
import repro.data.MachineData
import scala.util.Random

class BlockCodecsSpec extends AnyFunSuite with PropUtil {

  private val sampleDict: Array[Byte] =
    DictTraining.zstdDict((0 until 200).map(i => s"record number $i with shared structure".getBytes(UTF_8)))

  private def codecs: Seq[ByteCodec] = Seq(
    new Lz4Codec,
    new SnappyCodec,
    new ZstdCodec(3),
    new ZstdCodec(19),
    new LzmaCodec(1),
    new LzmaCodec(6),
    new ZstdDictCodec(sampleDict),
    new Lz77DictCodec(sampleDict)
  )

  for (c <- codecs) {
    test(s"${c.name} round-trips ascii text") {
      val in = ("the quick brown fox " * 20).getBytes(UTF_8)
      assert(c.decompress(c.compress(in)).toSeq == in.toSeq)
    }

    test(s"${c.name} round-trips empty input") {
      val in = Array.empty[Byte]
      assert(c.decompress(c.compress(in)).toSeq == in.toSeq)
    }

    test(s"${c.name} round-trips random binary") {
      forAllSeeded(40) { r =>
        val in = randomBytes(r, 300)
        assert(c.decompress(c.compress(in)).toSeq == in.toSeq)
      }
    }

    test(s"${c.name} compresses repetitive data below 50%") {
      val in = ("abcabcabc" * 300).getBytes(UTF_8)
      assert(c.compress(in).length < in.length / 2)
    }
  }

  test("zstd dict training returns a non-empty dictionary") {
    assert(sampleDict.nonEmpty)
  }

  test("zstd dict training falls back gracefully on tiny samples") {
    val d = DictTraining.zstdDict(Seq("ab".getBytes(UTF_8)))
    assert(d.nonEmpty)
  }

  test("Zstd(dict) beats plain Zstd on short dict-like records") {
    val zd = new ZstdDictCodec(sampleDict)
    val z = new ZstdCodec(3)
    val rec = "record number 999 with shared structure".getBytes(UTF_8)
    assert(zd.compress(rec).length < z.compress(rec).length)
  }

  test("Zstd(level) writes the bytes of the one-shot Zstd.compress, block after block") {
    val log = MachineData.records("HDFS", 500).mkString("\n").getBytes(UTF_8)
    val r = new Random(3)
    val inputs = Seq(Array.empty[Byte], ("the quick brown fox " * 20).getBytes(UTF_8), log,
      randomBytes(r, 5000), java.util.Arrays.copyOf(log, 100))
    for (level <- Seq(3, 19)) {
      val c = new ZstdCodec(level)
      for (in <- inputs ++ inputs) {
        val oneShot = ByteCodec.withLen(Zstd.compress(in, level), in.length)
        assert(c.compress(in).toSeq == oneShot.toSeq, s"level $level, ${in.length} bytes")
        assert(c.decompress(oneShot).toSeq == in.toSeq)
      }
    }
  }

  test("one Zstd codec shared by several threads round-trips on each") {
    val c = new ZstdCodec(3)
    val pool = Executors.newFixedThreadPool(4)
    try {
      val results = (0 until 4).map { t =>
        pool.submit(new Callable[Boolean] {
          def call(): Boolean = (0 until 200).forall { i =>
            val in = (s"thread $t block $i " * (1 + i % 50)).getBytes(UTF_8)
            c.decompress(c.compress(in)).toSeq == in.toSeq
          }
        })
      }
      assert(results.forall(_.get()))
    } finally pool.shutdown()
  }

  test("Lz77Dict emits back-references into the preset dictionary") {
    val dict = "the shared preset dictionary content".getBytes(UTF_8)
    val c = new Lz77DictCodec(dict)
    val rec = "xx shared preset dictionary yy".getBytes(UTF_8)
    val coded = c.compress(rec)
    assert(coded.length < rec.length, s"coded=${coded.length} raw=${rec.length}")
    assert(c.decompress(coded).toSeq == rec.toSeq)
  }

  test("Lz77Dict with empty dictionary still round-trips") {
    val c = new Lz77DictCodec(Array.empty)
    forAllSeeded(40) { r =>
      val in = randomBytes(r, 200)
      assert(c.decompress(c.compress(in)).toSeq == in.toSeq)
    }
  }

  test("Lz77Dict handles overlapping self-matches (runs)") {
    val c = new Lz77DictCodec(Array.empty)
    val in = ("a" * 100 + "b" * 50).getBytes(UTF_8)
    val coded = c.compress(in)
    assert(coded.length < 30)
    assert(c.decompress(coded).toSeq == in.toSeq)
  }

  test("Lz77Dict round-trips across many consecutive records (state reuse)") {
    val c = new Lz77DictCodec(sampleDict)
    forAllSeeded(100) { r =>
      val in = (s"record number ${r.nextInt(10000)} with " + randomAscii(r, 30)).getBytes(UTF_8)
      assert(c.decompress(c.compress(in)).toSeq == in.toSeq)
    }
  }

  test("LZMA levels are comparable on structured data (within 15%)") {
    // LZMA2 presets tune dictionary/props, which is not strictly monotone
    // at kilobyte scale — check they are in the same ballpark instead
    val in = (0 until 400).map(i => s"log line $i status=OK").mkString("\n").getBytes(UTF_8)
    val l1 = new LzmaCodec(1).compress(in).length
    val l9 = new LzmaCodec(9).compress(in).length
    assert(l9 <= l1 * 1.15, s"l9=$l9 l1=$l1")
  }

  test("codec outputs are decodable by a fresh codec instance (stateless wire)") {
    val in = ("stateless check " * 10).getBytes(UTF_8)
    assert(new ZstdDictCodec(sampleDict).decompress(new ZstdDictCodec(sampleDict).compress(in)).toSeq == in.toSeq)
    assert(new Lz77DictCodec(sampleDict).decompress(new Lz77DictCodec(sampleDict).compress(in)).toSeq == in.toSeq)
  }
}
