package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropUtil
import PTok._

class EncodingLengthSpec extends AnyFunSuite with PropUtil {

  private def toks(glob: String): Vector[PTok] =
    PTok.normalize(glob.map { case '*' => Wild; case c => Lit(c) }.toVector)

  // ---- basic semantics ----

  test("merging identical literal patterns costs 0") {
    val m = EncodingLength.merge(toks("abcdef"), toks("abcdef"), 3, 5).get
    assert(m.increment == 0L)
    assert(m.merged.glob == "abcdef")
  }

  test("merging identical patterns with wildcards costs 0") {
    val m = EncodingLength.merge(toks("a*b"), toks("a*b"), 2, 2).get
    assert(m.increment == 0L)
    assert(m.merged.glob == "a*b")
  }

  test("single substitution costs descriptors plus both payloads") {
    // "ab" (size 1) vs "ax" (size 1): field opens (1+1) + 'b' (1) + 'x' (1)
    val m = EncodingLength.merge(toks("ab"), toks("ax"), 1, 1).get
    assert(m.increment == 4L)
    assert(m.merged.glob == "a*")
  }

  test("cluster sizes weight the payload cost") {
    // demoting 'b' from a 10-record cluster costs 10 payload bytes
    val m = EncodingLength.merge(toks("ab"), toks("ax"), 10, 1).get
    assert(m.increment == (10 + 1) + 10 + 1)
  }

  test("disjoint strings collapse to a single wildcard") {
    val m = EncodingLength.merge(toks("abc"), toks("xyz"), 1, 1).get
    assert(m.merged.glob == "*")
    // one field (2 descriptors) + 3 + 3 payload
    assert(m.increment == 8L)
  }

  test("existing wildcard absorbed into a new field refunds its descriptor") {
    // "a*b" vs "acb": the '*' and 'c' merge into one field
    val m = EncodingLength.merge(toks("a*b"), toks("acb"), 1, 1).get
    assert(m.merged.glob == "a*b")
    // open field: +2, wild of x: -1, 'c' of y: +1  => 2
    assert(m.increment == 2L)
  }

  test("common prefix and suffix are preserved") {
    val m = EncodingLength.merge(toks("user=42;end"), toks("user=7;end"), 1, 1).get
    assert(m.merged.glob == "user=*;end")
  }

  test("merged pattern glob-matches members of both clusters") {
    val a = "GET /api/v1/items/123 200"
    val b = "GET /api/v1/users/77 404"
    val m = EncodingLength.merge(toks(a), toks(b), 1, 1).get
    assert(m.merged.matchRecord(a).isDefined, s"merged=${m.merged.glob}")
    assert(m.merged.matchRecord(b).isDefined)
  }

  test("merge is symmetric in cost") {
    forAllSeeded(50) { r =>
      val a = toks(randomAscii(r, 12).replace("*", "x"))
      val b = toks(randomAscii(r, 12).replace("*", "x"))
      if (a.nonEmpty && b.nonEmpty) {
        val ab = EncodingLength.merge(a, b, 2, 3).get.increment
        val ba = EncodingLength.merge(b, a, 3, 2).get.increment
        assert(ab == ba)
      }
    }
  }

  // ---- bound / early abort ----

  test("bound aborts hopeless merges") {
    assert(EncodingLength.merge(toks("aaaaaaaa"), toks("zzzzzzzz"), 5, 5, bound = 3L).isEmpty)
  }

  test("bound equal to the true increment still returns") {
    val inc = EncodingLength.merge(toks("ab"), toks("ax"), 1, 1).get.increment
    assert(EncodingLength.merge(toks("ab"), toks("ax"), 1, 1, bound = inc).isDefined)
  }

  // ---- equivalence with the exhaustive reference ----

  test("DP equals brute force on random small patterns") {
    forAllSeeded(300) { r =>
      def small(): Vector[PTok] = PTok.normalize(
        (1 to 1 + r.nextInt(6)).map { _ =>
          if (r.nextInt(4) == 0) Wild else Lit(('a' + r.nextInt(3)).toChar)
        }.toVector)
      val (a, b) = (small(), small())
      val sx = 1 + r.nextInt(4)
      val sy = 1 + r.nextInt(4)
      val dp = EncodingLength.merge(a, b, sx, sy).get
      val bf = Reference.mergeBruteForce(a, b, sx, sy)
      assert(dp.increment == bf.increment,
        s"a=${Pattern(a).glob} b=${Pattern(b).glob} sx=$sx sy=$sy dp=${dp.increment} bf=${bf.increment}")
    }
  }

  test("DP equals brute force without descriptor costs (entropy criterion)") {
    forAllSeeded(200) { r =>
      def small(): Vector[PTok] = PTok.normalize(
        (1 to 1 + r.nextInt(5)).map { _ =>
          if (r.nextInt(4) == 0) Wild else Lit(('a' + r.nextInt(3)).toChar)
        }.toVector)
      val (a, b) = (small(), small())
      val dp = EncodingLength.merge(a, b, 2, 3, descriptorCost = false).get
      val bf = Reference.mergeBruteForce(a, b, 2, 3, descriptorCost = false)
      assert(dp.increment == bf.increment)
    }
  }

  test("entropy criterion of equal strings is 0 and counts only payload") {
    val m = EncodingLength.merge(toks("ab"), toks("ax"), 1, 1, descriptorCost = false).get
    assert(m.increment == 2L) // only 'b' and 'x', no descriptors
  }

  // ---- merged pattern is a valid common structure ----

  test("property: merged pattern matches what both patterns match") {
    forAllSeeded(100) { r =>
      val tpl = "ts=* lvl=INFO msg=*"
      def inst(): String = s"ts=${r.nextInt(1000)} lvl=INFO msg=${randomAscii(r, 6).replace("*", "")}"
      val (s1, s2) = (inst(), inst())
      val m = EncodingLength.merge(toks(s1), toks(s2), 1, 1).get
      assert(m.merged.matchRecord(s1).isDefined)
      assert(m.merged.matchRecord(s2).isDefined)
      val _ = tpl
    }
  }
}
