package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropUtil
import PTok._

class OneGramSpec extends AnyFunSuite with PropUtil {

  private def toks(glob: String): Vector[PTok] =
    PTok.normalize(glob.map { case '*' => Wild; case c => Lit(c) }.toVector)

  test("histogram counts literals only") {
    val h = OneGram.histogram(Pattern(toks("aab*c")))
    assert(h == Map('a' -> 2, 'b' -> 1, 'c' -> 1))
  }

  test("identical strings have zero lower bound") {
    val h = OneGram.histogram(Pattern(toks("hello")))
    assert(OneGram.lowerBound(h, h, 3, 4) == 0L)
  }

  test("disjoint alphabets pay full payload") {
    val hx = OneGram.histogram(Pattern(toks("abc")))
    val hy = OneGram.histogram(Pattern(toks("xyz")))
    assert(OneGram.lowerBound(hx, hy, 2, 3) == 3 * 2 + 3 * 3)
  }

  test("surplus occurrences are charged") {
    val hx = OneGram.histogram(Pattern(toks("aaa")))
    val hy = OneGram.histogram(Pattern(toks("a")))
    assert(OneGram.lowerBound(hx, hy, 1, 1) == 2L)
  }

  test("wildcard refunds weaken the bound soundly") {
    val hx = OneGram.histogram(Pattern(toks("a*b")))
    val hy = OneGram.histogram(Pattern(toks("ab")))
    assert(OneGram.lowerBound(hx, hy, 1, 1, wildsX = 1, wildsY = 0) == 0L)
  }

  test("dist1 of identical strings is -len (multiset form)") {
    assert(Reference.dist1("abc", "abc") == -3L)
  }

  test("dist1 of disjoint strings is the total length") {
    assert(Reference.dist1("ab", "xyz") == 5L)
  }

  test("property: lower bound never exceeds the DP increment") {
    forAllSeeded(300) { r =>
      def small(): Vector[PTok] = PTok.normalize(
        (1 to 1 + r.nextInt(10)).map { _ =>
          if (r.nextInt(5) == 0) Wild else Lit(('a' + r.nextInt(4)).toChar)
        }.toVector)
      val (a, b) = (small(), small())
      val sx = 1 + r.nextInt(5)
      val sy = 1 + r.nextInt(5)
      val pa = Pattern(a); val pb = Pattern(b)
      val lb = OneGram.lowerBound(OneGram.histogram(pa), OneGram.histogram(pb),
        sx, sy, pa.numFields, pb.numFields)
      val dp = EncodingLength.merge(a, b, sx, sy).get.increment
      assert(lb <= dp, s"lb=$lb > dp=$dp for ${pa.glob} / ${pb.glob} ($sx,$sy)")
    }
  }

  test("property: DP early-abort never fires below the lower bound") {
    forAllSeeded(100) { r =>
      def small(): Vector[PTok] =
        (1 to 1 + r.nextInt(8)).map(_ => Lit(('a' + r.nextInt(4)).toChar)).toVector
      val (a, b) = (small(), small())
      val dp = EncodingLength.merge(a, b, 2, 2).get.increment
      // a bound >= the true increment must not abort
      assert(EncodingLength.merge(a, b, 2, 2, bound = dp).isDefined)
    }
  }
}
