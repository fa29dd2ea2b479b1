package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropUtil
import PTok._

class PatternSpec extends AnyFunSuite with PropUtil {

  private def pat(glob: String): Pattern =
    Pattern(PTok.normalize(glob.map { case '*' => Wild; case c => Lit(c) }.toVector))

  // ---- structure ----

  test("runs split on wildcards") {
    assert(pat("ab*c*").runs == Vector("ab", "c"))
    assert(pat("*ab").runs == Vector("ab"))
    assert(pat("abc").runs == Vector("abc"))
  }

  test("numFields and litLen") {
    val p = pat("a*bb*")
    assert(p.numFields == 2)
    assert(p.litLen == 3)
  }

  test("normalize collapses adjacent wildcards") {
    val toks = Vector(Lit('a'), Wild, Wild, Lit('b'), Wild)
    assert(PTok.normalize(toks) == Vector(Lit('a'), Wild, Lit('b'), Wild))
  }

  test("ofRecord produces an exact-literal pattern") {
    val p = Pattern.ofRecord("xyz")
    assert(p.tokens == Vector(Lit('x'), Lit('y'), Lit('z')))
  }

  test("ofRecord truncates long records with a trailing wildcard") {
    val p = Pattern.ofRecord("abcdef", maxLen = 3)
    assert(p.glob == "abc*")
    assert(p.matchRecord("abcdef").contains(Vector("def")))
  }

  test("ofRecord truncates at code points, never inside a surrogate pair") {
    val emoji = new String(Character.toChars(0x1F600))
    val p = Pattern.ofRecord(s"ab${emoji}cd", maxLen = 3)
    assert(p.tokens == Vector(Lit('a'), Lit('b'), Lit(0x1F600), Wild))
    assert(p.glob == s"ab$emoji*")
    assert(p.matchRecord(s"ab${emoji}cd").contains(Vector("cd")))
  }

  // ---- matching ----

  test("exact pattern matches only itself") {
    val p = pat("foobar")
    assert(p.matchRecord("foobar").contains(Vector.empty))
    assert(p.matchRecord("foobarx").isEmpty)
    assert(p.matchRecord("xfoobar").isEmpty)
  }

  test("paper example: *ooba* matches foobar with residuals f, r") {
    assert(pat("*ooba*").matchRecord("foobar").contains(Vector("f", "r")))
  }

  test("paper example: *ob* matches foobar") {
    assert(pat("*ob*").matchRecord("foobar").contains(Vector("fo", "ar")))
  }

  test("anchored tail run") {
    assert(pat("*ab").matchRecord("xxab").contains(Vector("xx")))
    assert(pat("*ab").matchRecord("xxabc").isEmpty)
  }

  test("anchored head run") {
    assert(pat("ab*").matchRecord("abxx").contains(Vector("xx")))
    assert(pat("ab*").matchRecord("zabxx").isEmpty)
  }

  test("wildcards may capture empty strings") {
    assert(pat("a*b*c").matchRecord("abc").contains(Vector("", "")))
  }

  test("middle runs match at the earliest feasible position") {
    assert(pat("*ab*b").matchRecord("aabb").contains(Vector("a", "")))
  }

  test("greedy earliest matching is complete for overlapping runs") {
    assert(pat("*aa*a").matchRecord("aaa").contains(Vector("", "")))
    assert(pat("*ab*ab").matchRecord("abab").contains(Vector("", "")))
  }

  test("no match when a run is missing") {
    assert(pat("*xyz*").matchRecord("abc").isEmpty)
  }

  test("pure-wildcard pattern captures the whole record") {
    assert(Pattern(Vector(Wild)).matchRecord("anything").contains(Vector("anything")))
  }

  test("tail shorter than anchored run fails") {
    assert(pat("a*bcd").matchRecord("abc").isEmpty)
  }

  // ---- render ----

  test("render is the inverse of matchRecord") {
    val p = pat("{\"q\": *, \"ts\": *}")
    val rec = "{\"q\": 17, \"ts\": 163}"
    val caps = p.matchRecord(rec).get
    assert(p.render(caps) == rec)
  }

  test("render with empty fields") {
    assert(pat("a*b*c").render(Vector("", "")) == "abc")
  }

  test("renderWith evaluates fields in order") {
    var order = Vector.empty[Int]
    pat("*x*y*").renderWith(3, { f => order :+= f; f.toString })
    assert(order == Vector(0, 1, 2))
  }

  test("property: render(matchRecord(s)) == s on templated records") {
    forAllSeeded() { r =>
      val a = randomAscii(r, 8).replace("*", "")
      val b = randomAscii(r, 8).replace("*", "")
      val rec = s"pre${a}mid${b}post"
      val p = pat("pre*mid*post")
      p.matchRecord(rec) match {
        case Some(caps) => assert(p.render(caps) == rec)
        case None =>
          // valid: the random fields may contain 'mid'/'post' making an
          // earlier split win — but a match must still exist
          fail(s"expected a match for '$rec'")
      }
    }
  }

  // ---- glob / regex rendering ----

  test("glob escapes literal stars and backslashes") {
    val p = Pattern(Vector(Lit('*'), Wild, Lit('\\')))
    assert(p.glob == "\\**\\\\")
  }

  test("toRegex matches the same records (cross-check)") {
    forAllSeeded(50) { r =>
      val p = pat("ab*cd*e")
      val s = s"ab${randomAscii(r, 5)}cd${randomAscii(r, 5)}e"
      val re = java.util.regex.Pattern.compile(Reference.toRegex(p), java.util.regex.Pattern.DOTALL)
      assert(p.matchRecord(s).isDefined == re.matcher(s).matches())
    }
  }

  test("matchRecord agrees with regex on random inputs (completeness)") {
    forAllSeeded(200) { r =>
      val globStr = (1 to 1 + r.nextInt(6)).map { _ =>
        if (r.nextBoolean()) "*" else ('a' + r.nextInt(3)).toChar.toString
      }.mkString
      val p = pat(globStr)
      if (p.numFields == 0 && p.litLen == 0) () // empty pattern — skip
      else {
        val s = (1 to r.nextInt(8)).map(_ => ('a' + r.nextInt(3)).toChar).mkString
        val re = java.util.regex.Pattern.compile(Reference.toRegex(p), java.util.regex.Pattern.DOTALL)
        assert(p.matchRecord(s).isDefined == re.matcher(s).matches(),
          s"glob='$globStr' s='$s'")
      }
    }
  }
}
