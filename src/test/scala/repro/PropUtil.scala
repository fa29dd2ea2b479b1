package repro

import scala.util.Random
import org.scalacheck.{Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty

/** Seeded property-style loops, and a seeded ScalaCheck runner
  * (scalatestplus-scalacheck is not in the offline cache, so ScalaCheck
  * properties are checked through `org.scalacheck.Test` directly).
  */
trait PropUtil {
  /** Check a ScalaCheck property on `tests` inputs from a fixed seed. */
  def check(prop: Prop, tests: Int): Unit = {
    val params = Test.Parameters.default
      .withMinSuccessfulTests(tests)
      .withInitialSeed(Seed(1234L))
    val res = Test.check(params, prop)
    if (!res.passed) throw new AssertionError(Pretty.pretty(res, Pretty.Params(2)))
  }

  def forAllSeeded(iterations: Int = 100, seed: Long = 1234L)(body: Random => Unit): Unit = {
    var i = 0
    while (i < iterations) {
      val r = new Random(seed + i)
      try body(r)
      catch {
        case e: Throwable =>
          throw new AssertionError(s"property failed at iteration $i (seed ${seed + i})", e)
      }
      i += 1
    }
  }

  def randomAscii(r: Random, maxLen: Int): String = {
    val n = r.nextInt(maxLen + 1)
    (1 to n).map(_ => (32 + r.nextInt(95)).toChar).mkString
  }

  def randomBytes(r: Random, maxLen: Int): Array[Byte] = {
    val b = new Array[Byte](r.nextInt(maxLen + 1))
    r.nextBytes(b)
    b
  }
}
