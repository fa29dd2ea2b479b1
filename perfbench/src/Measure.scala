package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Growable array of longs (latencies in ns) with nearest-rank quantiles. */
final class Samples {
  private var a = new Array[Long](1 << 12)
  private var n = 0

  def add(v: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = v
    n += 1
  }

  def size: Int = n

  /** Forgets the samples and keeps the capacity. */
  def clear(): Unit = n = 0

  /** Sorts the samples in place; call `quantile` only after this. */
  def sort(): Unit = java.util.Arrays.sort(a, 0, n)

  def quantile(q: Double): Long = {
    require(n > 0, "no samples")
    a(Stat.rank(q, n))
  }
}

/** Timings of one operation kind (write, read or lookup), kept per round.
  *
  * The host this was tuned on slows compute-bound code by up to 40 % for
  * seconds at a time, so a run is a mix of slow and fast stretches. Each
  * figure is therefore the level that three rounds in four meet: the MB/s
  * rate is the 25th percentile over measured rounds of (raw user bytes the
  * round's operations handled / time spent inside them), and the p50 and
  * p99 latencies are the 75th percentile over measured rounds of each
  * round's own nearest-rank p50 and p99. A median would flip between the
  * two speeds as their shares of a run cross one half.
  *
  * Where a round holds one operation (a Spark job), the few rounds of a
  * run are taken as operations: the rate is their median, the p50 and p99
  * their nearest-rank p50 and p99. A quartile of five values is itself
  * noisy.
  */
final class OpStats {
  private val roundLatencyNs = new Samples
  private val roundRates = ArrayBuffer.empty[Double]
  private val roundP50us = ArrayBuffer.empty[Double]
  private val roundP99us = ArrayBuffer.empty[Double]
  private var roundBytes = 0L
  private var roundNs = 0L
  private var maxRoundOps = 0

  def add(ns: Long, rawBytes: Long): Unit = {
    roundLatencyNs.add(ns)
    roundBytes += rawBytes
    roundNs += ns
  }

  /** Forgets the warm-up rounds. Warm-up records exactly as measuring
    * does, so the compiled code is the same before and after this call.
    */
  def clear(): Unit = {
    roundRates.clear()
    roundP50us.clear()
    roundP99us.clear()
  }

  def endRound(): Unit = {
    maxRoundOps = math.max(maxRoundOps, roundLatencyNs.size)
    if (roundLatencyNs.size > 0) {
      roundRates += roundBytes * 1000.0 / roundNs
      roundLatencyNs.sort()
      roundP50us += roundLatencyNs.quantile(0.50) / 1000.0
      roundP99us += roundLatencyNs.quantile(0.99) / 1000.0
    }
    roundLatencyNs.clear()
    roundBytes = 0L
    roundNs = 0L
  }

  private def oneOpRounds: Boolean = maxRoundOps == 1

  def MBps: Double = Stat.quantile(roundRates, if (oneOpRounds) 0.50 else 0.25)
  def p50us: Double = Stat.quantile(roundP50us, if (oneOpRounds) 0.50 else 0.75)
  def p99us: Double = Stat.quantile(roundP99us, if (oneOpRounds) 0.99 else 0.75)

  /** Per-round MB/s at the 0, 25, 50, 75 and 100 % ranks, to tell noise
    * within a run from a difference between runs.
    */
  def roundMBpsRanks: Seq[Double] = {
    val s = roundRates.toVector.sorted
    Seq(0.0, 0.25, 0.5, 0.75, 1.0).map(q => s(math.round(q * (s.size - 1)).toInt))
  }
}

object Stat {
  /** Index of the nearest-rank `q` quantile in `n` sorted values. */
  def rank(q: Double, n: Int): Int = math.max(0, math.ceil(q * n).toInt - 1)

  def quantile(xs: collection.Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of nothing")
    xs.sorted.apply(rank(q, xs.size))
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val v = body
    (v, (System.nanoTime() - t0) / 1e9)
  }
}

/** Allocation and collector pause counters of this JVM. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by all live threads. */
  def allocatedBytes(): Long = {
    val ids = threads.getAllThreadIds
    threads.getThreadAllocatedBytes(ids).filter(_ > 0).sum
  }

  def uptimeMs(): Long = ManagementFactory.getRuntimeMXBean.getUptime

  private val PauseLine = """\[(\d+\.\d+)s\].* Pause .* (\d+\.\d+)ms""".r.unanchored

  /** Collector pauses that ended between two uptimes, in ms, from the
    * JVM's `-Xlog:gc` file (the management beans count whole ms only).
    */
  def gcPauseMs(log: Path, fromUptimeMs: Long, toUptimeMs: Long): Double = {
    val lines = Files.readAllLines(log).asScala
    lines.collect {
      case PauseLine(at, ms) if at.toDouble * 1000 >= fromUptimeMs && at.toDouble * 1000 <= toUptimeMs => ms.toDouble
    }.sum
  }

  def flags: Seq[String] = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
}

/** A metric as printed: name, value and unit. */
final case class Metric(name: String, value: Double, unit: String)

object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }

  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v is not a number")
    v.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
