package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Path
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import repro.core.PatternExtractor
import repro.kvstore.ValueCodec

/** One benchmark workload: a set-up that is timed several times, then
  * whole rounds of the same operations, each checked against values the
  * benchmark computes itself.
  *
  * `tr` is null in an untraced run; every span call is guarded by that
  * test, so an untraced run executes no tracing code.
  */
abstract class Workload(val seed: Long, val tr: Trace, val workDir: Path) {
  val write = new OpStats
  val read = new OpStats
  val lookup = new OpStats

  var attempted = 0L
  var failed = 0L
  /** A check that is not one operation (a byte count, a layer pass) failed. */
  var broken = false
  /** Raw user bytes handled by the measured operations. */
  var userBytes = 0L

  val genS = ArrayBuffer.empty[Double]
  val trainS = ArrayBuffer.empty[Double]

  /** Rounds run before measuring, so the JIT has compiled the hot paths. */
  def warmupRounds: Int

  /** Input generation, dictionary training and initial load. */
  def setup(): Unit
  /** Benchmark-side preparation: the operation trace and the expected
    * outputs. Not the program's work, so not part of `setup_s`.
    */
  def prepare(): Unit
  def round(): Unit
  def bytesPerUserByte: Double
  /** The records, dictionary and mode the layer pass runs on. */
  def layerInput: Layers.Input
  def oracle: Oracle
  /** Spark write and scan overheads in seconds (traced run only); a
    * workload without Spark jobs of its own measures them on its records.
    */
  def sparkOverheads(): (Double, Double) = SparkJobs.overheadsOn(layerInput)
  def info: Seq[(String, String)]
  def close(): Unit = ()

  /** Records one operation. Warm-up records too, and `startMeasuring`
    * forgets it: a branch on whether the run is measuring would be one the
    * JIT never saw taken, and its first use would deoptimise the round.
    */
  protected def op(stats: OpStats, ns: Long, rawBytes: Long): Unit = {
    stats.add(ns, rawBytes)
    userBytes += rawBytes
  }

  /** Called once, between the warm-up and the measured rounds. */
  def startMeasuring(): Unit = {
    write.clear()
    read.clear()
    lookup.clear()
    userBytes = 0L
  }

  protected def check(ok: Boolean): Unit = {
    attempted += 1
    if (!ok) failed += 1
  }

  /** Runs one checked operation; an exception counts as a failure. */
  protected def attempt(body: => Boolean): Unit =
    check(try body catch { case NonFatal(e) => System.err.println(s"operation failed: $e"); false })

  protected def timedSetup[A](into: ArrayBuffer[Double])(body: => A): A = {
    val (v, s) = Stat.time(body)
    into += s
    v
  }
}

object Workload {
  /** How many times a run sets up; `setup_s` is their median. */
  val Setups = 5

  /** Generator seed of every corpus, the one the repo's tables use. The
    * corpus, and with it the dictionary and the ratio, is the same in
    * every run: the extractor's 120-record sample makes the dictionary,
    * and the ratio, move by several percent from one generator seed to
    * the next. The run's `--seed` picks everything else: the operation
    * trace, key popularity, the values SET, which records share a block
    * or a partition, and the lookups.
    */
  val CorpusSeed = 7L

  /** Extraction settings of `repro.tables.Dictionaries` for KV1, HDFS and
    * Android. The FSST table is always trained, as there; the PBC_Z
    * archive strips it.
    */
  val trainConfig: PatternExtractor.Config =
    PatternExtractor.Config(k = 16, sampleSize = 120, maxPatternLen = 320, withFsst = true)

  def utf8Len(s: String): Int = s.getBytes(UTF_8).length

  def mb(bytes: Long): String = f"${bytes / 1e6}%.3f"

  /** A value codec that records a span around each encode and decode. */
  final class TracedCodec(inner: ValueCodec, tr: Trace, encName: String, decName: String) extends ValueCodec {
    private val enc = tr.id(encName)
    private val dec = tr.id(decName)
    override def name: String = inner.name
    override def encode(v: String): Array[Byte] = {
      val s = tr.begin(enc)
      val b = inner.encode(v)
      tr.end(s)
      b
    }
    override def decode(b: Array[Byte]): String = {
      val s = tr.begin(dec)
      val v = inner.decode(b)
      tr.end(s)
      v
    }
  }
}
