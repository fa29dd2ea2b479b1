package perfbench

import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random
import org.apache.spark.sql.Row
import repro.core.{PatternDictionary, PatternExtractor, PbcCodec}
import repro.data.MachineData
import repro.sparkpbc.PbcFiles

/** Android logs written through the `pbc` DataSourceV2 with PBC_F
  * (`PbcSpark.write`) and scanned back; random single-record lookups go
  * through `PbcFiles.readRecord` and `PbcCodec.decompress`.
  *
  * Row `i` of the input is record `i % Unique` of the corpus, so that
  * each Spark job runs for seconds while generation stays short. The
  * scan consumes the decoded `value` column (count plus a sum of
  * `xxhash64`), which is compared with the same aggregate over the input
  * rows, computed by Spark without the codec.
  */
final class SparkPbc(seed: Long, tr: Trace, workDir: Path) extends Workload(seed, tr, workDir) {
  private val Unique = 100000
  private val Rows = Unique.toLong * 24
  private val Partitions = 8
  private val LookupsPerRound = 10000

  override def warmupRounds: Int = 1

  private val spark = SparkJobs.session(workDir)
  private var corpus: Vector[String] = _
  /** The corpus in the seed's order: row `i` is `records(i % Unique)`. */
  private var records: Vector[String] = _
  private var dict: PatternDictionary = _

  private var jobs: SparkJobs = _
  private var rawLen: Array[Int] = _
  private var rawTotal = 0L
  private var expected: Row = _
  private var lookupRows: Array[Long] = _
  private var oracle0: Oracle = _
  private var parts: Vector[Path] = Vector.empty
  private var lookupCodecs: Vector[PbcCodec] = Vector.empty
  private val writeJobS = ArrayBuffer.empty[Double]
  private val scanJobS = ArrayBuffer.empty[Double]

  private val writeId = if (tr != null) tr.id("spark.write_job") else -1
  private val scanId = if (tr != null) tr.id("spark.scan_job") else -1
  private val lookupId = if (tr != null) tr.id("spark.lookup") else -1
  private val readRecordId = if (tr != null) tr.id("sparkpbc.read_record") else -1
  private val decompressId = if (tr != null) tr.id("core.decompress") else -1

  override def setup(): Unit = {
    corpus = timedSetup(genS)(MachineData.records("Android", Unique, Workload.CorpusSeed))
    dict = timedSetup(trainS)(PatternExtractor.train(corpus, Workload.trainConfig))
  }

  override def prepare(): Unit = {
    val rnd = new Random(seed * 1000003L + 41L)
    records = rnd.shuffle(corpus)
    rawLen = records.map(Workload.utf8Len).toArray
    rawTotal = (0L until Rows).iterator.map(i => rawLen((i % Unique).toInt).toLong).sum
    jobs = new SparkJobs(spark, records, Rows, Partitions, dict, useFsst = true, workDir.resolve("spark-pbc-out").toString)
    expected = jobs.digest(jobs.input)
    lookupRows = Array.fill(LookupsPerRound)((rnd.nextDouble() * Rows).toLong)
    oracle0 = new Oracle(dict)
  }

  private def span(id: Int): Int = if (tr != null) tr.begin(id) else -1
  private def end(s: Int): Unit = if (tr != null) tr.end(s)

  override def round(): Unit = {
    attempt {
      val s = span(writeId)
      val ns = jobs.write()
      end(s)
      op(write, ns, rawTotal)
      writeJobS += ns / 1e9
      parts = PbcFiles.listParts(jobs.outDir)
      lookupCodecs = parts.map(p => new PbcCodec(PbcFiles.readDict(p), useFsst = true))
      parts.size == Partitions &&
        parts.indices.forall(p => PbcFiles.recordCount(parts(p)).toLong == jobs.partStart(p + 1) - jobs.partStart(p))
    }
    attempt {
      val s = span(scanId)
      val (got, ns) = jobs.scan()
      end(s)
      op(read, ns, rawTotal)
      scanJobS += ns / 1e9
      got == expected
    }
    lookupRows.foreach { row =>
      attempt {
        val p = (0 until Partitions).find(q => row < jobs.partStart(q + 1)).get
        val i = (row - jobs.partStart(p)).toInt
        val s = span(lookupId)
        val t0 = System.nanoTime()
        var s2 = span(readRecordId)
        val b = PbcFiles.readRecord(parts(p), i)
        end(s2)
        s2 = span(decompressId)
        val v = lookupCodecs(p).decompress(b)
        end(s2)
        val t1 = System.nanoTime()
        end(s)
        val r = (row % Unique).toInt
        op(lookup, t1 - t0, rawLen(r))
        v == records(r)
      }
    }
  }

  override def startMeasuring(): Unit = {
    super.startMeasuring()
    writeJobS.clear()
    scanJobS.clear()
  }

  /** On-disk `.pbc` bytes over the raw bytes of the rows written. */
  override def bytesPerUserByte: Double = parts.map(p => Files.size(p)).sum.toDouble / rawTotal

  /** From this run's own jobs. */
  override def sparkOverheads(): (Double, Double) =
    jobs.overheads(workDir, SparkJobs.Cores, writeJobS.toVector, scanJobS.toVector)

  override def layerInput: Layers.Input = Layers.Input(corpus, dict, useFsst = true, workDir)
  override def oracle: Oracle = oracle0

  override def info: Seq[(String, String)] = Seq(
    "dataset" -> "Android",
    "unique_records" -> Unique.toString,
    "rows" -> Rows.toString,
    "raw_MB" -> Workload.mb(rawTotal),
    "partitions" -> Partitions.toString,
    "spark_cores" -> SparkJobs.Cores.toString,
    "lookups_per_round" -> LookupsPerRound.toString,
    "codec" -> "PBC_F"
  )

  override def close(): Unit = spark.stop()
}
