package perfbench

import java.nio.file.{Files, Path}
import java.util.concurrent.{Executors, TimeUnit}
import java.util.concurrent.atomic.LongAdder
import org.apache.spark.sql.{DataFrame, Encoders, Row, SparkSession}
import org.apache.spark.sql.functions.{col, count, lit, sum, xxhash64}
import repro.core.{PatternDictionary, PbcCodec}
import repro.sparkpbc.{PbcFiles, PbcSpark}

/** The `pbc` write and scan jobs over `rows` input rows, row `i` being
  * `records(i % records.size)`, made by `spark.range` over `partitions`
  * partitions.
  */
final class SparkJobs(
    spark: SparkSession,
    records: IndexedSeq[String],
    val rows: Long,
    val partitions: Int,
    dict: PatternDictionary,
    useFsst: Boolean,
    val outDir: String) {

  val input: DataFrame = {
    val bc = spark.sparkContext.broadcast(records.toArray)
    val n = records.size
    spark.range(0L, rows, 1L, partitions)
      .map((i: java.lang.Long) => bc.value((i % n).toInt))(Encoders.STRING)
      .toDF("value")
  }

  /** First row of partition `p` (the split `spark.range` makes). */
  def partStart(p: Int): Long = (BigInt(p) * rows / partitions).toLong

  /** Row count and an order-independent digest of the `value` column. */
  def digest(df: DataFrame): Row =
    df.agg(count(lit(1)), sum(xxhash64(col("value")).cast("decimal(38,0)"))).collect()(0)

  /** One write job; its duration in ns. */
  def write(): Long = {
    val t0 = System.nanoTime()
    PbcSpark.write(input, "value", dict, outDir, useFsst)
    System.nanoTime() - t0
  }

  /** One scan job that decodes every row; its digest and duration in ns. */
  def scan(): (Row, Long) = {
    val t0 = System.nanoTime()
    val d = digest(PbcSpark.read(spark, outDir))
    (d, System.nanoTime() - t0)
  }

  /** The Spark write and scan overheads in seconds: the median job times
    * given, minus the same work done outside Spark on `cores` threads
    * (per partition, compress and append to a `.pbc` file; per written
    * file, `readAll` and decompress every record).
    */
  def overheads(workDir: Path, cores: Int, writeJobS: Seq[Double], scanJobS: Seq[Double]): (Double, Double) = {
    val dir = Files.createDirectories(workDir.resolve("outside-spark"))
    val pool = Executors.newFixedThreadPool(cores)
    def parallel(tasks: Seq[() => Unit]): Double = {
      val t0 = System.nanoTime()
      tasks.map(t => pool.submit(new Runnable { def run(): Unit = t() })).foreach(_.get())
      (System.nanoTime() - t0) / 1e9
    }
    val dictBytes = (if (useFsst) dict else dict.copy(fsst = None)).serialize
    val n = records.size
    def writeAll(): Double = parallel((0 until partitions).map { p => () =>
      val codec = new PbcCodec(PatternDictionary.deserialize(dictBytes), useFsst)
      val w = new PbcFiles.Writer(dir.resolve(f"part-$p%05d.pbc"), dictBytes)
      var i = partStart(p)
      while (i < partStart(p + 1)) { w.append(codec.compress(records((i % n).toInt))); i += 1 }
      w.close()
    })
    val decoded = new LongAdder
    def scanAll(): Double = parallel(PbcFiles.listParts(outDir).map { f => () =>
      val loaded = PbcFiles.readAll(f)
      val codec = new PbcCodec(loaded.dict, useFsst)
      loaded.records.foreach(r => decoded.add(codec.decompress(r).length.toLong))
    })
    try {
      writeAll(); scanAll()
      val w = Stat.median(Seq.fill(3)(writeAll()))
      val s = Stat.median(Seq.fill(3)(scanAll()))
      (Stat.median(writeJobS) - w, Stat.median(scanJobS) - s)
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
  }
}

object SparkJobs {
  /** Spark's local cores: two, or fewer on a smaller machine. */
  val Cores: Int = math.min(2, Runtime.getRuntime.availableProcessors())

  def session(workDir: Path): SparkSession = {
    val spark = SparkSession.builder()
      .master(s"local[$Cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.sql.shuffle.partitions", "1")
      .config("spark.local.dir", workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark
  }

  /** The overheads on a workload that runs no Spark job itself: three
    * write and three scan jobs over its records, in two partitions, after
    * one of each as warm-up.
    */
  def overheadsOn(in: Layers.Input): (Double, Double) = {
    val spark = session(in.dir)
    try {
      val jobs = new SparkJobs(spark, in.records, in.records.size.toLong, 2, in.dict, in.useFsst,
        in.dir.resolve("layers-spark").toString)
      jobs.write(); jobs.scan()
      val w = Seq.fill(3)(jobs.write() / 1e9)
      val s = Seq.fill(3)(jobs.scan()._2 / 1e9)
      jobs.overheads(in.dir, Cores, w, s)
    } finally spark.stop()
  }
}
