package repro.sparkpbc

import java.nio.file.{Files, Path}
import java.util.Comparator
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DateType, LongType}
import org.scalatest.Outcome
import scala.collection.mutable
import scala.util.Using
import repro.{Oracle, SparkSpec}
import repro.core.{PatternExtractor, PbcCodec}
import repro.data.MachineData

/** End-to-end tests of the `pbc` DataSourceV2 format and the executor
  * compression pipeline, including DuckDB-oracle query equivalence.
  */
class PbcDataSourceSpec extends SparkSpec {

  private val dirs = mutable.Buffer.empty[Path]

  /** A fresh directory, deleted with its contents when the test ends. */
  private def tempDir(): String = {
    val d = Files.createTempDirectory("pbc-test")
    dirs += d
    d.toString
  }

  override def withFixture(test: NoArgTest): Outcome =
    try super.withFixture(test)
    finally {
      dirs.foreach { d =>
        Using.resource(Files.walk(d))(_.sorted(Comparator.reverseOrder[Path]).forEach(f => Files.delete(f)))
      }
      dirs.clear()
    }

  private lazy val kv1 = MachineData.df(spark, "KV1", 3000)
  private lazy val dict = PbcSpark.train(kv1, "value", PatternExtractor.Config(k = 8, sampleSize = 100))
  private lazy val fsstDict =
    PbcSpark.train(kv1, "value", PatternExtractor.Config(k = 8, sampleSize = 100, withFsst = true))

  private def sortedValues(df: DataFrame): Seq[String] = {
    import spark.implicits._
    df.select("value").as[String].collect().sorted.toSeq
  }

  /** TPC-H-like `orders` at scale factor 0.003: 4 500 orders over 450
    * customers, deterministic, so the DuckDB oracle sees the same input.
    */
  private def tpchOrders(): DataFrame = {
    import spark.implicits._
    spark.range(1, 4501).toDF("o_orderkey").select(
      $"o_orderkey",
      (rand(1) * 450 + 1).cast(LongType)                       as "o_custkey",
      element_at(array(lit("O"), lit("F"), lit("P")),
                 (rand(2) * 3 + 1).cast("int"))                as "o_orderstatus",
      round(rand(3) * 500000 + 1000, 2)                        as "o_totalprice",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(4) * 2406).cast("int"))                   as "o_orderdate",
    )
  }

  test("write + read round-trips all rows through the pbc format") {
    import spark.implicits._
    val dir = tempDir()
    PbcSpark.write(kv1, "value", dict, dir)
    val back = PbcSpark.read(spark, dir)
    assert(back.count() == 3000)
    val orig = kv1.as[String].collect().sorted
    val got = back.as[String].collect().sorted
    assert(got.sameElements(orig))
  }

  test("pbc files are smaller than the raw data") {
    import spark.implicits._
    val dir = tempDir()
    PbcSpark.write(kv1, "value", dict, dir)
    val stored = PbcFiles.listParts(dir).map(p => Files.size(p)).sum
    val raw = kv1.as[String].collect().map(_.getBytes("UTF-8").length.toLong).sum
    assert(stored < raw, s"stored=$stored raw=$raw")
  }

  test("overwrite mode truncates previous parts") {
    val dir = tempDir()
    PbcSpark.write(kv1, "value", dict, dir)
    PbcSpark.write(kv1.limit(100), "value", dict, dir)
    assert(PbcSpark.read(spark, dir).count() == 100)
  }

  test("per-record random access decodes single records without a scan") {
    import spark.implicits._
    val dir = tempDir()
    PbcSpark.write(kv1.repartition(1), "value", dict, dir)
    val part = PbcFiles.listParts(dir).head
    val n = PbcFiles.recordCount(part)
    assert(n == 3000)
    val codec = new PbcCodec(PbcFiles.readDict(part))
    val all = PbcFiles.readAll(part).records.map(codec.decompress)
    for (i <- Seq(0, 7, 1234, n - 1)) {
      val one = codec.decompress(PbcFiles.readRecord(part, i))
      assert(one == all(i))
    }
  }

  test("a part written as PBC_F decodes with the codec of its own dictionary") {
    val dir = tempDir()
    PbcSpark.write(kv1.coalesce(1), "value", fsstDict, dir, useFsst = true)
    val part = PbcFiles.listParts(dir).head
    val codec = new PbcCodec(PbcFiles.readDict(part))
    assert(codec.useFsst)
    val decoded = PbcFiles.readAll(part).records.map(codec.decompress)
    assert(decoded.sorted == sortedValues(kv1))
  }

  test("a plain-PBC write leaves the FSST table out of the file") {
    val dir = tempDir()
    PbcSpark.write(kv1.coalesce(1), "value", fsstDict, dir, useFsst = false)
    assert(PbcFiles.readDict(PbcFiles.listParts(dir).head).fsst.isEmpty)
    assert(sortedValues(PbcSpark.read(spark, dir)) == sortedValues(kv1))
  }

  test("the writer given a dictionary with an FSST table writes PBC_F") {
    val dir = tempDir()
    kv1.write.format("pbc")
      .option("pbc.dict", PbcDataSource.encodeDictOption(fsstDict))
      .mode("overwrite").save(dir)
    val parts = PbcFiles.listParts(dir)
    assert(parts.nonEmpty && parts.forall(PbcFiles.readDict(_).fsst.isDefined))
    assert(sortedValues(PbcSpark.read(spark, dir)) == sortedValues(kv1))
  }

  test("random access rejects out-of-range indices") {
    val dir = tempDir()
    PbcSpark.write(kv1.limit(10).repartition(1), "value", dict, dir)
    val part = PbcFiles.listParts(dir).head
    intercept[IllegalArgumentException](PbcFiles.readRecord(part, 10))
  }

  test("writer requires the dict option") {
    val ex = intercept[Exception] {
      kv1.select(col("value")).write.format("pbc").mode("append").save(tempDir())
    }
    assert(ex.getMessage.contains("pbc.dict") || ex.getCause != null)
  }

  test("executor pipeline compress/decompress round-trips") {
    import spark.implicits._
    val compressed = PbcSpark.compress(kv1, "value", dict)
    val back = PbcSpark.decompress(compressed, dict)
    assert(back.collect().sorted.sameElements(kv1.as[String].collect().sorted))
  }

  test("pipeline compression shrinks the data across executors") {
    import spark.implicits._
    val compBytes = PbcSpark.compress(kv1, "value", dict)
      .map(_.length.toLong).reduce(_ + _)
    val rawBytes = kv1.as[String].map(_.getBytes("UTF-8").length.toLong).reduce(_ + _)
    assert(compBytes < rawBytes)
  }

  test("oracle: aggregation over pbc-round-tripped orders matches DuckDB on the original") {
    val orders = tpchOrders().cache()
    import spark.implicits._
    // serialize orders to records, push through the pbc format, read back,
    // parse, aggregate — any codec corruption breaks result equality
    val asRecords = orders.select(
      concat_ws("|",
        $"o_orderkey", $"o_custkey", $"o_orderstatus",
        format_number($"o_totalprice", 2), $"o_orderdate"
      ).as("value"))
    val d = PbcSpark.train(asRecords, "value", PatternExtractor.Config(k = 8, sampleSize = 100))
    val dir = tempDir()
    PbcSpark.write(asRecords, "value", d, dir)
    val back = PbcSpark.read(spark, dir)
      .select(split($"value", "\\|").as("f"))
      .select(
        $"f".getItem(0).cast("long").as("o_orderkey"),
        $"f".getItem(2).as("o_orderstatus"))
    val agg = back.groupBy($"o_orderstatus")
      .agg(count(lit(1)).as("cnt"), max($"o_orderkey").as("max_key"))
    Oracle.assertEquivalent(
      agg,
      "SELECT o_orderstatus, count(*) AS cnt, max(CAST(o_orderkey AS BIGINT)) AS max_key " +
        "FROM orders GROUP BY o_orderstatus",
      "orders" -> orders)
  }

  test("oracle: pbc-compressed machine data preserves exact value multiset") {
    import spark.implicits._
    val df = MachineData.df(spark, "KV4", 2000)
    val dir = tempDir()
    val d = PbcSpark.train(df, "value", PatternExtractor.Config(k = 8, sampleSize = 100))
    PbcSpark.write(df, "value", d, dir)
    val back = PbcSpark.read(spark, dir)
    val agg = back.groupBy($"value").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      agg,
      "SELECT value, count(*) AS cnt FROM kv GROUP BY value",
      "kv" -> df)
  }
}
