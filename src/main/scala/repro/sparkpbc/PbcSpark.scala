package repro.sparkpbc

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.{PatternDictionary, PatternExtractor, PbcCodec}

/** DataFrame-level PBC pipeline.
  *
  * Pattern extraction is the paper's offline phase and runs on a small
  * driver-side sample; compression and decompression run inside
  * executors via `mapPartitions` with the broadcast dictionary, so the
  * heavy per-record work parallelizes across cores exactly like a
  * columnar encoder inside a write path.
  */
object PbcSpark {

  /** Train a dictionary on a sample of `col` taken from `df`. */
  def train(df: DataFrame, col: String, cfg: PatternExtractor.Config = PatternExtractor.Config()): PatternDictionary = {
    val spark = df.sparkSession
    import spark.implicits._
    // Oversample then let the extractor subsample deterministically.
    val sample = df.select(col).as[String].take(cfg.sampleSize * 10).toSeq
    PatternExtractor.train(sample, cfg)
  }

  /** Compress `col` per record in executors → Dataset[Array[Byte]]
    * (PBC_F when `dict` carries an FSST table).
    */
  def compress(df: DataFrame, col: String, dict: PatternDictionary): Dataset[Array[Byte]] = {
    val spark = df.sparkSession
    import spark.implicits._
    val bcast = spark.sparkContext.broadcast(dict.serialize)
    df.select(col).as[String].mapPartitions { it =>
      val codec = new PbcCodec(PatternDictionary.deserialize(bcast.value))
      it.map(codec.compress)
    }
  }

  /** Decompress PBC records in executors → Dataset[String]. */
  def decompress(ds: Dataset[Array[Byte]], dict: PatternDictionary): Dataset[String] = {
    val spark = ds.sparkSession
    import spark.implicits._
    val bcast = spark.sparkContext.broadcast(dict.serialize)
    ds.mapPartitions { it =>
      val codec = new PbcCodec(PatternDictionary.deserialize(bcast.value))
      it.map(codec.decompress)
    }
  }

  /** Write a string column through the `pbc` DataSourceV2 format: PBC_F
    * when `useFsst` and `dict` carries an FSST table, else plain PBC with
    * the table left out of the file.
    */
  def write(df: DataFrame, col: String, dict: PatternDictionary, dir: String, useFsst: Boolean = false): Unit =
    df.select(df(col).as("value"))
      .write.format("pbc")
      .option("pbc.dict", PbcDataSource.encodeDictOption(if (useFsst) dict else dict.copy(fsst = None)))
      .mode("overwrite")
      .save(dir)

  /** Read a `pbc` dataset back as a DataFrame (`value: STRING`). */
  def read(spark: SparkSession, dir: String): DataFrame =
    spark.read.format("pbc").load(dir)
}
