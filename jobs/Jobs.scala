package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.{Bench, Tables}

/** spark-submit entrypoints, one per evaluation table.
  *
  * The compression benchmarks themselves are deliberately single-threaded
  * (the paper reports single-core MB/s); Spark enters through dataset
  * generation and the `pbc` DataSourceV2 demo job. Run e.g.:
  *
  *   spark-submit --class repro.jobs.Table3LineByLine repro.jar [datasets...]
  */
object JobUtil {
  def local(app: String): SparkSession =
    SparkSession.builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app).config("spark.ui.enabled", "false").getOrCreate()

  def datasetsArg(args: Array[String], default: Seq[String]): Seq[String] =
    if (args.isEmpty) default else args.toSeq
}

object Table2Stats {
  def main(args: Array[String]): Unit = Bench.printTable2(Tables.table2())
}

object Table3LineByLine {
  def main(args: Array[String]): Unit =
    Bench.printPerf("Table 3: line-by-line compression",
      Tables.table3(JobUtil.datasetsArg(args, repro.data.MachineData.all)))
}

object Table4FileCompression {
  def main(args: Array[String]): Unit =
    Bench.printPerf("Table 4: file compression",
      Tables.table4(JobUtil.datasetsArg(args, repro.data.MachineData.all)))
}

object Table5LogCompression {
  def main(args: Array[String]): Unit =
    Bench.printPerf("Table 5: log compression (averages)", Tables.table5())
}

object Table6JsonCompression {
  def main(args: Array[String]): Unit = {
    val t = Tables.table6()
    Bench.printPerf("Table 6: JSON record compression (averages)", t.record)
    Bench.printPerf("Table 6: JSON file compression (averages)", t.file)
  }
}

object Table7JsonPerDataset {
  def main(args: Array[String]): Unit =
    Bench.printPerf("Table 7: JSON per-dataset ratio", Tables.table7())
}

object Table8CaseStudy {
  def main(args: Array[String]): Unit = Bench.printTable8(Tables.table8())
}

/** End-to-end demo of the `pbc` DataSourceV2 format: write a dataset
  * through executors, read it back, and do a per-record random access.
  */
object PbcFormatDemo {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.local("pbc-format-demo")
    try {
      val name = if (args.nonEmpty) args(0) else "KV1"
      val dir = java.nio.file.Files.createTempDirectory("pbcdemo").toString
      val df = repro.data.MachineData.df(spark, name, 20000)
      val dict = repro.sparkpbc.PbcSpark.train(df, "value",
        repro.tables.Dictionaries.pbcConfig(name))
      repro.sparkpbc.PbcSpark.write(df, "value", dict, dir)
      val back = repro.sparkpbc.PbcSpark.read(spark, dir)
      println(s"rows written+read: ${back.count()}")
      val part = repro.sparkpbc.PbcFiles.listParts(dir).head
      val codec = new repro.core.PbcCodec(repro.sparkpbc.PbcFiles.readDict(part))
      println(s"random access record 7 of $part: " +
        codec.decompress(repro.sparkpbc.PbcFiles.readRecord(part, 7)))
    } finally spark.stop()
  }
}
