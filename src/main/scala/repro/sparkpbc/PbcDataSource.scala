package repro.sparkpbc

import java.nio.file.{Files, Paths}
import java.util
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, SupportsWrite, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.connector.write._
import org.apache.spark.sql.sources.DataSourceRegister
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.apache.spark.unsafe.types.UTF8String
import repro.core.{PatternDictionary, PbcCodec}

/** DataSourceV2 provider for the `pbc` file format.
  *
  * Layering (DESIGN.md §3): PBC is an executor-local, per-record codec
  * behind a custom file format. The writer compresses each record of a
  * `value: STRING` column inside the executor, one `.pbc` file per
  * partition (the per-column-chunk analogue); the reader decompresses
  * per record. The serialized pattern dictionary travels to executors
  * through the writer factory (write) or the file header (read), and
  * the on-disk offset index preserves per-record random access. A
  * dictionary with an FSST table writes PBC_F; one without writes PBC.
  *
  * Usage:
  * {{{
  *   df.write.format("pbc").option("pbc.dict", base64Dict).mode("append").save(dir)
  *   spark.read.format("pbc").load(dir)
  * }}}
  */
final class PbcDataSource extends TableProvider with DataSourceRegister {
  override def shortName(): String = "pbc"

  override def inferSchema(options: CaseInsensitiveStringMap): StructType = PbcDataSource.Schema

  override def getTable(
      schema: StructType,
      partitioning: Array[Transform],
      properties: util.Map[String, String]
  ): Table = {
    val path = Option(properties.get("path"))
      .getOrElse(throw new IllegalArgumentException("pbc: 'path' option is required"))
    new PbcTable(path)
  }
}

object PbcDataSource {
  val Schema: StructType = StructType(Seq(StructField("value", StringType, nullable = false)))

  def encodeDictOption(dict: PatternDictionary): String =
    java.util.Base64.getEncoder.encodeToString(dict.serialize)

  def decodeDictOption(s: String): PatternDictionary =
    PatternDictionary.deserialize(java.util.Base64.getDecoder.decode(s))
}

private[sparkpbc] final class PbcTable(path: String) extends Table with SupportsRead with SupportsWrite {
  override def name(): String = s"pbc:$path"
  override def schema(): StructType = PbcDataSource.Schema
  override def capabilities(): util.Set[TableCapability] =
    util.EnumSet.of(TableCapability.BATCH_READ, TableCapability.BATCH_WRITE, TableCapability.TRUNCATE)

  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new PbcScanBuilder(path)

  override def newWriteBuilder(info: LogicalWriteInfo): WriteBuilder = {
    require(info.schema().fields.map(f => (f.name, f.dataType)).sameElements(
      PbcDataSource.Schema.fields.map(f => (f.name, f.dataType))),
      s"pbc expects schema ${PbcDataSource.Schema.simpleString}, got ${info.schema().simpleString}")
    val dictB64 = Option(info.options.get("pbc.dict"))
      .getOrElse(throw new IllegalArgumentException("pbc: writer requires option 'pbc.dict'"))
    new PbcWriteBuilder(path, dictB64)
  }
}

// ---------------- read path ----------------

private[sparkpbc] final class PbcScanBuilder(path: String) extends ScanBuilder {
  override def build(): Scan = new PbcScan(path)
}

private[sparkpbc] final class PbcScan(path: String) extends Scan with Batch {
  override def readSchema(): StructType = PbcDataSource.Schema
  override def toBatch: Batch = this

  override def planInputPartitions(): Array[InputPartition] =
    PbcFiles.listParts(path).map(p => PbcInputPartition(p.toString): InputPartition).toArray

  override def createReaderFactory(): PartitionReaderFactory = new PbcReaderFactory
}

private[sparkpbc] final case class PbcInputPartition(file: String) extends InputPartition

private[sparkpbc] final class PbcReaderFactory extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] = {
    val file = partition.asInstanceOf[PbcInputPartition].file
    val reader = new PbcFiles.Reader(Paths.get(file))
    try new PartitionReader[InternalRow] {
      private val codec = new PbcCodec(reader.dict())
      private val records = reader.records()
      private var current: Array[Byte] = _
      override def next(): Boolean = records.hasNext && { current = records.next(); true }
      override def get(): InternalRow = InternalRow(UTF8String.fromString(codec.decompress(current)))
      override def close(): Unit = reader.close()
    } catch { case e: Throwable => reader.close(); throw e }
  }
}

// ---------------- write path ----------------

private[sparkpbc] final class PbcWriteBuilder(path: String, dictB64: String)
    extends WriteBuilder with SupportsTruncate {
  private var doTruncate = false
  override def truncate(): WriteBuilder = { doTruncate = true; this }

  override def build(): Write = new Write {
    override def toBatch: BatchWrite = new PbcBatchWrite(path, dictB64, doTruncate)
  }
}

private[sparkpbc] final class PbcBatchWrite(
    path: String, dictB64: String, truncate: Boolean
) extends BatchWrite {

  override def createBatchWriterFactory(info: PhysicalWriteInfo): DataWriterFactory = {
    val dir = Paths.get(path)
    if (truncate && Files.isDirectory(dir))
      PbcFiles.listParts(path).foreach(Files.delete)
    Files.createDirectories(dir)
    new PbcWriterFactory(path, dictB64)
  }

  override def commit(messages: Array[WriterCommitMessage]): Unit = ()
  override def abort(messages: Array[WriterCommitMessage]): Unit = ()
}

private[sparkpbc] final class PbcWriterFactory(path: String, dictB64: String)
    extends DataWriterFactory {
  override def createWriter(partitionId: Int, taskId: Long): DataWriter[InternalRow] = {
    // Executor-local: dictionary deserialized once per partition, records
    // compressed one by one — the per-column-chunk codec of the brief.
    val dict = PbcDataSource.decodeDictOption(dictB64)
    val codec = new PbcCodec(dict)
    val file = Paths.get(path, f"part-$partitionId%05d-$taskId.pbc")
    val writer = new PbcFiles.Writer(file, dict.serialize)
    new DataWriter[InternalRow] {
      override def write(record: InternalRow): Unit =
        writer.append(codec.compress(record.getUTF8String(0).toString))
      override def commit(): WriterCommitMessage = { writer.close(); PbcCommit }
      override def abort(): Unit = ()
      override def close(): Unit = ()
    }
  }
}

private[sparkpbc] case object PbcCommit extends WriterCommitMessage
