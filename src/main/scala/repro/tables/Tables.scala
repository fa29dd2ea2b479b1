package repro.tables

import java.nio.charset.StandardCharsets.UTF_8
import repro.codecs._
import repro.core.{Framing, PbcCodec}
import repro.fsst.FsstTable
import repro.data.MachineData
import repro.jsonbin.{BinPackD, IonB, J, MiniJson}
import repro.kvstore.{TierBaseLite, ValueCodec}
import repro.logreducer.LogReducer

/** Per-record codec output, framed, then a block codec over the framed
  * stream: the paper's PBC_Z / PBC_L construction, and the file mode of
  * the JSON serialisers (Ion-B+LZMA, BP-D+LZMA). The blob is the dataset's
  * records joined by `\n`.
  */
final class Framed(val name: String, rec: ValueCodec, backend: ByteCodec) extends ByteCodec {
  override def compress(blob: Array[Byte]): Array[Byte] = {
    val lines = new String(blob, UTF_8).split("\n", -1)
    backend.compress(Framing.pack(lines.iterator.map(rec.encode)))
  }
  override def decompress(coded: Array[Byte]): Array[Byte] =
    Framing.unpack(backend.decompress(coded))
      .map(rec.decode).mkString("\n").getBytes(UTF_8)
}

/** Standalone FSST over each record's UTF-8 bytes (the Table 3 baseline). */
final class FsstRecord(table: FsstTable) extends ValueCodec {
  override val name = "FSST"
  override def encode(r: String): Array[Byte] = table.encode(r.getBytes(UTF_8))
  override def decode(b: Array[Byte]): String = new String(table.decode(b), UTF_8)
}

/** One row of a ratio/speed table. */
final case class PerfRow(dataset: String, method: String,
                         ratio: Double, compMBps: Double, decompMBps: Double)

object Tables {
  import Bench._

  // ---------- Table 2: dataset statistics ----------

  final case class StatRow(dataset: String, numRecords: Long, avgLen: Double)

  def table2(): Vector[StatRow] =
    MachineData.all.map { name =>
      val rs = Dictionaries.records(name)
      StatRow(name, rs.size.toLong, rs.map(_.length.toLong).sum.toDouble / rs.size)
    }

  // ---------- shared evaluation drivers ----------

  /** Compress/decompress every record individually; verify lossless. */
  def evalRecord(dataset: String, m: ValueCodec): PerfRow = {
    val records = Dictionaries.records(dataset)
    val raw = Dictionaries.rawBytes(dataset)
    val warmN = math.min(records.size, 2000)

    val comp = measure { var i = 0; while (i < warmN) { m.encode(records(i)); i += 1 } } {
      records.map(m.encode)
    }
    val compressed = comp.value
    val compBytes = compressed.map(_.length.toLong).sum

    val dec = measure { var i = 0; while (i < warmN) { m.decode(compressed(i)); i += 1 } } {
      compressed.map(m.decode)
    }
    val bad = records.indices.find(i => dec.value(i) != records(i))
    require(bad.isEmpty,
      s"$dataset/${m.name}: lossy at record ${bad.get}: '${printable(records(bad.get))}' != '${printable(dec.value(bad.get))}'")

    PerfRow(dataset, m.name, compBytes.toDouble / raw,
      mbps(raw, comp.seconds), mbps(raw, dec.seconds))
  }

  /** Compress/decompress the dataset as one concatenated file. */
  def evalFile(dataset: String, m: ByteCodec): PerfRow = {
    val blob = Dictionaries.records(dataset).mkString("\n").getBytes(UTF_8)
    // warm-up prefix must end on a record boundary (record-aware file
    // methods parse every line, e.g. the JSON serializers)
    val warm = {
      val limit = math.min(blob.length, 1 << 18)
      var cut = limit
      while (cut > 0 && blob(cut - 1) != '\n'.toByte) cut -= 1
      java.util.Arrays.copyOf(blob, if (cut > 0) cut - 1 else limit)
    }

    // best-of-2 after warm-up: one-shot timings of multi-second block
    // codecs are exposed to GC pauses from the shared dictionary caches
    m.compress(warm)
    val c1 = time(m.compress(blob))
    val c2 = time(m.compress(blob))
    val comp = if (c1.seconds <= c2.seconds) c1 else c2
    val d1 = time(m.decompress(comp.value))
    val d2 = time(m.decompress(comp.value))
    val dec = if (d1.seconds <= d2.seconds) d1 else d2
    require(java.util.Arrays.equals(dec.value, blob), s"$dataset/${m.name}: lossy file round-trip")

    PerfRow(dataset, m.name, comp.value.length.toDouble / blob.length,
      mbps(blob.length.toLong, comp.seconds), mbps(blob.length.toLong, dec.seconds))
  }

  /** PBC over the dataset's dictionary; PBC_F when `fsst`. */
  private def pbc(dataset: String, fsst: Boolean): ValueCodec =
    new ValueCodec.PbcF(new PbcCodec(Dictionaries.pbc(dataset, withFsst = fsst)))

  private def pbcL(dataset: String, preset: Int): ByteCodec =
    new Framed("PBC_L", pbc(dataset, fsst = false), new LzmaCodec(preset))

  // ---------- Table 3: line-by-line compression ----------

  def table3Methods(dataset: String): Vector[ValueCodec] = Vector(
    new FsstRecord(Dictionaries.fsst(dataset)),
    new ValueCodec.OverBytes("LZ4(dict)", new Lz77DictCodec(Dictionaries.zstdDict(dataset))),
    new ValueCodec.OverBytes("Zstd(dict)", new ZstdDictCodec(Dictionaries.zstdDict(dataset))),
    pbc(dataset, fsst = false),
    pbc(dataset, fsst = true)
  )

  def table3(datasets: Seq[String] = MachineData.all): Vector[PerfRow] =
    datasets.toVector.flatMap(d => table3Methods(d).map(m => evalRecord(d, m)))

  // ---------- Table 4: file compression ----------

  def table4Methods(dataset: String): Vector[ByteCodec] = Vector(
    new SnappyCodec,
    new LzmaCodec(6),
    new Lz4Codec,
    new ZstdCodec(3),
    new Framed("PBC_Z", pbc(dataset, fsst = false), new ZstdCodec(3)),
    pbcL(dataset, 6)
  )

  def table4(datasets: Seq[String] = MachineData.all): Vector[PerfRow] =
    datasets.toVector.flatMap(d => table4Methods(d).map(m => evalFile(d, m)))

  // ---------- Table 5: log compression (averages over log datasets) ----------

  /** LogReducer-lite over the dataset's lines. */
  final class LogReducerFile extends ByteCodec {
    override val name = "LogReducer"
    override def compress(blob: Array[Byte]): Array[Byte] =
      LogReducer.compress(new String(blob, UTF_8).split("\n", -1).toSeq)
    override def decompress(coded: Array[Byte]): Array[Byte] =
      LogReducer.decompress(coded).mkString("\n").getBytes(UTF_8)
  }

  /** Per the paper: PBC_L at LZMA level 9 vs LogReducer, averaged. */
  def table5(datasets: Seq[String] = MachineData.logDatasets): Vector[PerfRow] = {
    val rows = datasets.toVector.flatMap { d =>
      Vector(evalFile(d, new LogReducerFile), evalFile(d, pbcL(d, 9)))
    }
    average(rows)
  }

  def average(rows: Vector[PerfRow]): Vector[PerfRow] =
    rows.groupBy(_.method).toVector.sortBy(_._1).map { case (m, rs) =>
      PerfRow("avg", m,
        rs.map(_.ratio).sum / rs.size,
        rs.map(_.compMBps).sum / rs.size,
        rs.map(_.decompMBps).sum / rs.size)
    }

  // ---------- Tables 6 & 7: JSON compression ----------

  /** Ion-B / BP-D as record codecs. Compression includes JSON parsing;
    * decompression renders canonical JSON (round-trip is verified on the
    * canonical form because binary JSON formats do not preserve
    * whitespace — our generators emit canonical JSON, so the comparison
    * is byte-exact here). The empty record, which is not JSON, is zero
    * bytes: every Ion-B value has a type tag and every BP-D record a flag
    * byte, so no JSON record encodes to nothing.
    */
  final class IonRecord(ion: IonB) extends ValueCodec {
    override val name = "Ion-B"
    override def encode(r: String): Array[Byte] =
      if (r.isEmpty) Array.emptyByteArray else ion.encode(MiniJson.parse(r))
    override def decode(b: Array[Byte]): String =
      if (b.isEmpty) "" else MiniJson.render(ion.decode(b))
  }

  final class BpdRecord(schema: BinPackD.Schema) extends ValueCodec {
    override val name = "BP-D"
    override def encode(r: String): Array[Byte] =
      if (r.isEmpty) Array.emptyByteArray else BinPackD.encode(schema, MiniJson.parse(r))
    override def decode(b: Array[Byte]): String =
      if (b.isEmpty) "" else MiniJson.render(BinPackD.decode(schema, b))
  }

  private def bpdLzma(dataset: String): ByteCodec =
    new Framed("BP-D+LZMA", new BpdRecord(bpdSchema(dataset)), new LzmaCodec(6))

  def bpdSchema(dataset: String): BinPackD.Schema = {
    val sample = Dictionaries.records(dataset).take(500).map(MiniJson.parse)
    BinPackD.inferSchema(sample)
  }

  def ionFileMode(dataset: String): IonB =
    IonB.fileMode(Dictionaries.records(dataset).take(500).map(MiniJson.parse))

  final case class Table6(record: Vector[PerfRow], file: Vector[PerfRow])

  def table6(datasets: Seq[String] = MachineData.jsonDatasets): Table6 = {
    val rec = datasets.toVector.flatMap { d =>
      Vector(new IonRecord(IonB.recordMode), new BpdRecord(bpdSchema(d)),
        pbc(d, fsst = false), pbc(d, fsst = true)).map(evalRecord(d, _))
    }
    val file = datasets.toVector.flatMap { d =>
      Vector(new Framed("Ion-B+LZMA", new IonRecord(ionFileMode(d)), new LzmaCodec(6)),
        bpdLzma(d), pbcL(d, 6)).map(evalFile(d, _))
    }
    Table6(average(rec), average(file))
  }

  /** Table 7: per-dataset compression ratio of the two best file methods. */
  def table7(datasets: Seq[String] = MachineData.jsonDatasets): Vector[PerfRow] =
    datasets.toVector.flatMap(d => Vector(bpdLzma(d), pbcL(d, 6)).map(evalFile(d, _)))

  // ---------- Table 8: production KV store case study ----------

  final case class KvRow(workload: String, codec: String,
                         memoryPct: Double, setQps: Double, getQps: Double)

  def table8(workloads: Map[String, String] = Map("A" -> "KV1", "B" -> "KV2")): Vector[KvRow] = {
    workloads.toVector.sortBy(_._1).flatMap { case (wl, dataset) =>
      val records = Dictionaries.records(dataset)
      val keys = records.indices.map(i => f"key:$i%08d")
      val codecs: Vector[ValueCodec] = Vector(
        ValueCodec.Uncompressed,
        new ValueCodec.OverBytes("Zstd", new ZstdDictCodec(Dictionaries.zstdDict(dataset))),
        pbc(dataset, fsst = true)
      )
      val baselineBytes = {
        val s = new TierBaseLite(ValueCodec.Uncompressed)
        records.indices.foreach(i => s.set(keys(i), records(i)))
        s.valueBytes
      }
      codecs.map { c =>
        val store = new TierBaseLite(c)
        // warm-up on a prefix
        (0 until math.min(2000, records.size)).foreach(i => store.set(keys(i), records(i)))
        val setT = Bench.time {
          records.indices.foreach(i => store.set(keys(i), records(i)))
        }
        val rnd = new scala.util.Random(11)
        val probes = Vector.fill(records.size)(keys(rnd.nextInt(keys.size)))
        probes.take(2000).foreach(store.get) // warm-up
        var hits = 0
        val getT = Bench.time { probes.foreach(k => if (store.get(k).isDefined) hits += 1) }
        require(hits == probes.size, s"missing keys in $wl/${c.name}")
        KvRow(wl, c.name,
          100.0 * store.valueBytes / baselineBytes,
          records.size / setT.seconds,
          probes.size / getT.seconds)
      }
    }
  }
}
