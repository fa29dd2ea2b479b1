package perfbench

import java.io.RandomAccessFile
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import scala.util.Random
import repro.codecs.ZstdCodec
import repro.core.{FieldEncoder, Framing, PatternDictionary, PbcCodec}
import repro.kvstore.{TierBaseLite, ValueCodec}
import repro.sparkpbc.PbcFiles

/** The traced run's layer pass: each layer called directly on the
  * workload's records, with a span around every call.
  *
  * Every `*_MBps` here is raw user megabytes of the records the layer
  * handled per second of the layer's own (self) time, so the reciprocals
  * of the layers on one path add up to the reciprocal of the end-to-end
  * rate.
  */
object Layers {
  final case class Input(
      records: IndexedSeq[String],
      dict: PatternDictionary,
      useFsst: Boolean,
      dir: Path)

  /** Records per PBC_Z block, in `log-archive` and in the layer pass. */
  val BlockRecords = 128

  private val ReadRecordCalls = 2000

  /** Runs the pass twice and reports the second; false in the second
    * value when a layer's output did not round-trip.
    */
  def run(in: Input, oracle: Oracle, tr: Trace): (Seq[Metric], Boolean) = {
    pass(in, oracle, tr)
    val before = tr.snapshot()
    val (counts, ok) = pass(in, oracle, tr)
    val agg = tr.snapshot().since(before)
    def selfNs(name: String): Long = agg.get(name).map(_.selfNs).getOrElse(0L)
    def perCall(name: String): Double = agg.get(name).map(a => a.selfNs.toDouble / a.count).getOrElse(0.0)
    def mbps(name: String*): Double = {
      val ns = name.map(selfNs).sum
      if (ns == 0) 0.0 else counts.raw * 1000.0 / ns
    }
    val metrics = Seq(
      Metric("core.dict_patterns", in.dict.size.toDouble, "count"),
      Metric("core.dict_dead_patterns", counts.dead.toDouble, "count"),
      Metric("core.dispatch.patterns_tried_per_record", counts.tried.toDouble / counts.n, "count"),
      Metric("core.dispatch_MBps", mbps("core.dispatch"), "MB/s"),
      Metric("core.outliers_per_record", counts.outliers.toDouble / counts.n, "ratio"),
      Metric("core.compress_MBps", mbps("core.compress"), "MB/s"),
      Metric("core.decompress_MBps", mbps("core.decompress"), "MB/s"),
      Metric("core.framing.pack_MBps", mbps("core.framing.pack"), "MB/s"),
      Metric("core.framing.unpack_MBps", mbps("core.framing.unpack"), "MB/s"),
      Metric("fsst.encode_MBps", mbps("fsst.encode"), "MB/s"),
      Metric("fsst.decode_MBps", mbps("fsst.decode"), "MB/s"),
      Metric("fsst.chosen_per_payload", counts.fsstChosen.toDouble / counts.payloads, "ratio"),
      Metric("codecs.zstd.compress_MBps", mbps("codecs.zstd.compress"), "MB/s"),
      Metric("codecs.zstd.decompress_MBps", mbps("codecs.zstd.decompress"), "MB/s"),
      Metric("codecs.zstd.out_per_in", counts.zstdOut.toDouble / counts.zstdIn, "ratio"),
      Metric("kvstore.set_self_ns", perCall("kvstore.set"), "ns"),
      Metric("kvstore.get_self_ns", perCall("kvstore.get"), "ns"),
      Metric("sparkpbc.file_append_MBps", mbps("sparkpbc.file_append", "sparkpbc.file_close"), "MB/s"),
      Metric("sparkpbc.read_all_MBps", mbps("sparkpbc.read_all"), "MB/s"),
      Metric("sparkpbc.read_record_us", perCall("sparkpbc.read_record") / 1000.0, "us"),
      Metric("sparkpbc.index_bytes_per_record", counts.indexBytes.toDouble / counts.n, "bytes"),
      Metric("sparkpbc.dict_bytes", counts.dictBytes.toDouble, "bytes")
    )
    (metrics, ok)
  }

  private final case class Counts(
      n: Long, raw: Long, dead: Long, tried: Long, outliers: Long,
      payloads: Long, fsstChosen: Long, zstdIn: Long, zstdOut: Long,
      indexBytes: Long, dictBytes: Long)

  private def pass(in: Input, oracle: Oracle, tr: Trace): (Counts, Boolean) = {
    val recs = in.records
    val n = recs.size
    val raw = recs.map(_.getBytes(UTF_8))
    var ok = true
    def span[A](name: String)(body: => A): A = {
      val s = tr.begin(tr.id(name))
      val v = body
      tr.end(s)
      v
    }

    // dispatch: the codec's longest-first scan, through Pattern.matchRecord
    val dict = in.dict
    val pats = dict.patterns
    val expected = recs.map(oracle.dispatch)
    var tried = 0L
    var outliers = 0L
    recs.indices.foreach { i =>
      val r = recs(i)
      val id = span("core.dispatch") {
        var p = 0
        var won = 0
        while (won == 0 && p < pats.length) {
          val cp = pats(p)
          if (cp.pattern.litLen <= r.length) cp.pattern.matchRecord(r) match {
            case Some(caps) if caps.indices.forall(f => cp.encoders(f).accepts(caps(f))) => won = p + 1
            case _ => ()
          }
          p += 1
        }
        won
      }
      if (id != expected(i)._1) ok = false
      tried += (if (id == 0) pats.length else id)
      if (id == 0) outliers += 1
    }

    // the record codec
    val codec = new PbcCodec(if (in.useFsst) dict else dict.copy(fsst = None), in.useFsst)
    val comp = recs.map(r => span("core.compress")(codec.compress(r)))
    recs.indices.foreach { i =>
      if (span("core.decompress")(codec.decompress(comp(i))) != recs(i)) ok = false
    }

    // framing and the block codec, on blocks of compressed records
    val zstd = new ZstdCodec(3)
    var zin = 0L
    var zout = 0L
    comp.grouped(BlockRecords).foreach { block =>
      val packed = span("core.framing.pack")(Framing.pack(block.iterator))
      val z = span("codecs.zstd.compress")(zstd.compress(packed))
      val back = span("codecs.zstd.decompress")(zstd.decompress(z))
      val recsBack = span("core.framing.unpack")(Framing.unpack(back))
      zin += packed.length
      zout += z.length
      if (recsBack.length != block.length || !recsBack.indices.forall(j => java.util.Arrays.equals(recsBack(j), block(j))))
        ok = false
    }

    // FSST on the payloads PBC_F hands it: VARCHAR and CHAR(n >= 4)
    // fields of matched records, and whole outliers
    val table = dict.fsst.getOrElse(throw new IllegalStateException("dictionary has no FSST table"))
    var payloads = 0L
    var chosen = 0L
    expected.foreach { case (id, caps) =>
      val fields =
        if (id == 0) caps.toSeq
        else caps.indices.collect {
          case f if pats(id - 1).encoders(f) == FieldEncoder.VarChar => caps(f)
          case f if (pats(id - 1).encoders(f) match { case FieldEncoder.Char_(w) => w >= 4; case _ => false }) => caps(f)
        }
      fields.foreach { v =>
        val b = v.getBytes(UTF_8)
        val e = span("fsst.encode")(table.encode(b))
        if (!java.util.Arrays.equals(span("fsst.decode")(table.decode(e)), b)) ok = false
        payloads += 1
        if (e.length < b.length) chosen += 1
      }
    }

    // the KV store, with the record codec as its value codec
    val store = new TierBaseLite(new Workload.TracedCodec(new ValueCodec.PbcF(codec), tr, "kvstore.codec.encode", "kvstore.codec.decode"))
    val keys = recs.indices.map(i => f"key:$i%08d")
    recs.indices.foreach(i => span("kvstore.set")(store.set(keys(i), recs(i))))
    recs.indices.foreach { i =>
      if (!span("kvstore.get")(store.get(keys(i))).contains(recs(i))) ok = false
    }

    // the .pbc file: append, close, readAll and readRecord
    val file = in.dir.resolve("layers.pbc")
    val w = new PbcFiles.Writer(file, codec.dict.serialize)
    comp.foreach(c => span("sparkpbc.file_append")(w.append(c)))
    span("sparkpbc.file_close")(w.close())
    val loaded = span("sparkpbc.read_all")(PbcFiles.readAll(file))
    if (loaded.records.length != n || !comp.indices.forall(i => java.util.Arrays.equals(loaded.records(i), comp(i))))
      ok = false
    val rnd = new Random(99)
    (0 until ReadRecordCalls).foreach { _ =>
      val i = rnd.nextInt(n)
      if (!java.util.Arrays.equals(span("sparkpbc.read_record")(PbcFiles.readRecord(file, i)), comp(i))) ok = false
    }
    val dictLen = {
      val f = new RandomAccessFile(file.toFile, "r")
      try { f.seek(4); f.readInt() } finally f.close()
    }
    val indexBytes = Files.size(file) - 8 - dictLen - comp.map(_.length.toLong).sum
    Files.delete(file)

    val dead = pats.length - expected.map(_._1).filter(_ > 0).distinct.size
    (Counts(n, raw.map(_.length.toLong).sum, dead, tried, outliers, payloads, chosen, zin, zout, indexBytes, dictLen), ok)
  }
}
