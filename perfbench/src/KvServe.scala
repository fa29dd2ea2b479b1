package perfbench

import java.nio.file.Path
import scala.util.Random
import repro.core.{PatternDictionary, PatternExtractor, PbcCodec}
import repro.data.MachineData
import repro.kvstore.{TierBaseLite, ValueCodec}

/** TierBase-lite with PBC_F values on KV1 (paper Table 8, workload A).
  *
  * One client runs a closed loop over a fixed trace of operations: 50 %
  * SETs that overwrite a key with a value from a pool, 40 % GETs, both
  * with Zipf(0.99) key popularity, and 10 % lookups, GETs of a key drawn
  * uniformly. SETs run pattern dispatch and FSST; GETs and lookups
  * bypass dispatch. Every GET is compared with the value a plain model,
  * an array from key number to value, holds for the key.
  */
final class KvServe(seed: Long, tr: Trace, workDir: Path) extends Workload(seed, tr, workDir) {
  private val Keys = 50000
  private val Pool = 20000
  private val OpsPerRound = 20000
  private val Set: Byte = 0
  private val Get: Byte = 1
  private val Lookup: Byte = 2

  override def warmupRounds: Int = 10

  private val keys = Array.tabulate(Keys)(i => f"key:$i%08d")
  private var values: Vector[String] = _
  private var dict: PatternDictionary = _
  private var codec: PbcCodec = _
  private var store: TierBaseLite = _

  private var rawLen: Array[Int] = _
  private var kind: Array[Byte] = _
  private var keyOf: Array[Int] = _
  private var valueOf: Array[Int] = _
  /** The model: for each key number, the index in `values` of the value it holds. */
  private val model = new Array[Int](Keys)
  private var oracle0: Oracle = _

  private val setId = if (tr != null) tr.id("kvstore.set") else -1
  private val getId = if (tr != null) tr.id("kvstore.get") else -1
  private val lookupId = if (tr != null) tr.id("kvstore.lookup") else -1

  override def setup(): Unit = {
    values = timedSetup(genS)(MachineData.records("KV1", Keys + Pool, Workload.CorpusSeed))
    dict = timedSetup(trainS)(PatternExtractor.train(values.take(Keys), Workload.trainConfig))
    codec = new PbcCodec(dict, useFsst = true)
    val vc: ValueCodec = new ValueCodec.PbcF(codec)
    store = new TierBaseLite(if (tr != null) new Workload.TracedCodec(vc, tr, "core.compress", "core.decompress") else vc)
    var i = 0
    while (i < Keys) { store.set(keys(i), values(i)); i += 1 }
  }

  override def prepare(): Unit = {
    rawLen = values.map(Workload.utf8Len).toArray
    (0 until Keys).foreach(i => model(i) = i)
    val rnd = new Random(seed * 1000003L + 17L)
    val hot = rnd.shuffle((0 until Keys).toVector).toArray
    val cdf = {
      val w = Array.tabulate(Keys)(r => 1.0 / math.pow(r + 1.0, 0.99))
      val c = w.scanLeft(0.0)(_ + _).tail
      c.map(_ / c.last)
    }
    def zipf(): Int = {
      val i = java.util.Arrays.binarySearch(cdf, rnd.nextDouble())
      hot(math.min(Keys - 1, if (i >= 0) i else -i - 1))
    }
    kind = new Array[Byte](OpsPerRound)
    keyOf = new Array[Int](OpsPerRound)
    valueOf = new Array[Int](OpsPerRound)
    (0 until OpsPerRound).foreach { o =>
      val u = rnd.nextInt(10)
      if (u < 5) { kind(o) = Set; keyOf(o) = zipf(); valueOf(o) = Keys + rnd.nextInt(Pool) }
      else if (u < 9) { kind(o) = Get; keyOf(o) = zipf() }
      else { kind(o) = Lookup; keyOf(o) = rnd.nextInt(Keys) }
    }
    oracle0 = new Oracle(dict)
  }

  override def round(): Unit = {
    var o = 0
    while (o < OpsPerRound) {
      val k = keyOf(o)
      val key = keys(k)
      if (kind(o) == Set) {
        val v = valueOf(o)
        attempt {
          val s = if (tr != null) tr.begin(setId) else -1
          val t0 = System.nanoTime()
          store.set(key, values(v))
          val t1 = System.nanoTime()
          if (tr != null) tr.end(s)
          op(write, t1 - t0, rawLen(v))
          model(k) = v
          true
        }
      } else {
        val lk = kind(o) == Lookup
        attempt {
          val s = if (tr != null) tr.begin(if (lk) lookupId else getId) else -1
          val t0 = System.nanoTime()
          val got = store.get(key)
          val t1 = System.nanoTime()
          if (tr != null) tr.end(s)
          val v = model(k)
          op(if (lk) lookup else read, t1 - t0, rawLen(v))
          got.contains(values(v))
        }
      }
      o += 1
    }
  }

  /** Encoded lengths of the values the model holds, over their raw
    * lengths; the encoded total must equal the store's own count.
    */
  override def bytesPerUserByte: Double = {
    var enc = 0L
    var raw = 0L
    model.foreach { v =>
      enc += codec.compress(values(v)).length
      raw += rawLen(v)
    }
    if (enc != store.valueBytes) {
      System.err.println(s"kv-serve: encoded bytes $enc != TierBaseLite.valueBytes ${store.valueBytes}")
      broken = true
    }
    enc.toDouble / raw
  }

  override def layerInput: Layers.Input = Layers.Input(values.take(Keys), dict, useFsst = true, workDir)
  override def oracle: Oracle = oracle0

  override def info: Seq[(String, String)] = Seq(
    "dataset" -> "KV1",
    "keys" -> Keys.toString,
    "value_pool" -> Pool.toString,
    "raw_MB_loaded" -> Workload.mb(rawLen.take(Keys).map(_.toLong).sum),
    "ops_per_round" -> OpsPerRound.toString,
    "mix" -> "50% SET, 40% GET (Zipf 0.99), 10% lookup (uniform GET)",
    "codec" -> "PBC_F"
  )
}
