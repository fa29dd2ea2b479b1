package perfbench

import java.nio.file.{Files, Path, Paths}

/** Runs one workload in this JVM and prints two JSON lines on stdout:
  * `{"info": ...}` (what ran, on what) and the result.
  *
  * {{{
  *   perfbench.Main --workload kv-serve --seed 1 --seconds 20 --trace 0 --work-dir DIR
  * }}}
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = opt("workload")
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val traced = opt("trace") match {
      case "0" => false
      case "1" => true
      case other => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $other")
    }
    val workDir = Files.createDirectories(Paths.get(opt("work-dir")))
    val tr = if (traced) new Trace(1 << 20) else null
    val w: Workload = workload match {
      case "kv-serve"    => new KvServe(seed, tr, workDir)
      case "log-archive" => new LogArchive(seed, tr, workDir)
      case "spark-pbc"   => new SparkPbc(seed, tr, workDir)
      case other => throw new IllegalArgumentException(s"unknown workload $other")
    }
    try run(w, workload, seed, seconds, traced, workDir)
    finally w.close()
  }

  private def run(w: Workload, workload: String, seed: Long, seconds: Double, traced: Boolean, workDir: Path): Unit = {
    val setupS = (1 to Workload.Setups).map(_ => Stat.time(w.setup())._2)
    w.prepare()
    (1 to w.warmupRounds).foreach { _ => w.round(); endRound(w) }

    w.startMeasuring()
    val alloc0 = Jvm.allocatedBytes()
    val up0 = Jvm.uptimeMs()
    val t0 = System.nanoTime()
    var rounds = 0
    while (rounds == 0 || System.nanoTime() - t0 < seconds * 1e9) {
      w.round()
      endRound(w)
      rounds += 1
    }
    val measuredS = (System.nanoTime() - t0) / 1e9
    val allocPerByte = (Jvm.allocatedBytes() - alloc0).toDouble / w.userBytes
    val up1 = Jvm.uptimeMs()

    val endToEnd = Seq(
      Metric("setup_s", Stat.median(setupS), "s"),
      Metric("write_MBps", w.write.MBps, "MB/s"),
      Metric("read_MBps", w.read.MBps, "MB/s"),
      Metric("write_p50_us", w.write.p50us, "us"),
      Metric("write_p99_us", w.write.p99us, "us"),
      Metric("read_p50_us", w.read.p50us, "us"),
      Metric("read_p99_us", w.read.p99us, "us"),
      Metric("lookup_p50_us", w.lookup.p50us, "us"),
      Metric("lookup_p99_us", w.lookup.p99us, "us"),
      Metric("bytes_per_user_byte", w.bytesPerUserByte, "ratio")
    )

    val perLayer =
      if (!traced) Seq.empty
      else {
        val (layers, layersOk) = Layers.run(w.layerInput, w.oracle, w.tr)
        if (!layersOk) { System.err.println(s"$workload: a layer did not round-trip"); w.broken = true }
        val (sparkWrite, sparkScan) = w.sparkOverheads()
        Seq(
          Metric("data.gen_s", Stat.median(w.genS.toVector), "s"),
          Metric("core.train_s", Stat.median(w.trainS.toVector), "s")
        ) ++ layers ++ Seq(
          Metric("sparkpbc.spark_write_overhead_s", sparkWrite, "s"),
          Metric("sparkpbc.spark_scan_overhead_s", sparkScan, "s"),
          Metric("jvm.alloc_bytes_per_user_byte", allocPerByte, "ratio"),
          Metric("jvm.gc_pause_ms", Jvm.gcPauseMs(workDir.resolve("gc.log"), up0, up1), "ms")
        )
      }

    if (traced) {
      val base = workDir.resolve(s"trace-$workload-$seed")
      w.tr.write(Paths.get(s"$base.tsv.gz"))
      val lines = w.tr.snapshot().byName.toVector.sortBy(-_._2.selfNs).map { case (n, a) =>
        f"$n\t${a.count}\t${a.totalNs / 1e6}%.3f\t${a.selfNs / 1e6}%.3f"
      }
      Files.write(Paths.get(s"$base.summary.tsv"), ("name\tcount\ttotal_ms\tself_ms" +: lines).mkString("", "\n", "\n").getBytes("UTF-8"))
      System.err.println(s"${w.tr.recorded} spans recorded, the first ${w.tr.written} written to $base.tsv.gz")
      System.err.println(s"traced end-to-end ($workload, seed $seed): " +
        endToEnd.map(m => s"${m.name}=${m.value}").mkString(" "))
    }

    val info = Seq(
      "workload" -> Json.str(workload),
      "seed" -> seed.toString,
      "seconds" -> Json.num(seconds),
      "trace" -> traced.toString,
      "rounds_measured" -> rounds.toString,
      "measured_s" -> Json.num(measuredS),
      "setup_runs_s" -> setupS.map(Json.num).mkString("[", ", ", "]"),
      "round_MBps_ranks" -> Json.obj(Seq("write" -> w.write, "read" -> w.read, "lookup" -> w.lookup).map { case (k, st) =>
        k -> st.roundMBpsRanks.map(v => f"$v%.2f").mkString("[", ", ", "]")
      }),
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
      "jvm_flags" -> Jvm.flags.map(Json.str).mkString("[", ", ", "]"),
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "input" -> Json.obj(w.info.map { case (k, v) => k -> Json.str(v) })
    )
    println(Json.obj(Seq("info" -> Json.obj(info))))

    val metrics = if (traced) perLayer else endToEnd
    println(Json.obj(Seq(
      "correct" -> (!w.broken).toString,
      "attempted" -> w.attempted.toString,
      "failed" -> w.failed.toString,
      "metrics" -> Json.obj(metrics.map(m => m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)))))
    )))
  }

  private def endRound(w: Workload): Unit = {
    w.write.endRound()
    w.read.endRound()
    w.lookup.endRound()
  }
}
