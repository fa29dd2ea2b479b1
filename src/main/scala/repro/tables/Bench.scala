package repro.tables

/** Micro-benchmark helpers for the table runners.
  *
  * All timings are single-threaded wall-clock (the paper reports
  * single-core MB/s); a warm-up pass over a prefix of the data lets the
  * JIT compile the hot paths before measurement.
  */
object Bench {

  final case class Timed[A](value: A, seconds: Double)

  def time[A](body: => A): Timed[A] = {
    val t0 = System.nanoTime()
    val v = body
    Timed(v, (System.nanoTime() - t0) / 1e9)
  }

  /** Throughput in MB/s for `bytes` of *raw* data processed. */
  def mbps(bytes: Long, seconds: Double): Double =
    if (seconds <= 0) Double.PositiveInfinity else bytes / 1e6 / seconds

  /** Run `work` over a prefix as warm-up, then time the full pass. */
  def measure[A](warmup: => Unit)(body: => A): Timed[A] = {
    warmup
    time(body)
  }

  /** `s` with each UTF-16 surrogate code unit written as a backslash, `u`
    * and four upper-case hex digits: a lone surrogate in a failure message
    * cannot be encoded by the test report's XML writer, and a decoding bug
    * is what leaves one.
    */
  def printable(s: String): String =
    s.flatMap(c => if (Character.isSurrogate(c)) f"\\u${c.toInt}%04X" else c.toString)

  def fmtRatio(r: Double): String = f"$r%.3f"
  def fmtSpeed(s: Double): String = if (s >= 100) f"$s%.0f" else f"$s%.2f"

  /** Render rows as a fixed-width table (first row = header). */
  def render(rows: Seq[Seq[String]]): String = {
    val widths = rows.transpose.map(col => col.map(_.length).max)
    rows.map(r => r.lazyZip(widths).map((c, w) => c.padTo(w, ' ')).mkString("  "))
      .mkString("\n")
  }

  // The printers below are shared by the jobs mains and the bench suites.

  private def printTable(title: String, header: Seq[String], body: Seq[Seq[String]]): Unit = {
    println(s"\n== $title ==")
    println(render(header +: body))
  }

  def printPerf(title: String, rows: Seq[PerfRow]): Unit =
    printTable(title, Seq("dataset", "method", "ratio", "comp MB/s", "decomp MB/s"),
      rows.map(r => Seq(r.dataset, r.method, fmtRatio(r.ratio),
        fmtSpeed(r.compMBps), fmtSpeed(r.decompMBps))))

  def printTable2(rows: Seq[Tables.StatRow]): Unit =
    printTable("Table 2: dataset statistics", Seq("dataset", "records", "avg len"),
      rows.map(r => Seq(r.dataset, r.numRecords.toString, f"${r.avgLen}%.1f")))

  def printTable8(rows: Seq[Tables.KvRow]): Unit =
    printTable("Table 8: KV store case study", Seq("workload", "codec", "memory %", "SET QPS", "GET QPS"),
      rows.map(r => Seq(r.workload, r.codec, f"${r.memoryPct}%.1f",
        f"${r.setQps}%.0f", f"${r.getQps}%.0f")))
}
