package perfbench

import java.io.{BufferedWriter, OutputStreamWriter}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import java.util.zip.GZIPOutputStream
import scala.collection.mutable

/** Span recorder for the traced run.
  *
  * A span is (name, parent, start, end). The benchmark opens one around
  * each call it makes into a layer. Only the main thread records spans,
  * and the open span is the parent of the next one begun.
  *
  * Self time, a span's duration minus the time its child spans cover, is
  * summed per name as each span ends, over every span of the run. The
  * spans themselves are kept in preallocated primitive arrays (nothing is
  * allocated per span) up to `keep` of them, and written to a file when
  * the run ends; later spans count in the sums only.
  */
final class Trace(keep: Int) {
  private val nameIds = mutable.LinkedHashMap.empty[String, Int]
  private var count = new Array[Long](16)
  private var total = new Array[Long](16)
  private var self = new Array[Long](16)

  private val MaxDepth = 64
  private val openName = new Array[Int](MaxDepth)
  private val openStart = new Array[Long](MaxDepth)
  private val openChildNs = new Array[Long](MaxDepth)
  private val openKept = new Array[Int](MaxDepth)
  private var depth = 0

  private val keptName = new Array[Int](keep)
  private val keptParent = new Array[Int](keep)
  private val keptStart = new Array[Long](keep)
  private val keptEnd = new Array[Long](keep)
  private var kept = 0
  private var spans = 0L

  def id(name: String): Int = nameIds.getOrElseUpdate(name, {
    val i = nameIds.size
    if (i == count.length) {
      count = java.util.Arrays.copyOf(count, i * 2)
      total = java.util.Arrays.copyOf(total, i * 2)
      self = java.util.Arrays.copyOf(self, i * 2)
    }
    i
  })

  /** Opens a span under the open one; pass the result to [[end]]. */
  def begin(nameId: Int): Int = {
    val d = depth
    openName(d) = nameId
    openChildNs(d) = 0L
    openKept(d) = keepSpan(nameId, if (d > 0) openKept(d - 1) else -1)
    depth = d + 1
    openStart(d) = System.nanoTime()
    d
  }

  def end(d: Int): Unit = {
    val t1 = System.nanoTime()
    require(d == depth - 1, "spans must end in the order they began")
    depth = d
    close(openName(d), openStart(d), t1, openChildNs(d), openKept(d))
  }

  private def keepSpan(nameId: Int, parent: Int): Int =
    if (kept == keep) -1
    else {
      keptName(kept) = nameId; keptParent(kept) = parent
      kept += 1
      kept - 1
    }

  private def close(nameId: Int, t0: Long, t1: Long, childNs: Long, k: Int): Unit = {
    val d = t1 - t0
    count(nameId) += 1; total(nameId) += d; self(nameId) += d - childNs
    if (depth > 0) openChildNs(depth - 1) += d
    if (k >= 0) { keptStart(k) = t0; keptEnd(k) = t1 }
    spans += 1
  }

  /** Per-name sums so far; two snapshots give the sums between them. */
  def snapshot(): Trace.Snapshot =
    Trace.Snapshot(nameIds.toVector.sortBy(_._2).map { case (n, i) => n -> Trace.Agg(count(i), total(i), self(i)) }.toMap)

  def written: Int = kept
  def recorded: Long = spans

  /** Writes the kept spans as TSV (index, parent, name, start ns, end ns),
    * gzip-compressed.
    */
  def write(file: Path): Unit = {
    val names = nameIds.toVector.sortBy(_._2).map(_._1)
    val w = new BufferedWriter(new OutputStreamWriter(new GZIPOutputStream(Files.newOutputStream(file), 1 << 16), UTF_8), 1 << 16)
    try {
      w.write("span\tparent\tname\tstart_ns\tend_ns\n")
      var i = 0
      while (i < kept) {
        w.write(s"$i\t${keptParent(i)}\t${names(keptName(i))}\t${keptStart(i)}\t${keptEnd(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}

object Trace {
  final case class Agg(count: Long, totalNs: Long, selfNs: Long)

  final case class Snapshot(byName: Map[String, Agg]) {
    def since(before: Snapshot): Map[String, Agg] = byName.map { case (n, a) =>
      val b = before.byName.getOrElse(n, Agg(0, 0, 0))
      n -> Agg(a.count - b.count, a.totalNs - b.totalNs, a.selfNs - b.selfNs)
    }.filter(_._2.count > 0)
  }
}
