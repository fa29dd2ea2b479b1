package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.MachineData
import repro.tables.{Bench, PerfRow, Tables}

/** Shared assertion helper for the table benches. Each suite regenerates
  * one evaluation table of the paper and prints its rows to the stdout of
  * `sbt "bench/test"`; EXPERIMENTS.md transcribes them.
  */
trait TableBench extends AnyFunSuite {
  def sane(rows: Seq[PerfRow]): Unit = rows.foreach { r =>
    assert(r.ratio > 0.0 && r.ratio < 1.6, s"$r ratio out of range")
    assert(r.compMBps > 0.0 && r.decompMBps > 0.0, s"$r has non-positive speed")
  }
}

class Table2DatasetStats extends TableBench {
  test("Table 2: dataset statistics") {
    val rows = Tables.table2()
    Bench.printTable2(rows)
    assert(rows.size == 16)
    rows.foreach(r => assert(r.numRecords > 0 && r.avgLen > 10))
  }
}

class Table3LineByLine extends TableBench {
  test("Table 3: line-by-line compression (ratio + comp/decomp speed)") {
    val rows = Tables.table3()
    Bench.printPerf("Table 3: line-by-line compression", rows)
    sane(rows)

    val byDs = rows.groupBy(_.dataset).map { case (d, rs) =>
      d -> rs.map(r => r.method -> r).toMap
    }
    // Headline claims of the paper that must hold in shape:
    // PBC_F achieves the best ratio on the vast majority of datasets.
    val pbcFBest = byDs.count { case (_, m) =>
      m("PBC_F").ratio <= m.values.map(_.ratio).min + 1e-9
    }
    assert(pbcFBest >= 12, s"PBC_F best on only $pbcFBest/16 datasets")
    // PBC beats Zstd(dict) and FSST in ratio on most machine-generated sets
    val pbcWins = byDs.count { case (d, m) =>
      d == "uuid" || (m("PBC").ratio < m("Zstd(dict)").ratio && m("PBC").ratio < m("FSST").ratio)
    }
    assert(pbcWins >= 12, s"PBC ratio wins on only $pbcWins/16 datasets")
    // on uuid (the randomness control) PBC must NOT be the winner
    assert(byDs("uuid")("PBC").ratio > byDs("uuid")("FSST").ratio * 0.9)
  }
}

class Table4FileCompression extends TableBench {
  test("Table 4: file compression (ratio + comp/decomp speed)") {
    val rows = Tables.table4()
    Bench.printPerf("Table 4: file compression", rows)
    sane(rows)
    val byDs = rows.groupBy(_.dataset).map { case (d, rs) =>
      d -> rs.map(r => r.method -> r).toMap
    }
    // PBC_L provides the best (or tied-best) ratio on most datasets
    val pbcLBest = byDs.count { case (_, m) =>
      m("PBC_L").ratio <= m.values.map(_.ratio).min + 0.005
    }
    assert(pbcLBest >= 11, s"PBC_L best on only $pbcLBest/16 datasets")
    // PBC_Z improves on plain Zstd almost everywhere
    val pbcZWins = byDs.count { case (d, m) => d == "uuid" || m("PBC_Z").ratio <= m("Zstd(3)").ratio + 0.005 }
    assert(pbcZWins >= 13, s"PBC_Z <= Zstd on only $pbcZWins/16 datasets")
  }
}

class Table5LogCompression extends TableBench {
  test("Table 5: log compression — LogReducer vs PBC_L (averages)") {
    val rows = Tables.table5()
    Bench.printPerf("Table 5: log compression (avg over 6 log datasets)", rows)
    sane(rows)
    val m = rows.map(r => r.method -> r).toMap
    val lr = m("LogReducer"); val pbcL = m("PBC_L")
    // paper: comparable ratios (LogReducer slightly better), PBC_L much
    // faster at decompression
    assert(pbcL.ratio < lr.ratio * 2.0, s"PBC_L ratio ${pbcL.ratio} not comparable to LogReducer ${lr.ratio}")
    assert(pbcL.decompMBps > lr.decompMBps, "PBC_L should decompress faster than LogReducer")
  }
}

class Table6JsonCompression extends TableBench {
  test("Table 6: JSON compression — record and file modes (averages)") {
    val t = Tables.table6()
    Bench.printPerf("Table 6: JSON record compression (avg)", t.record)
    Bench.printPerf("Table 6: JSON file compression (avg)", t.file)
    sane(t.record); sane(t.file)
    val rec = t.record.map(r => r.method -> r).toMap
    // paper: PBC / PBC_F significantly outperform Ion-B and BP-D per record
    assert(rec("PBC_F").ratio < rec("Ion-B").ratio)
    assert(rec("PBC_F").ratio < rec("BP-D").ratio)
    val fil = t.file.map(r => r.method -> r).toMap
    // paper: PBC_L and BP-D+LZMA both excellent; within 2x of each other
    assert(fil("PBC_L").ratio < fil("BP-D+LZMA").ratio * 2.0)
  }
}

class Table7JsonPerDataset extends TableBench {
  test("Table 7: per-dataset ratio, BP-D+LZMA vs PBC_L") {
    val rows = Tables.table7()
    Bench.printPerf("Table 7: JSON per-dataset ratio", rows)
    sane(rows)
    val github = rows.filter(_.dataset == "github").map(r => r.method -> r.ratio).toMap
    // paper: PBC_L significantly better than BP-D on github (value-level
    // co-occurrence beyond the schema)
    assert(github("PBC_L") < github("BP-D+LZMA"),
      s"github: PBC_L=${github("PBC_L")} should beat BP-D=${github("BP-D+LZMA")}")
  }
}

class Table8CaseStudy extends TableBench {
  test("Table 8: KV store case study — memory and SET/GET throughput") {
    val rows = Tables.table8()
    Bench.printTable8(rows)
    val byWl = rows.groupBy(_.workload)
    byWl.foreach { case (wl, rs) =>
      val m = rs.map(r => r.codec -> r).toMap
      assert(math.abs(m("Uncompressed").memoryPct - 100.0) < 1e-6)
      // paper: PBC_F uses the least memory of the three
      assert(m("PBC_F").memoryPct < m("Zstd").memoryPct, s"$wl: PBC_F should beat Zstd on memory")
      assert(m("PBC_F").memoryPct < 60.0, s"$wl: PBC_F memory ${m("PBC_F").memoryPct}%")
      rs.foreach(r => assert(r.setQps > 0 && r.getQps > 0))
    }
  }
}
