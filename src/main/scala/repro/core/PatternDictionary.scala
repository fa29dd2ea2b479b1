package repro.core

import repro.fsst.FsstTable

/** A pattern plus its per-field encoders — one dictionary entry. */
final case class CompiledPattern(pattern: Pattern, encoders: Vector[FieldEncoder])
    extends Serializable {
  require(pattern.numFields == encoders.length,
    s"pattern has ${pattern.numFields} fields but ${encoders.length} encoders")
}

/** The immutable artifact of the offline pattern-extraction phase: the
  * pattern dictionary mapping pattern IDs to common subsequences and
  * field encoders, plus the optional FSST table for the `PBC_F` variant.
  *
  * Patterns are ordered by descending literal length — the compressor
  * tries them in order, implementing the paper's "longest pattern wins"
  * rule. The dictionary is `Serializable` (for Spark broadcast) and has
  * a compact binary form (for the `pbc` file format).
  */
final case class PatternDictionary(
    patterns: Vector[CompiledPattern],
    fsst: Option[FsstTable]
) extends Serializable {

  def size: Int = patterns.length

  def serialize: Array[Byte] = {
    val out = new ByteWriter(1024)
    out.writeVarInt(patterns.length.toLong)
    patterns.foreach { cp =>
      val toks = cp.pattern.tokens
      out.writeVarInt(toks.length.toLong)
      // token stream: 0 = wildcard, else varint(codepoint + 1)
      toks.foreach {
        case PTok.Wild   => out.writeVarInt(0L)
        case PTok.Lit(c) => out.writeVarInt(c.toLong + 1L)
      }
      cp.encoders.foreach { e =>
        val tag = e.tag.getBytes("UTF-8")
        out.writeVarInt(tag.length.toLong)
        out.writeBytes(tag)
      }
    }
    fsst match {
      case Some(t) => out.writeByte(1); t.serialize(out)
      case None    => out.writeByte(0)
    }
    out.toBytes
  }
}

object PatternDictionary {

  def deserialize(bytes: Array[Byte]): PatternDictionary = {
    val in = new ByteReader(bytes)
    val n = in.readVarInt().toInt
    val pats = Vector.fill(n) {
      val nTok = in.readVarInt().toInt
      val toks = Vector.fill(nTok) {
        val v = in.readVarInt()
        if (v == 0L) PTok.Wild else PTok.Lit((v - 1).toInt)
      }
      val p = Pattern(toks)
      val encs = Vector.fill(p.numFields) {
        val len = in.readVarInt().toInt
        FieldEncoder.fromTag(new String(in.readBytes(len), "UTF-8"))
      }
      CompiledPattern(p, encs)
    }
    val hasFsst = in.readBytes(1)(0) == 1
    val fsst = if (hasFsst) Some(FsstTable.deserialize(in)) else None
    require(!in.hasRemaining, s"${in.remaining} bytes follow the dictionary")
    PatternDictionary(pats, fsst)
  }
}
