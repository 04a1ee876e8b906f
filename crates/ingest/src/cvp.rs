//! CVP-style load/store trace decoding (and test-fixture encoding).
//!
//! A simplified take on the Championship Value Prediction (CVP-1) trace
//! format: a flat little-endian sequence of variable-length
//! per-instruction records
//!
//! ```text
//! pc    : u64
//! class : u8    instruction class (see [`InstClass`])
//! --- only when class is Load or Store ---
//! ea    : u64   effective address
//! size  : u8    access size in bytes
//! ```
//!
//! Unlike ChampSim's fixed 64-byte records, every instruction here costs
//! 9 or 18 bytes and carries at most one memory operand, but with an
//! explicit access size. (The real CVP-1 format additionally carries
//! branch targets, register names and load values — none of which a
//! cache-replacement study consumes, so they are omitted.)

use std::io::Read;

use ccsim_trace::AccessKind;

use crate::pipeline::{Batch, MemOp};
use crate::IngestError;

/// CVP instruction classes (the CVP-1 `InstClass` enum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum InstClass {
    /// Simple ALU operation.
    Alu = 0,
    /// Memory load.
    Load = 1,
    /// Memory store.
    Store = 2,
    /// Conditional branch.
    CondBranch = 3,
    /// Unconditional direct branch.
    UncondDirectBranch = 4,
    /// Unconditional indirect branch.
    UncondIndirectBranch = 5,
    /// Floating-point operation.
    Fp = 6,
    /// Long-latency ALU operation.
    SlowAlu = 7,
    /// Undefined / other.
    Undef = 8,
}

/// Largest valid [`InstClass`] discriminant.
pub const MAX_CLASS: u8 = InstClass::Undef as u8;

/// One decoded CVP-style instruction, as consumed by [`CvpWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CvpRecord {
    /// Program counter.
    pub pc: u64,
    /// Instruction class.
    pub class: InstClass,
    /// Effective address + size, for loads and stores only.
    pub mem: Option<(u64, u8)>,
}

impl CvpRecord {
    /// A non-memory instruction of `class` at `pc`.
    pub fn nonmem(pc: u64, class: InstClass) -> CvpRecord {
        debug_assert!(!matches!(class, InstClass::Load | InstClass::Store));
        CvpRecord { pc, class, mem: None }
    }

    /// A load at `pc` reading `size` bytes at `ea`.
    pub fn load(pc: u64, ea: u64, size: u8) -> CvpRecord {
        CvpRecord { pc, class: InstClass::Load, mem: Some((ea, size)) }
    }

    /// A store at `pc` writing `size` bytes at `ea`.
    pub fn store(pc: u64, ea: u64, size: u8) -> CvpRecord {
        CvpRecord { pc, class: InstClass::Store, mem: Some((ea, size)) }
    }
}

/// Streaming decoder over a CVP-style record stream.
///
/// In strict mode an unknown class byte or a truncated record is a
/// [`IngestError::Corrupt`]; in lossy mode an unknown class is treated as
/// a non-memory instruction and a truncated tail is dropped, counted in
/// `skipped`. (Records are variable-length, so after an unknown class
/// byte lossy decoding is best-effort: the stream is re-entered at the
/// next byte boundary.)
#[derive(Debug)]
pub(crate) struct CvpDecoder<R: Read> {
    reader: R,
    strict: bool,
    offset: u64,
    skipped: u64,
    done: bool,
}

impl<R: Read> CvpDecoder<R> {
    /// Wraps `reader` as a CVP-style record stream.
    pub(crate) fn new(reader: R, strict: bool) -> CvpDecoder<R> {
        CvpDecoder { reader, strict, offset: 0, skipped: 0, done: false }
    }

    /// Reads exactly `buf.len()` bytes; `Ok(false)` without error only
    /// when `eof_is_clean` and the stream ended before the first byte.
    /// Any other short read is a torn record: an error (strict) or a
    /// counted drop (lossy). Between a load/store header and its memory
    /// operand even a zero-byte EOF is torn (`eof_is_clean = false`) —
    /// the instruction's header was already consumed.
    fn read_exact_or_eof(
        &mut self,
        buf: &mut [u8],
        what: &'static str,
        eof_is_clean: bool,
    ) -> Result<bool, IngestError> {
        let mut filled = 0usize;
        while filled < buf.len() {
            let n = self.reader.read(&mut buf[filled..])?;
            if n == 0 {
                if filled == 0 && eof_is_clean {
                    return Ok(false);
                }
                self.done = true;
                if self.strict {
                    return Err(IngestError::Corrupt { offset: self.offset, what });
                }
                self.skipped += 1;
                return Ok(false);
            }
            filled += n;
        }
        Ok(true)
    }

    /// Fills `out` with the next batch; `false` once the stream is
    /// exhausted.
    pub(crate) fn read_batch(&mut self, out: &mut Batch) -> Result<bool, IngestError> {
        out.clear();
        while !self.done {
            let mut head = [0u8; 9];
            if !self.read_exact_or_eof(&mut head, "truncated CVP instruction header", true)? {
                self.done = true;
                break;
            }
            let pc = u64::from_le_bytes(head[0..8].try_into().unwrap());
            let class = head[8];
            if class > MAX_CLASS {
                if self.strict {
                    return Err(IngestError::Corrupt {
                        offset: self.offset,
                        what: "unknown CVP instruction class",
                    });
                }
                self.skipped += 1;
                self.offset += head.len() as u64;
                out.nonmem += 1;
                continue;
            }
            if class != InstClass::Load as u8 && class != InstClass::Store as u8 {
                self.offset += head.len() as u64;
                out.nonmem += 1;
                continue;
            }
            let mut mem = [0u8; 9];
            if !self.read_exact_or_eof(&mut mem, "truncated CVP memory operand", false)? {
                // Torn mid-instruction at EOF (lossy): the head is
                // dropped too, counted by read_exact_or_eof.
                self.done = true;
                break;
            }
            self.offset += (head.len() + mem.len()) as u64;
            out.pc = pc;
            out.ops.push(MemOp {
                vaddr: u64::from_le_bytes(mem[0..8].try_into().unwrap()),
                size: mem[8],
                kind: if class == InstClass::Store as u8 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
            });
            return Ok(true);
        }
        Ok(out.nonmem > 0)
    }

    /// Malformed records skipped or coerced so far (lossy mode).
    pub(crate) fn skipped(&self) -> u64 {
        self.skipped
    }
}

/// Fixture encoder for CVP-style record streams (test/golden-fixture
/// use only, like [`crate::champsim::ChampSimWriter`]).
#[derive(Debug)]
pub struct CvpWriter<W: std::io::Write> {
    writer: W,
    records: u64,
}

impl<W: std::io::Write> CvpWriter<W> {
    /// Starts a record stream on `writer`.
    pub fn new(writer: W) -> CvpWriter<W> {
        CvpWriter { writer, records: 0 }
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write(&mut self, rec: &CvpRecord) -> std::io::Result<()> {
        self.writer.write_all(&rec.pc.to_le_bytes())?;
        self.writer.write_all(&[rec.class as u8])?;
        if let Some((ea, size)) = rec.mem {
            debug_assert!(matches!(rec.class, InstClass::Load | InstClass::Store));
            self.writer.write_all(&ea.to_le_bytes())?;
            self.writer.write_all(&[size])?;
        }
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(bytes: &[u8], strict: bool) -> Result<(Vec<Batch>, u64), IngestError> {
        let mut d = CvpDecoder::new(bytes, strict);
        let mut out = Vec::new();
        let mut batch = Batch::default();
        while d.read_batch(&mut batch)? {
            out.push(batch.clone());
        }
        Ok((out, d.skipped()))
    }

    #[test]
    fn variable_length_stream_decodes() {
        let mut bytes = Vec::new();
        let mut w = CvpWriter::new(&mut bytes);
        w.write(&CvpRecord::nonmem(0x10, InstClass::Alu)).unwrap();
        w.write(&CvpRecord::nonmem(0x14, InstClass::CondBranch)).unwrap();
        w.write(&CvpRecord::load(0x18, 0x1000, 4)).unwrap();
        w.write(&CvpRecord::store(0x1c, 0x2008, 16)).unwrap();
        w.write(&CvpRecord::nonmem(0x20, InstClass::Fp)).unwrap();
        assert_eq!(w.records(), 5);
        assert_eq!(bytes.len(), 9 + 9 + 18 + 18 + 9);

        let (batches, skipped) = decode_all(&bytes, true).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].nonmem, 2);
        assert_eq!(batches[0].ops, vec![MemOp { vaddr: 0x1000, size: 4, kind: AccessKind::Load }]);
        assert_eq!(batches[1].ops[0], MemOp { vaddr: 0x2008, size: 16, kind: AccessKind::Store });
        assert_eq!((batches[2].nonmem, batches[2].ops.len()), (1, 0));
    }

    #[test]
    fn strict_rejects_unknown_class_and_torn_records() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0x40u64.to_le_bytes());
        bytes.push(77); // not an InstClass
        let err = decode_all(&bytes, true).unwrap_err();
        assert!(err.to_string().contains("class"), "{err}");

        let mut torn = Vec::new();
        let mut w = CvpWriter::new(&mut torn);
        w.write(&CvpRecord::load(0x18, 0x1000, 4)).unwrap();
        torn.truncate(12); // cut inside the memory operand
        assert!(decode_all(&torn, true).is_err());
    }

    #[test]
    fn truncation_exactly_between_header_and_operand_is_torn_too() {
        // EOF right after a load's 9-byte header: the operand is missing
        // even though zero operand bytes exist — strict must error,
        // lossy must count the drop.
        let mut bytes = Vec::new();
        let mut w = CvpWriter::new(&mut bytes);
        w.write(&CvpRecord::nonmem(0x10, InstClass::Alu)).unwrap();
        w.write(&CvpRecord::load(0x18, 0x1000, 4)).unwrap();
        bytes.truncate(9 + 9); // exactly the load's header boundary
        let err = decode_all(&bytes, true).unwrap_err();
        assert!(err.to_string().contains("memory operand"), "{err}");
        let (batches, skipped) = decode_all(&bytes, false).unwrap();
        assert_eq!(skipped, 1, "lossy counts the dropped instruction");
        assert_eq!(batches.len(), 1);
        assert_eq!((batches[0].nonmem, batches[0].ops.len()), (1, 0));
    }

    #[test]
    fn lossy_coerces_unknown_class_to_nonmem() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0x40u64.to_le_bytes());
        bytes.push(200);
        let mut w = CvpWriter::new(&mut bytes);
        w.write(&CvpRecord::load(0x44, 0x1000, 8)).unwrap();
        let (batches, skipped) = decode_all(&bytes, false).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].nonmem, 1, "unknown class folded as non-memory");
        assert_eq!(batches[0].ops.len(), 1);
    }

    #[test]
    fn empty_stream_yields_no_batches() {
        let (batches, skipped) = decode_all(&[], true).unwrap();
        assert!(batches.is_empty());
        assert_eq!(skipped, 0);
    }
}
