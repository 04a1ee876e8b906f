//! ChampSim instruction-trace decoding (and test-fixture encoding).
//!
//! ChampSim traces are a flat sequence of 64-byte little-endian records,
//! one per retired instruction (`input_instr` in the ChampSim sources):
//!
//! ```text
//! offset  field                  size
//! 0       ip                     u64
//! 8       is_branch              u8   (0 or 1)
//! 9       branch_taken           u8   (0 or 1)
//! 10      destination_registers  [u8; 2]
//! 12      source_registers       [u8; 4]
//! 16      destination_memory     [u64; 2]   store addresses, 0 = unused
//! 32      source_memory          [u64; 4]   load addresses, 0 = unused
//! ```
//!
//! An instruction with no memory operand is a non-memory instruction; an
//! instruction may carry several loads and stores at once. ChampSim does
//! not encode operand sizes, so every operand is taken as
//! [`OPERAND_SIZE`] bytes (clamped by the pipeline if it would straddle a
//! cache block).

use std::io::Read;

use ccsim_trace::AccessKind;

use crate::pipeline::{Batch, MemOp};
use crate::IngestError;

/// Size of one ChampSim trace record in bytes.
pub const RECORD_BYTES: usize = 64;

/// Assumed operand size (bytes) — ChampSim records carry addresses only.
pub const OPERAND_SIZE: u8 = 8;

/// One decoded ChampSim instruction record.
///
/// Also the unit the fixture encoder ([`ChampSimWriter`]) consumes; the
/// constructors build the common shapes tests need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChampSimRecord {
    /// Instruction pointer.
    pub ip: u64,
    /// 1 if the instruction is a branch.
    pub is_branch: u8,
    /// 1 if a branch was taken.
    pub branch_taken: u8,
    /// Architectural destination registers (0 = unused slot).
    pub destination_registers: [u8; 2],
    /// Architectural source registers (0 = unused slot).
    pub source_registers: [u8; 4],
    /// Store effective addresses (0 = unused slot).
    pub destination_memory: [u64; 2],
    /// Load effective addresses (0 = unused slot).
    pub source_memory: [u64; 4],
}

impl ChampSimRecord {
    /// A non-memory (ALU) instruction at `ip`.
    pub fn nonmem(ip: u64) -> ChampSimRecord {
        ChampSimRecord {
            ip,
            is_branch: 0,
            branch_taken: 0,
            destination_registers: [1, 0],
            source_registers: [2, 3, 0, 0],
            destination_memory: [0; 2],
            source_memory: [0; 4],
        }
    }

    /// A single-operand load at `ip` reading `addr`.
    pub fn load(ip: u64, addr: u64) -> ChampSimRecord {
        let mut r = ChampSimRecord::nonmem(ip);
        r.source_memory[0] = addr;
        r
    }

    /// A single-operand store at `ip` writing `addr`.
    pub fn store(ip: u64, addr: u64) -> ChampSimRecord {
        let mut r = ChampSimRecord::nonmem(ip);
        r.destination_memory[0] = addr;
        r
    }

    /// A (non-memory) branch at `ip`.
    pub fn branch(ip: u64, taken: bool) -> ChampSimRecord {
        let mut r = ChampSimRecord::nonmem(ip);
        r.is_branch = 1;
        r.branch_taken = taken as u8;
        r
    }

    /// Encodes the record into its 64-byte wire form.
    pub fn encode(&self) -> [u8; RECORD_BYTES] {
        let mut b = [0u8; RECORD_BYTES];
        b[0..8].copy_from_slice(&self.ip.to_le_bytes());
        b[8] = self.is_branch;
        b[9] = self.branch_taken;
        b[10..12].copy_from_slice(&self.destination_registers);
        b[12..16].copy_from_slice(&self.source_registers);
        for (i, m) in self.destination_memory.iter().enumerate() {
            b[16 + 8 * i..24 + 8 * i].copy_from_slice(&m.to_le_bytes());
        }
        for (i, m) in self.source_memory.iter().enumerate() {
            b[32 + 8 * i..40 + 8 * i].copy_from_slice(&m.to_le_bytes());
        }
        b
    }

    /// Decodes a 64-byte wire record.
    pub fn decode(b: &[u8; RECORD_BYTES]) -> ChampSimRecord {
        let u64_at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
        ChampSimRecord {
            ip: u64_at(0),
            is_branch: b[8],
            branch_taken: b[9],
            destination_registers: [b[10], b[11]],
            source_registers: [b[12], b[13], b[14], b[15]],
            destination_memory: [u64_at(16), u64_at(24)],
            source_memory: [u64_at(32), u64_at(40), u64_at(48), u64_at(56)],
        }
    }

    /// `true` if the record carries no memory operand.
    pub fn is_nonmem(&self) -> bool {
        self.destination_memory.iter().all(|&m| m == 0)
            && self.source_memory.iter().all(|&m| m == 0)
    }
}

/// Streaming decoder over a ChampSim record stream.
///
/// Reads one 64-byte record at a time (O(1) memory). In strict mode a
/// partial trailing record or an implausible branch flag is a
/// [`IngestError::Corrupt`]; in lossy mode the tail is dropped and flags
/// are coerced, with every such event counted in `skipped`.
#[derive(Debug)]
pub(crate) struct ChampSimDecoder<R: Read> {
    reader: R,
    strict: bool,
    offset: u64,
    skipped: u64,
    done: bool,
}

impl<R: Read> ChampSimDecoder<R> {
    /// Wraps `reader` as a ChampSim record stream.
    pub(crate) fn new(reader: R, strict: bool) -> ChampSimDecoder<R> {
        ChampSimDecoder { reader, strict, offset: 0, skipped: 0, done: false }
    }

    /// Reads the next raw record, handling EOF and partial tails.
    fn next_raw(&mut self) -> Result<Option<ChampSimRecord>, IngestError> {
        if self.done {
            return Ok(None);
        }
        let mut buf = [0u8; RECORD_BYTES];
        let mut filled = 0usize;
        while filled < RECORD_BYTES {
            let n = self.reader.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        if filled == 0 {
            self.done = true;
            return Ok(None);
        }
        if filled < RECORD_BYTES {
            self.done = true;
            if self.strict {
                return Err(IngestError::Corrupt {
                    offset: self.offset,
                    what: "partial trailing ChampSim record",
                });
            }
            self.skipped += 1;
            return Ok(None);
        }
        let rec = ChampSimRecord::decode(&buf);
        if rec.is_branch > 1 || rec.branch_taken > 1 {
            if self.strict {
                return Err(IngestError::Corrupt {
                    offset: self.offset,
                    what: "branch flag out of range (not a ChampSim trace?)",
                });
            }
            self.skipped += 1;
        }
        self.offset += RECORD_BYTES as u64;
        Ok(Some(rec))
    }

    /// Fills `out` with the next batch; `false` once the stream is
    /// exhausted.
    pub(crate) fn read_batch(&mut self, out: &mut Batch) -> Result<bool, IngestError> {
        out.clear();
        while let Some(rec) = self.next_raw()? {
            if rec.is_nonmem() {
                out.nonmem += 1;
                continue;
            }
            out.pc = rec.ip;
            // ChampSim executes source operands (reads) before
            // destinations (writes).
            for &addr in rec.source_memory.iter().filter(|&&m| m != 0) {
                out.ops.push(MemOp { vaddr: addr, size: OPERAND_SIZE, kind: AccessKind::Load });
            }
            for &addr in rec.destination_memory.iter().filter(|&&m| m != 0) {
                out.ops.push(MemOp { vaddr: addr, size: OPERAND_SIZE, kind: AccessKind::Store });
            }
            return Ok(true);
        }
        // EOF: flush any accumulated non-memory epilogue.
        Ok(out.nonmem > 0)
    }

    /// Malformed records skipped or coerced so far (lossy mode).
    pub(crate) fn skipped(&self) -> u64 {
        self.skipped
    }
}

/// Fixture encoder for ChampSim record streams.
///
/// Exists so the test suite (and the checked-in golden fixtures under
/// `tests/fixtures/`) can fabricate byte-exact foreign traces offline;
/// nothing in the production pipeline writes this format.
#[derive(Debug)]
pub struct ChampSimWriter<W: std::io::Write> {
    writer: W,
    records: u64,
}

impl<W: std::io::Write> ChampSimWriter<W> {
    /// Starts a record stream on `writer`.
    pub fn new(writer: W) -> ChampSimWriter<W> {
        ChampSimWriter { writer, records: 0 }
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write(&mut self, rec: &ChampSimRecord) -> std::io::Result<()> {
        self.writer.write_all(&rec.encode())?;
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

    #[test]
    fn encode_decode_roundtrip() {
        let mut r = ChampSimRecord::load(0x400100, 0x7000_0040);
        r.destination_memory[1] = 0x8000_0000;
        r.is_branch = 1;
        let b = r.encode();
        assert_eq!(b.len(), RECORD_BYTES);
        assert_eq!(ChampSimRecord::decode(&b), r);
    }

    fn decode_all(bytes: &[u8], strict: bool) -> Result<Vec<Batch>, IngestError> {
        let mut d = ChampSimDecoder::new(bytes, strict);
        let mut out = Vec::new();
        let mut batch = Batch::default();
        while d.read_batch(&mut batch)? {
            out.push(batch.clone());
        }
        Ok(out)
    }

    #[test]
    fn batches_fold_nonmem_runs() {
        let mut bytes = Vec::new();
        let mut w = ChampSimWriter::new(&mut bytes);
        w.write(&ChampSimRecord::nonmem(0x10)).unwrap();
        w.write(&ChampSimRecord::branch(0x14, true)).unwrap();
        w.write(&ChampSimRecord::load(0x18, 0x1000)).unwrap();
        w.write(&ChampSimRecord::store(0x1c, 0x2000)).unwrap();
        w.write(&ChampSimRecord::nonmem(0x20)).unwrap();
        assert_eq!(w.records(), 5);

        let batches = decode_all(&bytes, true).unwrap();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].nonmem, 2);
        assert_eq!(batches[0].pc, 0x18);
        assert_eq!(batches[0].ops, vec![MemOp { vaddr: 0x1000, size: 8, kind: AccessKind::Load }]);
        assert_eq!(batches[1].nonmem, 0);
        assert_eq!(batches[1].ops[0].kind, AccessKind::Store);
        // Trailing non-memory instructions flush as an op-less batch.
        assert_eq!((batches[2].nonmem, batches[2].ops.len()), (1, 0));
    }

    #[test]
    fn multi_operand_instruction_reads_before_writes() {
        let mut r = ChampSimRecord::nonmem(0x40);
        r.source_memory = [0x1000, 0x2000, 0, 0];
        r.destination_memory = [0x3000, 0];
        let bytes = r.encode().to_vec();
        let batches = decode_all(&bytes, true).unwrap();
        assert_eq!(batches.len(), 1);
        let kinds: Vec<AccessKind> = batches[0].ops.iter().map(|o| o.kind).collect();
        assert_eq!(kinds, [AccessKind::Load, AccessKind::Load, AccessKind::Store]);
    }

    #[test]
    fn strict_rejects_partial_tail_and_bad_flags() {
        let mut bytes = ChampSimRecord::load(0x40, 0x1000).encode().to_vec();
        bytes.extend_from_slice(&[0u8; 10]); // torn record
        let err = decode_all(&bytes, true).unwrap_err();
        assert!(matches!(err, IngestError::Corrupt { offset: 64, .. }), "{err}");

        let mut bad = ChampSimRecord::load(0x40, 0x1000);
        bad.is_branch = 7;
        let err = decode_all(&bad.encode(), true).unwrap_err();
        assert!(err.to_string().contains("branch flag"));
    }

    #[test]
    fn lossy_counts_and_continues() {
        let mut bad = ChampSimRecord::load(0x40, 0x1000);
        bad.branch_taken = 3;
        let mut bytes = bad.encode().to_vec();
        bytes.extend_from_slice(&ChampSimRecord::store(0x44, 0x2000).encode());
        bytes.extend_from_slice(&[1u8; 20]); // torn record
        let mut d = ChampSimDecoder::new(&bytes[..], false);
        let mut batch = Batch::default();
        let mut batches = 0;
        while d.read_batch(&mut batch).unwrap() {
            batches += 1;
        }
        assert_eq!(batches, 2, "both full records decode");
        assert_eq!(d.skipped(), 2, "coerced flag + dropped tail");
    }

    #[test]
    fn empty_stream_yields_no_batches() {
        assert!(decode_all(&[], true).unwrap().is_empty());
    }
}
