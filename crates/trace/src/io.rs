//! Binary trace serialization.
//!
//! Format (`CCTR` version 1), all integers little-endian:
//!
//! ```text
//! magic   : 4 bytes  "CCTR"
//! version : u32      (1)
//! namelen : u32
//! name    : namelen bytes of UTF-8
//! trailing: u64      trailing non-memory instruction count
//! count   : u64      number of records
//! records : count x 20 bytes:
//!     pc            u64
//!     vaddr         u64
//!     size          u8
//!     kind          u8   (0 = load, 1 = store)
//!     nonmem_before u16
//! ```

use std::io::{self, Read, Seek, SeekFrom, Write};

use crate::{AccessKind, DecodeTraceError, Trace, TraceRecord};

/// The `CCTR` file magic.
pub const MAGIC: [u8; 4] = *b"CCTR";
/// The current `CCTR` format version.
pub const VERSION: u32 = 1;
const RECORD_BYTES: usize = 20;

fn encode_record(r: &TraceRecord, rec: &mut [u8; RECORD_BYTES]) {
    rec[0..8].copy_from_slice(&r.pc.to_le_bytes());
    rec[8..16].copy_from_slice(&r.vaddr.to_le_bytes());
    rec[16] = r.size;
    rec[17] = r.kind.is_store() as u8;
    rec[18..20].copy_from_slice(&r.nonmem_before.to_le_bytes());
}

fn decode_record(rec: &[u8; RECORD_BYTES]) -> Result<TraceRecord, DecodeTraceError> {
    let kind = match rec[17] {
        0 => AccessKind::Load,
        1 => AccessKind::Store,
        _ => return Err(DecodeTraceError::Corrupt("access kind")),
    };
    Ok(TraceRecord {
        pc: u64::from_le_bytes(rec[0..8].try_into().unwrap()),
        vaddr: u64::from_le_bytes(rec[8..16].try_into().unwrap()),
        size: rec[16],
        kind,
        nonmem_before: u16::from_le_bytes(rec[18..20].try_into().unwrap()),
    })
}

/// Serializes `trace` into `writer` in the `CCTR` binary format.
///
/// # Errors
///
/// Propagates any I/O error from the underlying writer.
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use ccsim_trace::{read_trace, write_trace, TraceBuffer};
///
/// let mut buf = TraceBuffer::new("roundtrip");
/// buf.load(0x400000, 0x1000, 8);
/// let trace = buf.finish();
///
/// let mut bytes = Vec::new();
/// write_trace(&trace, &mut bytes)?;
/// let back = read_trace(&bytes[..])?;
/// assert_eq!(back, trace);
/// # Ok(())
/// # }
/// ```
pub fn write_trace<W: Write>(trace: &Trace, mut writer: W) -> io::Result<()> {
    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    let name = trace.name().as_bytes();
    writer.write_all(&(name.len() as u32).to_le_bytes())?;
    writer.write_all(name)?;
    writer.write_all(&trace.trailing_nonmem().to_le_bytes())?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    let mut rec = [0u8; RECORD_BYTES];
    for r in trace.records() {
        encode_record(r, &mut rec);
        writer.write_all(&rec)?;
    }
    Ok(())
}

/// Incremental `CCTR` writer for streams whose record count is unknown up
/// front (e.g. ingestion of multi-gigabyte foreign traces).
///
/// The header is written immediately with placeholder `trailing`/`count`
/// fields; [`TraceWriter::finish`] seeks back and patches them, so the
/// finished file is byte-identical to [`write_trace`] over the same
/// records. The writer itself holds O(1) memory regardless of trace
/// length.
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use ccsim_trace::{read_trace, TraceRecord, TraceWriter};
///
/// let mut cursor = std::io::Cursor::new(Vec::new());
/// let mut w = TraceWriter::new(&mut cursor, "streamed")?;
/// w.write_record(&TraceRecord::load(0x400000, 0x1000, 8))?;
/// w.finish(3)?; // 3 trailing non-memory instructions
/// let trace = read_trace(&cursor.get_ref()[..])?;
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.trailing_nonmem(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    writer: W,
    /// Byte offset of the `trailing` header field (just past the name).
    patch_offset: u64,
    count: u64,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Starts a `CCTR` stream named `name` at `writer`'s current
    /// position (which need not be 0 — the trace may be appended inside
    /// a larger container), emitting the header with zeroed
    /// `trailing`/`count` placeholders.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn new(mut writer: W, name: &str) -> io::Result<TraceWriter<W>> {
        let start = writer.stream_position()?;
        writer.write_all(&MAGIC)?;
        writer.write_all(&VERSION.to_le_bytes())?;
        let name = name.as_bytes();
        writer.write_all(&(name.len() as u32).to_le_bytes())?;
        writer.write_all(name)?;
        let patch_offset = start + 4 + 4 + 4 + name.len() as u64;
        writer.write_all(&0u64.to_le_bytes())?; // trailing, patched by finish
        writer.write_all(&0u64.to_le_bytes())?; // count, patched by finish
        Ok(TraceWriter { writer, patch_offset, count: 0 })
    }

    /// Appends one record to the stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_record(&mut self, r: &TraceRecord) -> io::Result<()> {
        let mut rec = [0u8; RECORD_BYTES];
        encode_record(r, &mut rec);
        self.writer.write_all(&rec)?;
        self.count += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Completes the stream: patches the header's `trailing` and `count`
    /// fields, flushes, and returns the underlying writer (positioned at
    /// the end of the trace).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self, trailing_nonmem: u64) -> io::Result<W> {
        let end = self.writer.stream_position()?;
        self.writer.seek(SeekFrom::Start(self.patch_offset))?;
        self.writer.write_all(&trailing_nonmem.to_le_bytes())?;
        self.writer.write_all(&self.count.to_le_bytes())?;
        self.writer.seek(SeekFrom::Start(end))?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

/// The header of a `CCTR` stream, as returned by [`read_trace_header`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// The embedded workload name.
    pub name: String,
    /// Trailing non-memory instruction count.
    pub trailing_nonmem: u64,
    /// Number of records that follow the header.
    pub count: u64,
}

impl TraceHeader {
    /// Total bytes a well-formed file with this header occupies.
    pub fn expected_file_len(&self) -> u64 {
        4 + 4 + 4 + self.name.len() as u64 + 8 + 8 + self.count * RECORD_BYTES as u64
    }
}

/// Reads and validates just the header of a `CCTR` stream, leaving the
/// reader positioned at the first record. Used to probe files cheaply
/// (cache validation, campaign dry-runs) without decoding every record.
///
/// # Errors
///
/// Returns [`DecodeTraceError`] exactly as [`read_trace`] would for the
/// same malformed header.
pub fn read_trace_header<R: Read>(mut reader: R) -> Result<TraceHeader, DecodeTraceError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(DecodeTraceError::BadMagic(magic));
    }
    let version = read_u32(&mut reader)?;
    if version != VERSION {
        return Err(DecodeTraceError::UnsupportedVersion(version));
    }
    let namelen = read_u32(&mut reader)? as usize;
    if namelen > 1 << 20 {
        return Err(DecodeTraceError::Corrupt("name length"));
    }
    let mut name = vec![0u8; namelen];
    reader.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| DecodeTraceError::BadName)?;
    // Both counts are bounded so that every instruction and cycle total a
    // replay derives from them fits a `u64` with room to spare.
    let trailing_nonmem = read_u64(&mut reader)?;
    if trailing_nonmem > 1 << 48 {
        return Err(DecodeTraceError::Corrupt("trailing non-memory count"));
    }
    let count = read_u64(&mut reader)?;
    if count > 1 << 40 {
        return Err(DecodeTraceError::Corrupt("record count"));
    }
    Ok(TraceHeader { name, trailing_nonmem, count })
}

/// Streaming record reader over a `CCTR` stream: one record at a time,
/// O(1) memory. [`read_trace`] is a thin wrapper that collects it.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    reader: R,
    header: TraceHeader,
    remaining: u64,
}

impl<R: Read> TraceReader<R> {
    /// Opens a `CCTR` stream, consuming and validating its header.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeTraceError`] on a malformed header.
    pub fn new(mut reader: R) -> Result<TraceReader<R>, DecodeTraceError> {
        let header = read_trace_header(&mut reader)?;
        let remaining = header.count;
        Ok(TraceReader { reader, header, remaining })
    }

    /// The stream's header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Decodes the next record, or `None` once `count` records were read.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeTraceError`] on a truncated or corrupt record.
    #[allow(clippy::should_implement_trait)] // fallible next, as in std::io
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, DecodeTraceError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut rec = [0u8; RECORD_BYTES];
        self.reader.read_exact(&mut rec)?;
        self.remaining -= 1;
        Ok(Some(decode_record(&rec)?))
    }
}

/// Deserializes a trace previously written by [`write_trace`].
///
/// # Errors
///
/// Returns [`DecodeTraceError`] on I/O failure, bad magic, unsupported
/// version, or a corrupt stream (implausible lengths, bad UTF-8, unknown
/// access kind).
pub fn read_trace<R: Read>(reader: R) -> Result<Trace, DecodeTraceError> {
    let mut stream = TraceReader::new(reader)?;
    // Cap the pre-allocation: a corrupt-but-plausible header count must
    // not commit gigabytes before the short read surfaces.
    let mut records = Vec::with_capacity(stream.header().count.min(1 << 20) as usize);
    while let Some(r) = stream.next_record()? {
        records.push(r);
    }
    let TraceHeader { name, trailing_nonmem, .. } = stream.header().clone();
    Ok(Trace::from_parts(name, records, trailing_nonmem))
}

fn read_u32<R: Read>(reader: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    reader.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(reader: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    reader.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuffer;

    fn sample_trace() -> Trace {
        let mut b = TraceBuffer::new("sample");
        b.nonmem(3);
        b.load(0x400100, 0x7000_0000, 8);
        b.store(0x400108, 0x7000_0040, 4);
        b.nonmem(11);
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_trace();
        let mut bytes = Vec::new();
        write_trace(&t, &mut bytes).unwrap();
        let back = read_trace(&bytes[..]).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.instructions(), t.instructions());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = TraceBuffer::new("empty").finish();
        let mut bytes = Vec::new();
        write_trace(&t, &mut bytes).unwrap();
        let back = read_trace(&bytes[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = Vec::new();
        write_trace(&sample_trace(), &mut bytes).unwrap();
        bytes[0] = b'X';
        assert!(matches!(read_trace(&bytes[..]), Err(DecodeTraceError::BadMagic(_))));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = Vec::new();
        write_trace(&sample_trace(), &mut bytes).unwrap();
        bytes[4..8].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(read_trace(&bytes[..]), Err(DecodeTraceError::UnsupportedVersion(7))));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut bytes = Vec::new();
        write_trace(&sample_trace(), &mut bytes).unwrap();
        bytes.truncate(bytes.len() - 5);
        assert!(matches!(read_trace(&bytes[..]), Err(DecodeTraceError::Io(_))));
    }

    #[test]
    fn unknown_access_kind_rejected() {
        let mut bytes = Vec::new();
        write_trace(&sample_trace(), &mut bytes).unwrap();
        // Kind byte of the first record: header is 4+4+4+6("sample")+8+8.
        let kind_off = 4 + 4 + 4 + 6 + 8 + 8 + 17;
        bytes[kind_off] = 9;
        assert!(matches!(read_trace(&bytes[..]), Err(DecodeTraceError::Corrupt("access kind"))));
    }

    #[test]
    fn implausible_name_length_rejected() {
        let mut bytes = Vec::new();
        write_trace(&sample_trace(), &mut bytes).unwrap();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_trace(&bytes[..]), Err(DecodeTraceError::Corrupt("name length"))));
    }

    #[test]
    fn implausible_counts_rejected() {
        let mut bytes = Vec::new();
        write_trace(&sample_trace(), &mut bytes).unwrap();
        // Trailing count then record count, after the 6-byte name.
        let (trailing, count) = (4 + 4 + 4 + 6, 4 + 4 + 4 + 6 + 8);
        let mut huge = bytes.clone();
        huge[trailing..trailing + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_trace(&huge[..]),
            Err(DecodeTraceError::Corrupt("trailing non-memory count"))
        ));
        huge = bytes.clone();
        huge[trailing..trailing + 8].copy_from_slice(&(1u64 << 48).to_le_bytes());
        assert_eq!(read_trace(&huge[..]).unwrap().trailing_nonmem(), 1 << 48);
        bytes[count..count + 8].copy_from_slice(&((1u64 << 40) + 1).to_le_bytes());
        assert!(matches!(read_trace(&bytes[..]), Err(DecodeTraceError::Corrupt("record count"))));
    }

    #[test]
    fn streaming_writer_is_byte_identical_to_write_trace() {
        let t = sample_trace();
        let mut whole = Vec::new();
        write_trace(&t, &mut whole).unwrap();

        let mut cursor = std::io::Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut cursor, t.name()).unwrap();
        for r in t.records() {
            w.write_record(r).unwrap();
        }
        assert_eq!(w.count(), t.len() as u64);
        w.finish(t.trailing_nonmem()).unwrap();
        assert_eq!(cursor.into_inner(), whole);
    }

    #[test]
    fn streaming_writer_appends_inside_a_container() {
        // The writer must patch its own header even when the trace does
        // not start at offset 0 of the underlying stream.
        let prefix = b"CONTAINER-HEADER";
        let mut cursor = std::io::Cursor::new(prefix.to_vec());
        cursor.seek(SeekFrom::End(0)).unwrap();
        let mut w = TraceWriter::new(&mut cursor, "inner").unwrap();
        w.write_record(&TraceRecord::load(0x400, 0x1000, 8)).unwrap();
        w.finish(5).unwrap();
        let bytes = cursor.into_inner();
        assert_eq!(&bytes[..prefix.len()], prefix, "prefix untouched");
        let inner = read_trace(&bytes[prefix.len()..]).unwrap();
        assert_eq!(inner.name(), "inner");
        assert_eq!(inner.len(), 1);
        assert_eq!(inner.trailing_nonmem(), 5);
    }

    #[test]
    fn streaming_writer_of_empty_trace_roundtrips() {
        let mut cursor = std::io::Cursor::new(Vec::new());
        let w = TraceWriter::new(&mut cursor, "empty").unwrap();
        w.finish(17).unwrap();
        let back = read_trace(&cursor.get_ref()[..]).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.trailing_nonmem(), 17);
        assert_eq!(back.name(), "empty");
    }

    #[test]
    fn header_probe_reads_counts_without_records() {
        let t = sample_trace();
        let mut bytes = Vec::new();
        write_trace(&t, &mut bytes).unwrap();
        let h = read_trace_header(&bytes[..]).unwrap();
        assert_eq!(h.name, "sample");
        assert_eq!(h.count, 2);
        assert_eq!(h.trailing_nonmem, 11);
        assert_eq!(h.expected_file_len(), bytes.len() as u64);
        // The probe succeeds even when every record is missing...
        let header_len = bytes.len() - 2 * RECORD_BYTES;
        assert_eq!(read_trace_header(&bytes[..header_len]).unwrap(), h);
        // ...but a torn header is still an error.
        assert!(read_trace_header(&bytes[..10]).is_err());
    }

    #[test]
    fn streaming_reader_yields_records_in_order() {
        let t = sample_trace();
        let mut bytes = Vec::new();
        write_trace(&t, &mut bytes).unwrap();
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let mut got = Vec::new();
        while let Some(rec) = r.next_record().unwrap() {
            got.push(rec);
        }
        assert_eq!(got, t.records());
        assert!(r.next_record().unwrap().is_none(), "reader stays exhausted");
    }
}
