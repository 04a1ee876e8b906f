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
/// Records encoded into one buffer per `write_all` by both writers: a
/// syscall (or `BufWriter` copy) per 80 KiB instead of per record. Also
/// the chunk a streaming [`crate::TraceBuffer`] hands its writer.
pub(crate) const CHUNK_RECORDS: usize = 4096;
/// Records [`TraceReader::read_chunk`] reads per call into its on-stack
/// byte block (20 KiB, so the block stays in the L1 cache while it is
/// decoded).
const BLOCK_RECORDS: usize = 1024;

fn encode_record(r: &TraceRecord, rec: &mut [u8; RECORD_BYTES]) {
    rec[0..8].copy_from_slice(&r.pc.to_le_bytes());
    rec[8..16].copy_from_slice(&r.vaddr.to_le_bytes());
    rec[16] = r.size;
    rec[17] = r.kind.is_store() as u8;
    rec[18..20].copy_from_slice(&r.nonmem_before.to_le_bytes());
}

/// Appends the encodings of `records` to `out`.
fn encode_records(records: &[TraceRecord], out: &mut Vec<u8>) {
    let at = out.len();
    out.resize(at + records.len() * RECORD_BYTES, 0);
    for (r, rec) in records.iter().zip(out[at..].chunks_exact_mut(RECORD_BYTES)) {
        encode_record(r, rec.try_into().expect("record-sized chunk"));
    }
}

/// The header bytes: magic, version, name, then `trailing` and `count`
/// (the last 16 bytes, which [`TraceWriter::finish`] patches).
fn header_bytes(name: &str, trailing_nonmem: u64, count: u64) -> Vec<u8> {
    let name = name.as_bytes();
    let mut header = Vec::with_capacity(4 + 4 + 4 + name.len() + 8 + 8);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&(name.len() as u32).to_le_bytes());
    header.extend_from_slice(name);
    header.extend_from_slice(&trailing_nonmem.to_le_bytes());
    header.extend_from_slice(&count.to_le_bytes());
    header
}

fn decode_record(rec: &[u8; RECORD_BYTES]) -> Result<TraceRecord, DecodeTraceError> {
    if !kind_is_valid(rec) {
        return Err(DecodeTraceError::Corrupt("access kind"));
    }
    Ok(decode_valid(rec))
}

/// `true` if the record's kind byte encodes an [`AccessKind`].
fn kind_is_valid(rec: &[u8]) -> bool {
    rec[17] <= 1
}

/// Decodes a record whose kind byte [`kind_is_valid`].
#[inline(always)]
fn decode_valid(rec: &[u8]) -> TraceRecord {
    let rec: &[u8; RECORD_BYTES] = rec.try_into().expect("a record-sized chunk");
    TraceRecord {
        pc: u64::from_le_bytes(rec[0..8].try_into().unwrap()),
        vaddr: u64::from_le_bytes(rec[8..16].try_into().unwrap()),
        size: rec[16],
        kind: if rec[17] == 0 { AccessKind::Load } else { AccessKind::Store },
        nonmem_before: u16::from_le_bytes(rec[18..20].try_into().unwrap()),
    }
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
    writer.write_all(&header_bytes(trace.name(), trace.trailing_nonmem(), trace.len() as u64))?;
    let mut chunk = Vec::with_capacity(trace.len().min(CHUNK_RECORDS) * RECORD_BYTES);
    for records in trace.records().chunks(CHUNK_RECORDS) {
        chunk.clear();
        encode_records(records, &mut chunk);
        writer.write_all(&chunk)?;
    }
    Ok(())
}

/// Incremental `CCTR` writer for streams whose record count is unknown up
/// front (e.g. ingestion of multi-gigabyte foreign traces).
///
/// The header is written immediately with placeholder `trailing`/`count`
/// fields; [`TraceWriter::finish`] seeks back and patches them, so the
/// finished file is byte-identical to [`write_trace`] over the same
/// records. Records are encoded into one pending buffer of 4,096 records
/// and handed to the underlying writer a buffer at a time, so the writer
/// holds O(1) memory regardless of trace length. Records arrive one at a
/// time ([`TraceWriter::write_record`]) or as a slice
/// ([`TraceWriter::write_records`], what a streaming
/// [`crate::TraceBuffer`] sends each full chunk through). An I/O error
/// surfaces from the write that fills the buffer or from
/// [`TraceWriter::finish`].
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
    /// Encoded records not yet written: fewer than [`CHUNK_RECORDS`].
    pending: Vec<u8>,
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
        let header = header_bytes(name, 0, 0);
        writer.write_all(&header)?;
        let patch_offset = start + header.len() as u64 - 16;
        let pending = Vec::with_capacity(CHUNK_RECORDS * RECORD_BYTES);
        Ok(TraceWriter { writer, patch_offset, count: 0, pending })
    }

    /// Appends one record to the stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_record(&mut self, r: &TraceRecord) -> io::Result<()> {
        self.write_records(std::slice::from_ref(r))
    }

    /// Appends `records` to the stream, writing each pending buffer as
    /// it fills (a full 4,096-record slice goes out in one write).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_records(&mut self, mut records: &[TraceRecord]) -> io::Result<()> {
        const FULL: usize = CHUNK_RECORDS * RECORD_BYTES;
        while !records.is_empty() {
            let room = (FULL - self.pending.len()) / RECORD_BYTES;
            let (now, later) = records.split_at(room.min(records.len()));
            encode_records(now, &mut self.pending);
            self.count += now.len() as u64;
            if self.pending.len() == FULL {
                self.writer.write_all(&self.pending)?;
                self.pending.clear();
            }
            records = later;
        }
        Ok(())
    }

    /// Records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Completes the stream: writes the pending records, patches the
    /// header's `trailing` and `count` fields, flushes, and returns the
    /// underlying writer (positioned at the end of the trace).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self, trailing_nonmem: u64) -> io::Result<W> {
        self.writer.write_all(&self.pending)?;
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
    // The name grows as its bytes arrive, so a length that the stream
    // does not back allocates nothing.
    let mut name = Vec::new();
    if reader.by_ref().take(namelen as u64).read_to_end(&mut name)? < namelen {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
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

/// Streaming record reader over a `CCTR` stream, in O(1) memory: one
/// record at a time ([`TraceReader::next_record`]) or a chunk at a time
/// ([`TraceReader::read_chunk`], the fast path). [`read_trace`] is a
/// thin wrapper that collects it.
///
/// The stream ends with its declared records: a byte after them is
/// [`DecodeTraceError::Corrupt`]`("trailing bytes")`, so a damaged record
/// count cannot pass as a shorter trace.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    reader: R,
    header: TraceHeader,
    remaining: u64,
    /// Whether a byte followed the declared records, once looked at.
    trailing: Option<bool>,
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
        Ok(TraceReader { reader, header, remaining, trailing: None })
    }

    /// The stream's header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// At the end of the declared records: fails if the stream goes on.
    /// Reads at most one byte, once.
    fn check_end(&mut self) -> Result<(), DecodeTraceError> {
        let trailing = match self.trailing {
            Some(trailing) => trailing,
            None => *self.trailing.insert(read_full(&mut self.reader, &mut [0u8; 1])? > 0),
        };
        if trailing {
            return Err(DecodeTraceError::Corrupt("trailing bytes"));
        }
        Ok(())
    }

    /// Decodes the next record, or `None` once `count` records were read.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeTraceError`] on a truncated or corrupt record, and
    /// in place of `None` if a byte follows the last record.
    #[allow(clippy::should_implement_trait)] // fallible next, as in std::io
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, DecodeTraceError> {
        if self.remaining == 0 {
            self.check_end()?;
            return Ok(None);
        }
        let mut rec = [0u8; RECORD_BYTES];
        self.reader.read_exact(&mut rec)?;
        self.remaining -= 1;
        Ok(Some(decode_record(&rec)?))
    }

    /// Decodes up to `max` more records onto the end of `out` — fewer
    /// only when the stream's `count` runs out — and returns how many it
    /// appended (0 once the stream is exhausted, or when `max` is 0).
    /// Bytes are read a block at a time into a fixed on-stack buffer, so
    /// no heap buffer is made; `out` grows only if it has less spare
    /// capacity than the records appended, block by block as they decode,
    /// never for records the header declares but the stream lacks.
    ///
    /// # Errors
    ///
    /// Returns the [`DecodeTraceError`] a [`TraceReader::next_record`]
    /// loop would meet on the same bytes, after appending every record
    /// that loop would have returned before it. A call that reaches the
    /// end of the declared records checks for trailing bytes itself, so a
    /// caller that stops at a short chunk still meets that error.
    pub fn read_chunk(
        &mut self,
        out: &mut Vec<TraceRecord>,
        max: usize,
    ) -> Result<usize, DecodeTraceError> {
        let want = self.remaining.min(max as u64) as usize;
        let mut block = [0u8; BLOCK_RECORDS * RECORD_BYTES];
        let mut done = 0;
        while done < want {
            let n = (want - done).min(BLOCK_RECORDS);
            let bytes = &mut block[..n * RECORD_BYTES];
            let filled = read_full(&mut self.reader, bytes)?;
            let whole = &bytes[..filled - filled % RECORD_BYTES];
            // Validate the block's kind bytes first, so the decode loop
            // below has no error path.
            let bad = whole.chunks_exact(RECORD_BYTES).position(|rec| !kind_is_valid(rec));
            let good = &whole[..bad.map_or(whole.len(), |i| i * RECORD_BYTES)];
            out.extend(good.chunks_exact(RECORD_BYTES).map(decode_valid));
            self.remaining -= (good.len() / RECORD_BYTES) as u64;
            if bad.is_some() {
                self.remaining -= 1;
                return Err(DecodeTraceError::Corrupt("access kind"));
            }
            if filled < bytes.len() {
                return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
            }
            done += n;
        }
        if self.remaining == 0 {
            self.check_end()?;
        }
        Ok(want)
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
    let records = read_records(&mut stream)?;
    let TraceHeader { name, trailing_nonmem, .. } = stream.header().clone();
    Ok(Trace::from_parts(name, records, trailing_nonmem))
}

/// Decodes every record of `stream` into a vector that grows toward the
/// header's count in steps no larger than the records already read: an
/// honest stream fills it exactly, and a corrupt-but-plausible count
/// commits at most about twice the bytes actually read before the short
/// read surfaces.
fn read_records<R: Read>(
    stream: &mut TraceReader<R>,
) -> Result<Vec<TraceRecord>, DecodeTraceError> {
    let count = stream.header().count as usize;
    let mut records = Vec::with_capacity(count.min(1 << 20));
    loop {
        if records.len() == records.capacity() {
            records.reserve_exact((count - records.len()).min(records.len()));
        }
        let room = records.capacity() - records.len();
        if stream.read_chunk(&mut records, room)? == 0 {
            return Ok(records);
        }
    }
}

/// Reads until `buf` is full or the stream ends, returning the bytes
/// read (`read_exact` leaves a short read's bytes unspecified).
fn read_full<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
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
    fn honest_trace_reads_into_exactly_its_records() {
        let n = (1 << 20) + 5;
        let mut b = TraceBuffer::with_capacity("big", n);
        for i in 0..n as u64 {
            b.load(0x400, 64 * i, 8);
        }
        let mut bytes = Vec::new();
        write_trace(&b.finish(), &mut bytes).unwrap();
        let records = read_records(&mut TraceReader::new(&bytes[..]).unwrap()).unwrap();
        assert_eq!((records.len(), records.capacity()), (n, n));
    }

    /// `n` records of every shape: loads and stores, sizes, gaps.
    fn trace_of(n: usize) -> Trace {
        let mut b = TraceBuffer::new("chunks");
        for i in 0..n as u64 {
            b.nonmem(i % 5);
            if i % 3 == 0 {
                b.store(0x400000 + 4 * (i % 97), 0x7000_0000 + 8 * i, 4);
            } else {
                b.load(0x400100 + 4 * (i % 89), 0x1000 + 64 * i, 8);
            }
        }
        b.nonmem(9);
        b.finish()
    }

    /// Counts around every chunk boundary.
    const CHUNK_EDGES: [usize; 6] =
        [0, 1, CHUNK_RECORDS - 1, CHUNK_RECORDS, CHUNK_RECORDS + 1, 3 * CHUNK_RECORDS + 7];

    #[test]
    fn streaming_writer_is_byte_identical_to_write_trace() {
        let prefix = b"CONTAINER-HEADER";
        for n in CHUNK_EDGES {
            let t = trace_of(n);
            let mut whole = Vec::new();
            write_trace(&t, &mut whole).unwrap();
            assert_eq!(read_trace(&whole[..]).unwrap(), t, "{n} records round-trip");
            assert_eq!(
                read_trace_header(&whole[..]).unwrap().expected_file_len(),
                whole.len() as u64
            );

            // At offset 0, and appended after a container's own header.
            for start in [&[][..], &prefix[..]] {
                let mut cursor = std::io::Cursor::new(start.to_vec());
                cursor.seek(SeekFrom::End(0)).unwrap();
                let mut w = TraceWriter::new(&mut cursor, t.name()).unwrap();
                for r in t.records() {
                    w.write_record(r).unwrap();
                }
                assert_eq!(w.count(), n as u64);
                w.finish(t.trailing_nonmem()).unwrap();
                let bytes = cursor.into_inner();
                assert_eq!(&bytes[..start.len()], start, "{n} records: prefix untouched");
                assert!(bytes[start.len()..] == whole[..], "{n} records at offset {}", start.len());
            }
        }
    }

    /// A seekable sink that cannot grow past `limit` bytes (a full disk):
    /// short-writes up to the limit, then fails.
    struct Full {
        cursor: std::io::Cursor<Vec<u8>>,
        limit: u64,
    }

    impl Write for Full {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let room = self.limit.saturating_sub(self.cursor.position()) as usize;
            if room == 0 && !buf.is_empty() {
                return Err(io::Error::other("disk full"));
            }
            self.cursor.write(&buf[..buf.len().min(room)])
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Seek for Full {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.cursor.seek(pos)
        }
    }

    fn stream(t: &Trace, sink: Full) -> io::Result<Vec<u8>> {
        let mut w = TraceWriter::new(sink, t.name())?;
        for r in t.records() {
            w.write_record(r)?;
        }
        Ok(w.finish(t.trailing_nonmem())?.cursor.into_inner())
    }

    #[test]
    fn a_failing_writer_surfaces_its_error() {
        let t = trace_of(3 * CHUNK_RECORDS + 7);
        let mut whole = Vec::new();
        write_trace(&t, &mut whole).unwrap();
        let len = whole.len() as u64;
        let header = len - (t.len() * RECORD_BYTES) as u64;
        let chunk = (CHUNK_RECORDS * RECORD_BYTES) as u64;
        for limit in
            [0, 5, header, header + 1, header + chunk, header + 2 * chunk + 3, len - 1, len]
        {
            let fits = limit >= len;
            let sink = || Full { cursor: std::io::Cursor::new(Vec::new()), limit };
            let mut out = sink();
            assert_eq!(write_trace(&t, &mut out).is_ok(), fits, "write_trace, limit {limit}");

            match stream(&t, sink()) {
                Ok(bytes) => assert!(fits && bytes == whole, "limit {limit}: silently short"),
                Err(e) => assert!(!fits && e.to_string() == "disk full", "limit {limit}: {e}"),
            }
        }
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
