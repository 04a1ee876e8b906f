//! Incremental trace construction.

use std::fmt;
use std::io::{self, Seek, Write};

use crate::io::CHUNK_RECORDS;
use crate::{AccessKind, Trace, TraceRecord, TraceWriter};

/// Builder that accumulates [`TraceRecord`]s and pending non-memory
/// instruction counts.
///
/// A buffer has one of two destinations, fixed when it is made:
///
/// * **memory** ([`TraceBuffer::new`]): every record is kept, and
///   [`TraceBuffer::finish`] returns the [`Trace`];
/// * **a `CCTR` stream** ([`TraceBuffer::streaming`]): records collect
///   in one chunk of 4,096, and each full chunk goes to a
///   [`TraceWriter`] through [`TraceWriter::write_records`], so the
///   buffer holds O(1) memory whatever the trace length.
///   [`TraceBuffer::finish_stream`] writes the last chunk and the header
///   totals. The file is byte-identical to [`crate::write_trace`] over
///   the same records.
///
/// Generators take `&mut TraceBuffer` and never see the difference:
/// [`TraceBuffer::push`] is infallible in both modes. A streaming
/// buffer keeps the first I/O error, drops later chunks, and returns
/// the error from [`TraceBuffer::finish_stream`]. [`TraceBuffer::len`]
/// and [`TraceBuffer::instructions`] count everything pushed so far,
/// written or not.
///
/// # The `nonmem_before` splitting invariant
///
/// Non-memory instructions registered through [`TraceBuffer::nonmem`] are
/// attached to the *next* emitted memory record's `nonmem_before` field.
/// That field is a `u16`, so a gap `g > u16::MAX` cannot be carried by one
/// record; instead it is **split**: each subsequent record acts as a
/// filler, absorbing up to `u16::MAX` of the remaining gap until it is
/// drained, and any residue left after the final record lands in the
/// trace's `trailing_nonmem` (a `u64`, lossless). The placement of
/// individual non-memory instructions within a huge gap is therefore
/// approximate, but the **total instruction count is preserved exactly**
/// — `Trace::instructions()` equals the number of `nonmem` instructions
/// registered plus the number of records pushed, whatever the gap sizes.
/// `ccsim-ingest` applies the same rule when folding foreign traces, and
/// `tests/proptests.rs` pins the round-trip through the `CCTR` format.
///
/// # Examples
///
/// ```
/// use ccsim_trace::TraceBuffer;
///
/// let mut buf = TraceBuffer::new("loop");
/// buf.nonmem(2);
/// buf.load(0x400_000, 0x1000, 8);
/// buf.store(0x400_008, 0x1008, 8);
/// let t = buf.finish();
/// assert_eq!(t.instructions(), 2 + 1 + 1);
/// ```
///
/// Streaming the same records to a file:
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use ccsim_trace::{read_trace, TraceBuffer};
///
/// let path = std::env::temp_dir().join(format!("buffer-doc-{}.cctr", std::process::id()));
/// let mut buf = TraceBuffer::streaming("loop", std::fs::File::create(&path)?)?;
/// buf.nonmem(2);
/// buf.load(0x400_000, 0x1000, 8);
/// buf.store(0x400_008, 0x1008, 8);
/// let written = buf.finish_stream()?;
/// assert_eq!((written.records, written.instructions), (2, 4));
/// assert_eq!(read_trace(std::fs::File::open(&path)?)?.instructions(), 4);
/// # std::fs::remove_file(&path)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceBuffer {
    name: String,
    /// Every record (in memory), or the current chunk (streaming).
    records: Vec<TraceRecord>,
    pending_nonmem: u64,
    /// Records already handed to the sink, and their instructions.
    spilled_records: u64,
    spilled_instructions: u64,
    sink: Option<Sink>,
}

/// The totals of a stream a [`TraceBuffer`] finished writing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrittenTrace {
    /// Memory records written.
    pub records: u64,
    /// Instructions represented (memory + non-memory).
    pub instructions: u64,
}

/// A streaming buffer's destination.
struct Sink {
    writer: Box<dyn ChunkSink>,
    /// The first write error; chunks after it are counted, not written.
    error: Option<io::Error>,
}

impl fmt::Debug for Sink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sink").field("error", &self.error).finish_non_exhaustive()
    }
}

/// A [`TraceWriter`] with its writer type erased, so that no generic
/// parameter reaches the generators that fill a [`TraceBuffer`].
trait ChunkSink: Send {
    fn write_records(&mut self, records: &[TraceRecord]) -> io::Result<()>;
    fn finish(self: Box<Self>, trailing_nonmem: u64) -> io::Result<()>;
}

impl<W: Write + Seek + Send> ChunkSink for TraceWriter<W> {
    fn write_records(&mut self, records: &[TraceRecord]) -> io::Result<()> {
        TraceWriter::write_records(self, records)
    }

    fn finish(self: Box<Self>, trailing_nonmem: u64) -> io::Result<()> {
        TraceWriter::finish(*self, trailing_nonmem).map(drop)
    }
}

impl TraceBuffer {
    /// Creates an empty in-memory buffer for a workload called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        TraceBuffer::with_capacity(name, 0)
    }

    /// Creates an empty in-memory buffer with capacity pre-allocated for
    /// `records`.
    pub fn with_capacity(name: impl Into<String>, records: usize) -> Self {
        TraceBuffer {
            name: name.into(),
            records: Vec::with_capacity(records),
            pending_nonmem: 0,
            spilled_records: 0,
            spilled_instructions: 0,
            sink: None,
        }
    }

    /// Creates a buffer that streams a `CCTR` trace named `name` into
    /// `writer` (from its current position), one 4,096-record chunk at
    /// a time. Finish it with [`TraceBuffer::finish_stream`].
    ///
    /// # Errors
    ///
    /// Propagates the I/O error of writing the header.
    pub fn streaming<W: Write + Seek + Send + 'static>(
        name: impl Into<String>,
        writer: W,
    ) -> io::Result<Self> {
        let name = name.into();
        let writer = TraceWriter::new(writer, &name)?;
        Ok(TraceBuffer {
            records: Vec::with_capacity(CHUNK_RECORDS),
            sink: Some(Sink { writer: Box::new(writer), error: None }),
            ..TraceBuffer::new(name)
        })
    }

    /// Accounts `n` non-memory instructions at the current position.
    #[inline]
    pub fn nonmem(&mut self, n: u64) {
        self.pending_nonmem += n;
    }

    /// Emits a load of `size` bytes at `vaddr` from instruction `pc`.
    #[inline]
    pub fn load(&mut self, pc: u64, vaddr: u64, size: u8) {
        self.push(pc, vaddr, size, AccessKind::Load);
    }

    /// Emits a store of `size` bytes at `vaddr` from instruction `pc`.
    #[inline]
    pub fn store(&mut self, pc: u64, vaddr: u64, size: u8) {
        self.push(pc, vaddr, size, AccessKind::Store);
    }

    /// Emits an arbitrary record, draining the pending non-memory count.
    #[inline]
    pub fn push(&mut self, pc: u64, vaddr: u64, size: u8, kind: AccessKind) {
        debug_assert!(size as u64 <= crate::BLOCK_BYTES, "operand larger than a block");
        let take = self.pending_nonmem.min(u16::MAX as u64);
        self.pending_nonmem -= take;
        if self.records.len() == self.records.capacity() {
            self.make_room();
        }
        self.records.push(TraceRecord { pc, vaddr, size, kind, nonmem_before: take as u16 });
    }

    /// Makes room for one more record: grows the vector as `Vec::push`
    /// would (in memory), or hands the full chunk to the sink.
    #[cold]
    #[inline(never)]
    fn make_room(&mut self) {
        match &mut self.sink {
            None => self.records.reserve(1),
            Some(_) => self.spill(),
        }
    }

    /// Streaming only: writes the current chunk (unless an earlier write
    /// failed) and empties it.
    fn spill(&mut self) {
        let sink = self.sink.as_mut().expect("only a streaming buffer spills");
        if sink.error.is_none() {
            sink.error = sink.writer.write_records(&self.records).err();
        }
        self.spilled_records += self.records.len() as u64;
        self.spilled_instructions +=
            self.records.iter().map(TraceRecord::instructions).sum::<u64>();
        self.records.clear();
    }

    /// Number of memory records emitted so far.
    pub fn len(&self) -> usize {
        self.spilled_records as usize + self.records.len()
    }

    /// `true` if no memory records have been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total instructions represented so far (memory + non-memory).
    pub fn instructions(&self) -> u64 {
        self.spilled_instructions
            + self.pending_nonmem
            + self.records.iter().map(TraceRecord::instructions).sum::<u64>()
    }

    /// Finalizes an in-memory buffer into an immutable [`Trace`]. Any
    /// non-memory instructions still pending become the trace's trailing
    /// epilogue.
    ///
    /// # Panics
    ///
    /// Panics on a streaming buffer: its records are not here to return
    /// (finish it with [`TraceBuffer::finish_stream`]).
    pub fn finish(self) -> Trace {
        assert!(self.sink.is_none(), "a streaming TraceBuffer ends with finish_stream");
        Trace::from_parts(self.name, self.records, self.pending_nonmem)
    }

    /// Finalizes a streaming buffer: writes the last chunk, then the
    /// header's record count and trailing non-memory instructions (the
    /// ones still pending), and flushes.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error any write of this stream met.
    ///
    /// # Panics
    ///
    /// Panics on an in-memory buffer (finish it with
    /// [`TraceBuffer::finish`]).
    pub fn finish_stream(mut self) -> io::Result<WrittenTrace> {
        assert!(self.sink.is_some(), "an in-memory TraceBuffer ends with finish");
        if !self.records.is_empty() {
            self.spill();
        }
        let Sink { writer, error } = self.sink.take().expect("checked above");
        if let Some(e) = error {
            return Err(e);
        }
        writer.finish(self.pending_nonmem)?;
        Ok(WrittenTrace {
            records: self.spilled_records,
            instructions: self.spilled_instructions + self.pending_nonmem,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_nonmem_attaches_to_next_record() {
        let mut b = TraceBuffer::new("t");
        b.nonmem(5);
        b.load(1, 0, 8);
        b.store(2, 8, 8);
        let t = b.finish();
        assert_eq!(t.records()[0].nonmem_before, 5);
        assert_eq!(t.records()[1].nonmem_before, 0);
    }

    #[test]
    fn nonmem_overflow_carries_to_later_records() {
        let mut b = TraceBuffer::new("t");
        b.nonmem(u16::MAX as u64 + 10);
        b.load(1, 0, 8);
        b.load(1, 64, 8);
        let t = b.finish();
        assert_eq!(t.records()[0].nonmem_before, u16::MAX);
        assert_eq!(t.records()[1].nonmem_before, 10);
        assert_eq!(t.instructions(), u16::MAX as u64 + 10 + 2);
    }

    #[test]
    fn trailing_nonmem_preserved_by_finish() {
        let mut b = TraceBuffer::new("t");
        b.load(1, 0, 8);
        b.nonmem(42);
        assert_eq!(b.instructions(), 43);
        let t = b.finish();
        assert_eq!(t.trailing_nonmem(), 42);
        assert_eq!(t.instructions(), 43);
    }

    /// A temp file path unique to this test process and `tag`.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ccsim-buffer-{}-{tag}.cctr", std::process::id()))
    }

    /// Pushes `n` records of mixed kinds and gaps, with a gap too large
    /// for one record in the middle and a trailing epilogue.
    fn fill(b: &mut TraceBuffer, n: u64) {
        for i in 0..n {
            b.nonmem(if i == n / 2 { 3 * u16::MAX as u64 } else { i % 7 });
            if i % 3 == 0 {
                b.store(0x400_000 + 4 * (i % 11), 64 * i, 8);
            } else {
                b.load(0x400_100 + 4 * (i % 13), 64 * i, 4);
            }
        }
        b.nonmem(5);
    }

    #[test]
    fn a_streamed_buffer_writes_what_write_trace_writes() {
        for n in
            [0, 1, CHUNK_RECORDS as u64 - 1, CHUNK_RECORDS as u64, 3 * CHUNK_RECORDS as u64 + 9]
        {
            let mut mem = TraceBuffer::new("same");
            fill(&mut mem, n);
            let (len, instructions) = (mem.len(), mem.instructions());
            let mut want = Vec::new();
            crate::write_trace(&mem.finish(), &mut want).unwrap();

            let path = temp_path(&format!("same-{n}"));
            let mut streamed =
                TraceBuffer::streaming("same", std::fs::File::create(&path).unwrap()).unwrap();
            fill(&mut streamed, n);
            assert_eq!((streamed.len(), streamed.instructions()), (len, instructions), "{n}");
            let written = streamed.finish_stream().unwrap();
            assert_eq!(written, WrittenTrace { records: n, instructions }, "{n}");
            assert!(std::fs::read(&path).unwrap() == want, "{n} records: bytes differ");
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A writer that accepts `limit` bytes, then fails every write.
    struct Failing {
        written: u64,
        limit: u64,
    }

    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.written + buf.len() as u64 > self.limit {
                return Err(io::Error::other("disk full"));
            }
            self.written += buf.len() as u64;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Seek for Failing {
        fn seek(&mut self, _: io::SeekFrom) -> io::Result<u64> {
            Ok(self.written)
        }
    }

    #[test]
    fn the_first_write_error_surfaces_at_finish() {
        // The header fits, the first chunk does not: pushing goes on
        // (and counts), and finish returns the error.
        let mut b = TraceBuffer::streaming("full", Failing { written: 0, limit: 100 }).unwrap();
        fill(&mut b, 3 * CHUNK_RECORDS as u64);
        assert_eq!(b.len(), 3 * CHUNK_RECORDS);
        assert_eq!(b.finish_stream().unwrap_err().to_string(), "disk full");
        // A stream whose records all fit fails only on a write it makes.
        let b = TraceBuffer::streaming("ok", Failing { written: 0, limit: 1 << 20 }).unwrap();
        assert_eq!(b.finish_stream().unwrap(), WrittenTrace { records: 0, instructions: 0 });
    }

    #[test]
    #[should_panic(expected = "ends with finish_stream")]
    fn a_streaming_buffer_has_no_trace_to_return() {
        let b = TraceBuffer::streaming("s", Failing { written: 0, limit: 1 << 20 }).unwrap();
        drop(b.finish());
    }

    #[test]
    fn with_capacity_reserves() {
        let b = TraceBuffer::with_capacity("t", 128);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}
