//! Streaming digests: byte-wise FNV-1a for short keys, a four-lane word
//! digest for whole files (ingest cache keys).

use std::io::Read;
use std::path::Path;

/// Incremental 64-bit FNV-1a hasher.
///
/// The function the campaign layer uses for cache filenames, spec digests
/// and journals, and the tests for their goldens: one multiply per byte,
/// which suits short strings. Whole files go through [`digest_file`].
/// Stable and dependency-free; a content *identity*, not a cryptographic
/// hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Creates a hasher in the FNV-1a initial state.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// XXH64's primes: odd, so multiplying by one is a bijection.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;

/// Bytes folded per step: one little-endian `u64` word into each lane.
const STRIPE: usize = 32;

/// One lane step: a bijection in `word` for any `lane`, and in `lane` for
/// any `word`, so a changed word always leaves a changed lane behind.
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

/// The streaming content digest behind [`digest_file`].
///
/// Whole 32-byte stripes go through four independent multiply–rotate
/// lanes (XXH64's round, so the lanes pipeline instead of waiting on one
/// multiply per byte); the sub-stripe tail goes through [`Fnv64`]; the
/// total length is folded in last, then an avalanche. The value depends
/// only on the bytes, never on how they were split across
/// [`ContentDigest::update`] calls.
#[derive(Debug, Clone)]
struct ContentDigest {
    lanes: [u64; 4],
    /// Bytes of a stripe not yet complete.
    pending: [u8; STRIPE],
    pending_len: usize,
    len: u64,
}

impl ContentDigest {
    fn new() -> ContentDigest {
        ContentDigest {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            pending: [0; STRIPE],
            pending_len: 0,
            len: 0,
        }
    }

    fn stripe(&mut self, stripe: &[u8]) {
        for (lane, word) in self.lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (STRIPE - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < STRIPE {
                return;
            }
            let stripe = self.pending;
            self.stripe(&stripe);
            self.pending_len = 0;
        }
        let mut stripes = bytes.chunks_exact(STRIPE);
        for stripe in &mut stripes {
            self.stripe(stripe);
        }
        let tail = stripes.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        let mut tail = Fnv64::new();
        tail.update(&self.pending[..self.pending_len]);
        for lane in [a, b, c, d, tail.finish()] {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h = h.wrapping_add(self.len);
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// Digests everything `reader` yields, 64 KiB at a time (bounded memory).
fn digest_reader<R: Read>(mut reader: R) -> std::io::Result<u64> {
    let mut hasher = ContentDigest::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => return Ok(hasher.finish()),
            Ok(n) => hasher.update(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Digests a file's full contents in bounded memory: the content
/// identity the campaign trace cache keys ingested conversions by.
///
/// The file is folded as little-endian `u64` words in four lanes (see
/// `ContentDigest`), about 7× faster than byte-wise [`Fnv64`] — a
/// multi-gigabyte source is read once per key, so the hash has to keep up
/// with the page cache. Stable across platforms and read sizes; a content
/// *identity*, not a cryptographic hash.
///
/// # Errors
///
/// Propagates I/O errors from opening or reading the file.
pub fn digest_file(path: &Path) -> std::io::Result<u64> {
    digest_reader(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fnv1a_reference_vectors() {
        assert_eq!(Fnv64::new().finish(), 0xcbf29ce484222325);
        let mut h = Fnv64::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn chunking_does_not_change_the_digest() {
        let mut whole = Fnv64::new();
        whole.update(b"hello ingest world");
        let mut split = Fnv64::new();
        split.update(b"hello ");
        split.update(b"ingest ");
        split.update(b"world");
        assert_eq!(whole.finish(), split.finish());
    }

    /// Deterministic, word-distinct test bytes.
    fn bytes(len: usize) -> Vec<u8> {
        let mut x = 0x1234_5678_9abc_def0u64;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    fn one_shot(bytes: &[u8]) -> u64 {
        let mut h = ContentDigest::new();
        h.update(bytes);
        h.finish()
    }

    /// Returns at most 7 bytes per `read`, so every stripe straddles reads.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(7);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_splits_do_not_change_the_digest() {
        let path = std::env::temp_dir().join(format!("ccsim_digest_{}", std::process::id()));
        for len in [0, 1, 7, 8, 31, 32, 33, 64 * 1024 - 1, 64 * 1024, 64 * 1024 + 1] {
            let data = bytes(len);
            let want = one_shot(&data);
            assert_eq!(digest_reader(Trickle(&data)).unwrap(), want, "len {len}, 7-byte reads");
            std::fs::write(&path, &data).unwrap();
            assert_eq!(digest_file(&path).unwrap(), want, "len {len}, file");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn any_single_change_moves_the_digest() {
        for len in [4096, 45] {
            let data = bytes(len);
            let base = one_shot(&data);
            let mut copy = data.clone();
            for bit in 0..len * 8 {
                copy[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(one_shot(&copy), base, "len {len}: flipping bit {bit}");
                copy[bit / 8] ^= 1 << (bit % 8);
            }
            let mut longer = data.clone();
            longer.push(0);
            assert_ne!(one_shot(&longer), base, "len {len}: appending a zero byte");
        }
        // Swapping two 8-byte words: neighbours (different lanes) and
        // words one stripe apart (the same lane).
        let data = bytes(4096);
        let base = one_shot(&data);
        for (i, j) in (0..511).map(|i| (i, i + 1)).chain((0..508).map(|i| (i, i + 4))) {
            let mut swapped = data.clone();
            let (a, b) = swapped.split_at_mut(j * 8);
            a[i * 8..i * 8 + 8].swap_with_slice(&mut b[..8]);
            assert_ne!(one_shot(&swapped), base, "swapping words {i} and {j}");
        }
    }

    #[test]
    fn digest_vectors_are_pinned() {
        // The trace cache's ingest keys hash these values: a change here
        // orphans every ingested entry, so it must come with a new scheme
        // name in `path_for_ingested`.
        assert_eq!(one_shot(b""), 0xacf8_a850_0c9f_d8c3);
        assert_eq!(one_shot(b"ccsim"), 0x79ab_1607_5cf8_0e55);
        assert_eq!(one_shot(&bytes(100)), 0x5a11_044f_d410_34e5);
    }
}
