//! Random-access patterns with uniform or Zipfian locality.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::synth::{PatternGen, Zipf};
use crate::TraceBuffer;

/// Element-selection distribution for [`RandomAccess`].
#[derive(Debug, Clone)]
pub enum AccessDistribution {
    /// Every element equally likely (worst-case locality).
    Uniform,
    /// Zipfian over a prepared table (hot/cold skew, models lookup tables
    /// and software caches). The table's domain must be the region's
    /// element count; one table serves every pattern over that region.
    Zipf(Arc<Zipf>),
}

/// Emits `count` random accesses into a region of `elems` elements.
///
/// Uniform random access is the pattern of hash joins, XSBench-like lookups
/// and GUPS; the Zipfian variant models key-value and lookup-table skew.
#[derive(Debug, Clone)]
pub struct RandomAccess {
    base: u64,
    elems: u64,
    elem_bytes: u64,
    count: u64,
    dist: AccessDistribution,
    store_fraction: f64,
    seed: u64,
    nonmem_per_access: u32,
    pc_load: u64,
    pc_store: u64,
}

impl RandomAccess {
    /// Creates a uniform random-load pattern over `elems` elements of
    /// `elem_bytes` bytes at `base`, emitting `count` accesses.
    pub fn new(base: u64, elems: u64, elem_bytes: u64, count: u64) -> Self {
        assert!(elems > 0, "region must contain elements");
        assert!(elem_bytes > 0 && elem_bytes <= 64, "element must be 1..=64 bytes");
        RandomAccess {
            base,
            elems,
            elem_bytes,
            count,
            dist: AccessDistribution::Uniform,
            store_fraction: 0.0,
            seed: 0,
            nonmem_per_access: 4,
            pc_load: 0x0300_0000,
            pc_store: 0x0300_0004,
        }
    }

    /// Sets the selection distribution (default uniform).
    pub fn distribution(mut self, dist: AccessDistribution) -> Self {
        self.dist = dist;
        self
    }

    /// Fraction of accesses that are stores (default 0).
    pub fn store_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "store fraction must be in [0, 1]");
        self.store_fraction = f;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets non-memory instructions per access (default 4).
    pub fn work(mut self, nonmem: u32) -> Self {
        self.nonmem_per_access = nonmem;
        self
    }

    /// Overrides the load/store code sites.
    pub fn sites(mut self, pc_load: u64, pc_store: u64) -> Self {
        self.pc_load = pc_load;
        self.pc_store = pc_store;
        self
    }
}

impl PatternGen for RandomAccess {
    fn emit(&self, buf: &mut TraceBuffer) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        if let AccessDistribution::Zipf(zipf) = &self.dist {
            assert_eq!(zipf.n() as u64, self.elems, "zipf table must span the region");
        }
        let size = self.elem_bytes.min(8) as u8;
        for _ in 0..self.count {
            buf.nonmem(self.nonmem_per_access as u64);
            let idx = match &self.dist {
                AccessDistribution::Zipf(z) => z.sample(&mut rng) as u64,
                AccessDistribution::Uniform => rng.gen_range(0..self.elems),
            };
            let addr = self.base + idx * self.elem_bytes;
            if self.store_fraction > 0.0 && rng.gen::<f64>() < self.store_fraction {
                buf.store(self.pc_store, addr, size);
            } else {
                buf.load(self.pc_load, addr, size);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_count_records_in_region() {
        let r = RandomAccess::new(0x1_0000, 256, 16, 500).seed(5);
        let mut buf = TraceBuffer::new("t");
        r.emit(&mut buf);
        let t = buf.finish();
        assert_eq!(t.len(), 500);
        for rec in &t {
            assert!(rec.vaddr >= 0x1_0000);
            assert!(rec.vaddr < 0x1_0000 + 256 * 16);
            assert_eq!((rec.vaddr - 0x1_0000) % 16, 0);
        }
    }

    #[test]
    fn store_fraction_approximately_respected() {
        let r = RandomAccess::new(0, 64, 8, 10_000).store_fraction(0.3).seed(1);
        let mut buf = TraceBuffer::new("t");
        r.emit(&mut buf);
        let t = buf.finish();
        let stores = t.iter().filter(|x| x.kind.is_store()).count();
        assert!((2_500..3_500).contains(&stores), "stores {stores} not ~30%");
    }

    #[test]
    fn zipf_skews_toward_low_indices() {
        let r = RandomAccess::new(0, 1 << 12, 8, 20_000)
            .distribution(AccessDistribution::Zipf(Arc::new(Zipf::new(1 << 12, 1.1))))
            .seed(3);
        let mut buf = TraceBuffer::new("t");
        r.emit(&mut buf);
        let t = buf.finish();
        let hot = t.iter().filter(|x| x.vaddr < 64 * 8).count();
        assert!(hot > 4_000, "hot-head count {hot} too small");
    }

    #[test]
    #[should_panic(expected = "zipf table must span the region")]
    fn zipf_table_of_another_size_rejected() {
        let r = RandomAccess::new(0, 64, 8, 1)
            .distribution(AccessDistribution::Zipf(Arc::new(Zipf::new(32, 1.0))));
        r.emit(&mut TraceBuffer::new("t"));
    }

    #[test]
    #[should_panic(expected = "store fraction must be in [0, 1]")]
    fn bad_store_fraction_rejected() {
        let _ = RandomAccess::new(0, 4, 8, 1).store_fraction(1.5);
    }
}
