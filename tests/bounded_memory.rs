//! Enforces the streaming contract: no campaign member's trace is ever
//! resident, so the heap does not grow with trace length.
//!
//! The binary installs a counting global allocator that tracks live heap
//! bytes and their peak. A synthetic trace streamed to a file and
//! replayed from it peaks at the same heap whether it has N or 16·N
//! records, and acquiring a GAP campaign member peaks below the size of
//! its own records (the graph and kernel arrays are all it holds).
//!
//! Everything lives in one `#[test]`: the counters are process-global,
//! so concurrent tests in the same binary would pollute the measurement.

use std::fs::File;
use std::io::BufReader;

use ccsim::core::simulate_stream;
use ccsim::prelude::*;
use ccsim::trace::synth::{PatternGen, RandomAccess};
use ccsim::trace::{TraceReader, TraceRecord};

mod alloc_track;
use alloc_track::{counting_enabled, peak_growth, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Slack between the two stream peaks: buffers sized by the trace's
/// shape, not its length (one chunk is 96 KB).
const STREAM_SLACK: u64 = 256 << 10;

#[test]
fn the_heap_does_not_grow_with_trace_length() {
    assert!(counting_enabled(), "the counting allocator must be installed in this binary");
    let dir = std::env::temp_dir().join(format!("ccsim-bounded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Generate into a file, then replay it: the whole round trip.
    let stream = |records: u64| {
        let path = dir.join(format!("stream-{records}.cctr"));
        let (written, peak) = peak_growth(|| {
            let mut buf = TraceBuffer::streaming("stream", File::create(&path).unwrap()).unwrap();
            RandomAccess::new(0x1000_0000, 1 << 16, 64, records)
                .store_fraction(0.2)
                .seed(3)
                .emit(&mut buf);
            let written = buf.finish_stream().unwrap();
            let reader = TraceReader::new(BufReader::new(File::open(&path).unwrap())).unwrap();
            simulate_stream(reader, &SimConfig::tiny(), PolicyKind::Lru).unwrap();
            written
        });
        assert_eq!(written.records, records);
        std::fs::remove_file(&path).unwrap();
        peak
    };
    let n = 50_000;
    let (short, long) = (stream(n), stream(16 * n));
    let long_records = 16 * n * std::mem::size_of::<TraceRecord>() as u64;
    assert!(
        short.abs_diff(long) <= STREAM_SLACK,
        "peaks {short} B for {n} records, {long} B for {} (resident: {long_records} B)",
        16 * n
    );

    // A campaign member, generated into the cache and into a one-shot
    // file: the kernel's arrays, never its trace.
    let spec = CampaignSpec::from_json_str(
        r#"{"name": "bounded", "scale": "quick", "base_config": "tiny",
            "workloads": ["bc.kron"], "policies": ["lru"]}"#,
    )
    .unwrap();
    let cache = TraceCache::new(dir.join("cache")).unwrap();
    let cached = Campaign::new(spec.clone()).cache(cache);
    let one_shot = Campaign::new(spec);
    for (route, campaign) in [("cache", &cached), ("one-shot", &one_shot)] {
        let (acquired, peak) = peak_growth(|| campaign.acquire("bc.kron").unwrap());
        let resident = acquired.records() * std::mem::size_of::<TraceRecord>() as u64;
        assert!(
            peak < resident,
            "{route}: acquire peaked at {peak} B, its records are {resident} B"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
