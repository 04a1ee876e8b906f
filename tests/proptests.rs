//! Property-based tests over the whole stack.

use std::collections::HashMap;

use ccsim::core::cache::{MshrBank, MshrGrant, MshrSlots};
use ccsim::core::{Core, CoreConfig};
use ccsim::ingest::champsim::{ChampSimRecord, ChampSimWriter};
use ccsim::ingest::{ingest, ingest_to_trace, IngestOptions};
use ccsim::obs::Json;
use ccsim::policies::belady::belady_replay;
use ccsim::prelude::*;
use ccsim::trace::{read_trace, write_trace, AccessKind, TraceBuffer, TraceRecord};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (0u64..1 << 40, 0u64..1 << 44, 1u8..=8, any::<bool>(), 0u16..=u16::MAX).prop_map(
        |(pc, vaddr, size, store, nonmem)| TraceRecord {
            pc,
            vaddr,
            size,
            kind: if store { AccessKind::Store } else { AccessKind::Load },
            nonmem_before: nonmem,
        },
    )
}

fn arb_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    (proptest::collection::vec(arb_record(), 0..max_len), 0u64..1000)
        .prop_map(|(records, trailing)| Trace::from_parts("prop", records, trailing))
}

/// A trace over a small block pool — 1, 4, 9, 16 or 25 blocks against
/// the tiny L1D's 4 lines, so anything from no evictions to constant set
/// conflicts — whose accesses are either back to back or far apart, so
/// both overlapping and fully drained misses occur.
fn arb_conflict_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    let record = (0u64..16, 0u64..24, any::<bool>(), 0u16..4, 0u16..4000);
    (1u64..6, proptest::collection::vec(record, 0..max_len)).prop_map(|(side, records)| {
        let records = records
            .into_iter()
            .map(|(pc, block, store, spaced, gap)| TraceRecord {
                pc: 0x400 + 4 * pc,
                vaddr: (block % (side * side)) << 6,
                size: 8,
                kind: if store { AccessKind::Store } else { AccessKind::Load },
                nonmem_before: if spaced == 0 { gap } else { 0 },
            })
            .collect();
        Trace::from_parts("conflict", records, 0)
    })
}

/// `SimConfig::tiny()` with every timing-only parameter redrawn: DRAM
/// timings, per-level MSHR counts and hit latencies, ROB size. Geometry
/// (sets, ways, DRAM banks and rows) is untouched.
fn arb_timing_variation() -> impl Strategy<Value = SimConfig> {
    let dram = (1u64..80, 1u64..80, 1u64..80, 1u64..16, 0u64..16);
    let mshrs = (1u32..9, 1u32..9, 1u32..9);
    let latency = (1u64..20, 1u64..20, 1u64..40);
    (dram, mshrs, latency, 1u32..65).prop_map(|(dram, mshrs, latency, rob_size)| {
        let mut c = SimConfig::tiny();
        (c.dram.t_cas, c.dram.t_rcd, c.dram.t_rp, c.dram.t_burst, c.dram.t_controller) = dram;
        (c.l1d.mshrs, c.l2.mshrs, c.llc.mshrs) = mshrs;
        (c.l1d.latency, c.l2.latency, c.llc.latency) = latency;
        c.core.rob_size = rob_size;
        c
    })
}

/// An arbitrary [`Json`] tree grown from a bag of entropy words (the
/// stand-in `proptest` has no recursive strategies): depth ≤ 6, unique
/// object keys as the parser demands, strings over quotes, backslashes,
/// control characters and non-ASCII, integers up to 2^53 inclusive, any
/// finite float. An empty bag draws 0, which is `null`, so trees end.
fn arb_json() -> impl Strategy<Value = Json> {
    proptest::collection::vec(any::<u64>(), 1..200)
        .prop_map(|words| json_from_words(&mut words.into_iter(), 0))
}

fn json_from_words(words: &mut std::vec::IntoIter<u64>, depth: usize) -> Json {
    const CHARS: [char; 14] = [
        '"', '\\', '/', '\n', '\t', '\0', '\u{1f}', '\u{7f}', ' ', 'a', 'ü', '中', '😀', '\u{2028}',
    ];
    fn string(words: &mut std::vec::IntoIter<u64>) -> String {
        let len = words.next().unwrap_or(0) % 8;
        (0..len).map(|_| CHARS[words.next().unwrap_or(0) as usize % CHARS.len()]).collect()
    }
    let pick = words.next().unwrap_or(0);
    let arms = if depth < 6 { 7 } else { 5 };
    let children = (pick >> 8) as usize % 5;
    match pick % arms {
        0 => Json::Null,
        1 => Json::Bool(pick >> 8 & 1 == 1),
        2 => match pick >> 8 & 3 {
            0 => Json::int(Json::MAX_INT),
            _ => Json::int(words.next().unwrap_or(0) % (Json::MAX_INT + 1)),
        },
        3 => Json::num(f64::from_bits(words.next().unwrap_or(0))),
        4 => Json::Str(string(words)),
        5 => Json::Arr((0..children).map(|_| json_from_words(words, depth + 1)).collect()),
        _ => Json::Obj(
            (0..children)
                .map(|i| (format!("{}{i}", string(words)), json_from_words(words, depth + 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binary serialization round-trips arbitrary traces exactly.
    #[test]
    fn trace_serialization_roundtrip(trace in arb_trace(200)) {
        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();
        let back = read_trace(&bytes[..]).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// The workspace's one JSON parser inverts both renderers for every
    /// value the tree can hold, and hostile bytes never panic it: every
    /// strict prefix of a rendered document is an `Err`, every
    /// single-bit flip at every offset an `Ok` or an `Err`.
    #[test]
    fn json_roundtrips_and_survives_truncation_and_bit_flips(v in arb_json()) {
        prop_assert_eq!(Json::parse(&v.to_pretty()), Ok(v.clone()));
        let doc = Json::Arr(vec![v]);
        let bytes = doc.to_string().into_bytes();
        prop_assert_eq!(Json::parse(&String::from_utf8_lossy(&bytes)), Ok(doc));
        let mut hostile = bytes.clone();
        for at in 0..bytes.len() {
            let prefix = String::from_utf8_lossy(&bytes[..at]);
            prop_assert!(Json::parse(&prefix).is_err(), "prefix of {at} bytes parsed");
            for bit in 0..8 {
                hostile[at] = bytes[at] ^ (1 << bit);
                let _ = Json::parse(&String::from_utf8_lossy(&hostile));
            }
            hostile[at] = bytes[at];
        }
    }

    /// The `nonmem_before` splitting invariant (`TraceBuffer` docs):
    /// arbitrary non-memory gaps — including ones far beyond `u16::MAX`
    /// — survive construction and a `CCTR` round-trip with the exact
    /// instruction total intact, each record's field saturating at
    /// `u16::MAX` and the residue landing in `trailing_nonmem`.
    #[test]
    fn nonmem_gaps_beyond_u16_split_losslessly(
        gaps in proptest::collection::vec(0u64..200_000, 1..40),
        trailing in 0u64..200_000,
    ) {
        let mut buf = TraceBuffer::new("gaps");
        for (i, &gap) in gaps.iter().enumerate() {
            buf.nonmem(gap);
            buf.load(0x400, 64 * i as u64, 8);
        }
        buf.nonmem(trailing);
        let trace = buf.finish();
        let expected = gaps.iter().sum::<u64>() + trailing + gaps.len() as u64;
        prop_assert_eq!(trace.instructions(), expected);
        // The split is canonical: greedy front-loading, so a record only
        // carries less than u16::MAX when the backlog is drained.
        let mut backlog = 0u64;
        for (r, &gap) in trace.records().iter().zip(&gaps) {
            backlog += gap;
            let take = backlog.min(u16::MAX as u64);
            prop_assert_eq!(r.nonmem_before as u64, take);
            backlog -= take;
        }
        prop_assert_eq!(trace.trailing_nonmem(), backlog + trailing);

        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();
        let back = read_trace(&bytes[..]).unwrap();
        prop_assert_eq!(back.instructions(), expected);
        prop_assert_eq!(back, trace);
    }

    /// Ingesting arbitrary ChampSim instruction streams: the streaming
    /// and in-memory pipelines emit identical bytes, and the exact
    /// accounting identity `output = source + residual_debt` holds.
    #[test]
    fn champsim_ingest_streaming_equals_in_memory(
        instrs in proptest::collection::vec(
            (0u64..1 << 40, 0u8..4, 0u8..3, any::<bool>()), 0..120),
    ) {
        let mut source = Vec::new();
        let mut w = ChampSimWriter::new(&mut source);
        let mut source_instructions = 0u64;
        for &(pc, loads, stores, branch) in &instrs {
            let mut rec = if branch {
                ChampSimRecord::branch(pc, pc % 2 == 0)
            } else {
                ChampSimRecord::nonmem(pc)
            };
            for l in 0..loads {
                rec.source_memory[l as usize] = 0x1000 + 64 * (pc % 97) + l as u64;
            }
            for s in 0..stores {
                rec.destination_memory[s as usize] = 0x8000_0000 + 64 * (pc % 31) + s as u64;
            }
            w.write(&rec).unwrap();
            source_instructions += 1;
        }
        // Explicit format: an empty stream has nothing to auto-detect.
        let opts = IngestOptions {
            format: Some(SourceFormat::ChampSim),
            name: Some("prop".into()),
            ..Default::default()
        };
        let (trace, report) = ingest_to_trace(&source[..], &opts).unwrap();
        let mut via_mem = Vec::new();
        write_trace(&trace, &mut via_mem).unwrap();
        let mut cursor = std::io::Cursor::new(Vec::new());
        let stream_report = ingest(&source[..], &mut cursor, &opts).unwrap();
        prop_assert_eq!(cursor.into_inner(), via_mem);
        prop_assert_eq!(&report, &stream_report);
        prop_assert_eq!(report.source_instructions, source_instructions);
        prop_assert_eq!(
            trace.instructions(),
            report.source_instructions + report.residual_debt
        );
    }

    /// The reuse profile conserves mass on arbitrary traces.
    #[test]
    fn reuse_profile_mass_conserved(trace in arb_trace(300)) {
        let p = ccsim::trace::stats::ReuseProfile::compute(&trace);
        prop_assert_eq!(p.mass(), trace.len() as u64);
        // The hit fraction is monotone in capacity.
        let mut prev = 0.0;
        for k in 0..20 {
            let f = p.hit_fraction_within(1 << k);
            prop_assert!(f + 1e-12 >= prev);
            prev = f;
        }
    }

    /// Simulator conservation laws hold for arbitrary access streams under
    /// every policy: hits + misses = accesses at each level, and miss
    /// traffic cascades exactly.
    #[test]
    fn simulator_conservation_laws(
        trace in arb_trace(400),
        policy_idx in 0usize..PolicyKind::ALL.len(),
    ) {
        let policy = PolicyKind::ALL[policy_idx];
        let r = simulate(&trace, &SimConfig::tiny(), policy);
        prop_assert_eq!(r.instructions, trace.instructions());
        for stats in [&r.l1d, &r.l2, &r.llc] {
            prop_assert_eq!(
                stats.demand_hits + stats.demand_misses,
                stats.demand_accesses
            );
        }
        prop_assert_eq!(r.l2.demand_accesses, r.l1d.demand_misses);
        prop_assert_eq!(r.llc.demand_accesses, r.l2.demand_misses);
        prop_assert_eq!(
            r.dram.reads + r.llc.mshr_merges,
            r.llc.demand_misses
        );
    }

    /// L1D and L2 always run LRU over the trace order and their tag store
    /// is the only source of their state — a block evicted while its fill
    /// is in flight re-misses as a fresh miss, nothing merges there — so
    /// every one of their statistics is a pure function of the trace and
    /// must not move when only timing moves. This is what lets one front
    /// end serve every cell of a grid.
    #[test]
    fn upper_level_functional_stats_are_timing_independent(
        trace in arb_conflict_trace(300),
        policy_idx in 0usize..PolicyKind::ALL.len(),
        varied in arb_timing_variation(),
    ) {
        let policy = PolicyKind::ALL[policy_idx];
        let base = simulate(&trace, &SimConfig::tiny(), policy);
        let other = simulate(&trace, &varied, policy);
        prop_assert_eq!(base.l1d, other.l1d);
        prop_assert_eq!(base.l2, other.l2);
        prop_assert_eq!(base.l1d.mshr_merges + base.l2.mshr_merges, 0);
    }

    /// Belady replay: hits + misses = stream length, and OPT with more
    /// ways never hits less.
    #[test]
    fn belady_monotone_in_ways(
        blocks in proptest::collection::vec(0u64..64, 1..200),
        ways in 1u32..8,
    ) {
        let stream: Vec<(u32, u64)> = blocks.iter().map(|&b| (0u32, b)).collect();
        let small = belady_replay(&stream, 1, ways);
        let large = belady_replay(&stream, 1, ways + 1);
        prop_assert_eq!(small.hits + small.misses, stream.len() as u64);
        prop_assert!(large.hits >= small.hits);
    }

    /// CSR construction produces a verified graph for arbitrary edge lists,
    /// and transposing twice is the identity.
    #[test]
    fn csr_wellformed_for_random_edges(
        n in 2u32..64,
        edges in proptest::collection::vec((0u32..64, 0u32..64), 0..200),
    ) {
        let clamped: Vec<(u32, u32)> =
            edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let g = Graph::from_edges(n, &clamped, true);
        prop_assert!(g.verify().is_ok());
        let t = g.transpose();
        prop_assert!(t.verify().is_ok());
        prop_assert_eq!(t.transpose(), g);
    }

    /// Delta-stepping equals Dijkstra on random weighted graphs.
    #[test]
    fn sssp_matches_dijkstra(
        seed in 0u64..1000,
        delta in 1u32..64,
    ) {
        let g = ccsim::graph::generators::uniform(7, 4, seed)
            .with_random_weights(32, seed);
        let ds = ccsim::graph::kernels::sssp(&g, 0, delta);
        let dj = ccsim::graph::kernels::dijkstra(&g, 0);
        prop_assert_eq!(ds, dj);
    }
}

/// The per-instruction ROB model `Core` is an optimisation of: a ring of
/// the completion cycles of the last `rob_size` instructions, memory or
/// not, with the unclamped dispatch width. Instruction `k` waits for
/// dispatch bandwidth, then for instruction `k - rob_size` to complete.
struct ReferenceCore {
    done: Vec<u64>,
    head: usize,
    width: u32,
    cycle: u64,
    dispatched_this_cycle: u32,
    instructions: u64,
    max_completion: u64,
}

impl ReferenceCore {
    fn new(config: CoreConfig) -> Self {
        ReferenceCore {
            done: vec![0; config.rob_size as usize],
            head: 0,
            width: config.width,
            cycle: 0,
            dispatched_this_cycle: 0,
            instructions: 0,
            max_completion: 0,
        }
    }

    fn dispatch(&mut self, complete: impl FnOnce(u64) -> u64) {
        if self.dispatched_this_cycle >= self.width {
            self.cycle += 1;
            self.dispatched_this_cycle = 0;
        }
        let oldest = self.done[self.head];
        if oldest > self.cycle {
            self.cycle = oldest;
            self.dispatched_this_cycle = 0;
        }
        self.dispatched_this_cycle += 1;
        self.instructions += 1;
        let done = complete(self.cycle);
        self.max_completion = self.max_completion.max(done);
        self.done[self.head] = done;
        self.head = (self.head + 1) % self.done.len();
    }

    fn finish(&self) -> (u64, u64) {
        (self.instructions, self.cycle.max(self.max_completion).max(1))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Core` dispatches exactly as the per-instruction reference model
    /// does — same cycle and instruction count after every operation,
    /// same total cycles at the end — whatever mix of slow loads and
    /// non-memory batches it sees, for windows narrower and wider than
    /// the dispatch width. Some loads complete right around
    /// `rob_size / width` cycles out, the latest completion that can
    /// never stall the instruction `rob_size` younger.
    #[test]
    fn core_matches_per_instruction_reference(
        rob in (0usize..6).prop_map(|i| [1u32, 2, 3, 4, 16, 352][i]),
        width in 1u32..7,
        ops in proptest::collection::vec((0u8..4, 0u64..800, 0u64..8, 0u64..2000), 0..40),
    ) {
        let config = CoreConfig { rob_size: rob, width };
        let (mut core, mut reference) = (Core::new(config), ReferenceCore::new(config));
        let slack = u64::from(rob / width.min(rob));
        for (op, x, few, many) in ops {
            if op < 2 {
                let x = if op == 0 { x } else { slack + few % 3 - 1 };
                core.dispatch_mem(|at| at + x);
                reference.dispatch(|at| (at + x).max(at + 1));
            } else {
                let n = if op == 2 { few } else { many };
                core.dispatch_nonmem(n);
                for _ in 0..n {
                    reference.dispatch(|at| at + 1);
                }
            }
            prop_assert_eq!(core.instructions(), reference.instructions);
            prop_assert_eq!(core.cycle(), reference.cycle);
        }
        prop_assert_eq!(core.finish(), reference.finish());
    }
}

/// The outstanding-miss map `MshrBank` once kept beside its registers:
/// every block's last completion, never forgotten.
struct MapMshrs {
    slots: MshrSlots,
    completions: HashMap<u64, u64>,
}

impl MapMshrs {
    fn acquire(&self, block: u64, ready: u64) -> MshrGrant {
        match self.completions.get(&block) {
            Some(&completes_at) if completes_at > ready => MshrGrant::Merged { completes_at },
            _ => {
                let (slot, start_at) = self.slots.issue(ready);
                MshrGrant::Issue { slot, start_at }
            }
        }
    }

    fn complete(&mut self, slot: u32, block: u64, completes_at: u64) {
        self.slots.complete(slot, completes_at);
        self.completions.insert(block, completes_at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `MshrBank` remembers one block per register, the map every block's
    /// last completion. While time runs forward and no miss has waited for
    /// a register, a register is handed on only after its fill landed, so
    /// the two give the same grants, and a hit at cycle `t` waits for the
    /// same `max(t, pending)`. The first miss that waits may take a
    /// register whose fill is still in flight; past it they may differ.
    #[test]
    fn mshr_registers_agree_with_the_map_until_a_miss_waits(
        count in 1u32..9,
        ops in proptest::collection::vec((any::<bool>(), 0u64..12, 0u64..100, 1u64..400), 0..200),
    ) {
        let mut bank = MshrBank::new(count);
        let mut map = MapMshrs { slots: MshrSlots::new(count), completions: HashMap::new() };
        let mut t = 0;
        for (miss, block, dt, latency) in ops {
            t += dt;
            if !miss {
                let held = bank.pending(block).unwrap_or(0);
                let mapped = map.completions.get(&block).copied().unwrap_or(0);
                prop_assert_eq!(t.max(held), t.max(mapped));
                continue;
            }
            let grant = bank.acquire(block, t);
            prop_assert_eq!(grant, map.acquire(block, t));
            if let MshrGrant::Issue { slot, start_at } = grant {
                if start_at > t {
                    break;
                }
                bank.complete(slot, block, start_at + latency);
                map.complete(slot, block, start_at + latency);
            }
        }
    }
}

/// The four-load case that used to make upper-level tag state depend on
/// timing: A, B and C share the tiny L1D's two-way set 0, so C's fill
/// evicts A while A's own fill is still in flight. The second A is a tag
/// miss and re-misses as a fresh miss — L2 access and refill included —
/// exactly as it does when a one-entry ROB serialises the misses and A's
/// fill has long landed.
#[test]
fn evicted_in_flight_block_re_misses_as_a_fresh_miss() {
    let mut buf = TraceBuffer::new("merge-corner");
    for block in [0u64, 2, 4, 0] {
        buf.load(0x400, block << 6, 8);
    }
    let trace = buf.finish();
    let overlapped = simulate(&trace, &SimConfig::tiny(), PolicyKind::Lru);
    let mut serial = SimConfig::tiny();
    serial.core.rob_size = 1;
    let serialised = simulate(&trace, &serial, PolicyKind::Lru);
    assert_eq!(overlapped.l1d, serialised.l1d);
    assert_eq!(overlapped.l2, serialised.l2);
    assert_eq!(
        (overlapped.l1d.mshr_merges, overlapped.l1d.fills, overlapped.l2.demand_accesses),
        (0, 4, 4)
    );
    assert!(overlapped.cycles < serialised.cycles, "only the timing differs");
}
