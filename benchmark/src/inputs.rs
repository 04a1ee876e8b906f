//! The seeded input set, built during set-up.
//!
//! Everything the workloads replay is generated here from the seed and
//! written to disk; the workloads then receive only these files (each loads
//! what it replays and nothing else, so `peak_heap_mb` is that workload's
//! own). Set-up always builds the whole set, whichever workload runs, so
//! `setup_s` is one quantity that repeats from run to run.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, Write};
use std::path::{Path, PathBuf};

use ccsim_graph::{generators, traced, Graph};
use ccsim_ingest::champsim::{ChampSimRecord, ChampSimWriter};
use ccsim_trace::{write_trace, Trace};
use ccsim_workloads::{build_workload_seeded, SuiteScale};

use crate::at_path;
use crate::timing::time;

/// Input sizes: the measured set, or the tiny set `--smoke` and the tests
/// use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every recorded number was measured at.
    Full,
    /// A seconds-long functional pass; its numbers mean nothing.
    Smoke,
}

impl Scale {
    /// log2 vertices of the BFS graph (`G18`).
    pub fn bfs_graph_scale(self) -> u32 {
        match self {
            Scale::Full => 18,
            Scale::Smoke => 12,
        }
    }

    /// log2 vertices of the graph behind the foreign trace.
    pub fn foreign_graph_scale(self) -> u32 {
        match self {
            Scale::Full => 16,
            Scale::Smoke => 10,
        }
    }

    /// Instructions in the foreign (ChampSim) trace.
    pub fn foreign_instructions(self) -> u64 {
        match self {
            Scale::Full => 4_000_000,
            Scale::Smoke => 20_000,
        }
    }

    /// Preset for the suite workloads (`tc.kron` and the campaign members).
    pub fn suite(self) -> SuiteScale {
        match self {
            Scale::Full => SuiteScale::Full,
            Scale::Smoke => SuiteScale::Quick,
        }
    }
}

/// Edges per vertex of both Kronecker graphs.
const EDGE_FACTOR: u32 = 16;

/// A `CCTR` trace on disk.
#[derive(Debug, Clone)]
pub struct TraceFile {
    /// Where it is.
    pub path: PathBuf,
    /// Memory-access records in it.
    pub records: u64,
}

/// The built input set.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Seed everything was generated from.
    pub seed: u64,
    /// Sizes used.
    pub scale: Scale,
    /// `bfs18`: direction-optimizing BFS over `G18` from its highest-degree
    /// vertex — irregular, misses at every level.
    pub bfs: TraceFile,
    /// `tc13`: `tc.kron`, whose working set is L1/L2-resident.
    pub tc: TraceFile,
    /// `cc16.champsim`: a foreign-format instruction trace.
    pub foreign: PathBuf,
}

/// Host costs of the set-up stages that are layer calls.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `generators::kronecker` for `G18`, seconds.
    pub generate_s: f64,
    /// Undirected edges generated.
    pub edges: u64,
    /// `traced::bfs` over `G18`, seconds.
    pub kernel_s: f64,
    /// Records it captured.
    pub kernel_records: u64,
}

/// The highest-degree vertex, lowest id on ties (vertex 0 can be isolated).
pub fn hub_vertex(g: &Graph) -> u32 {
    (0..g.num_vertices()).rev().max_by_key(|&v| g.degree(v)).unwrap_or(0)
}

/// Opens `path` for rewriting *in place*: an existing file keeps its
/// blocks and page-cache pages and is cut to its new length by
/// [`finish_in_place`]. Set-up runs several times per process, and on this
/// kind of VM pages freed by deleting or truncating a 256 MB file go back to
/// the hypervisor within seconds; getting them back costs ten times what
/// writing them does, which made `setup_s` bimodal.
fn create_in_place(path: &Path) -> Result<File, String> {
    OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| at_path(path, e))
}

/// Cuts the file to what was written since [`create_in_place`].
fn finish_in_place(mut file: &File, path: &Path) -> Result<(), String> {
    let written = file.stream_position().map_err(|e| at_path(path, e))?;
    file.set_len(written).map_err(|e| at_path(path, e))
}

fn write_cctr(trace: &Trace, path: &Path) -> Result<TraceFile, String> {
    let file = create_in_place(path)?;
    let mut writer = BufWriter::new(&file);
    write_trace(trace, &mut writer).map_err(|e| at_path(path, e))?;
    writer.flush().map_err(|e| at_path(path, e))?;
    drop(writer);
    finish_in_place(&file, path)?;
    Ok(TraceFile { path: path.to_owned(), records: trace.len() as u64 })
}

/// Encodes the first `instructions` instructions of `trace` as a ChampSim
/// record stream: each record's preceding non-memory instructions, then the
/// load or store itself.
fn write_champsim(trace: &Trace, instructions: u64, path: &Path) -> Result<(), String> {
    let file = create_in_place(path)?;
    let mut buffered = BufWriter::new(&file);
    let mut writer = ChampSimWriter::new(&mut buffered);
    'records: for rec in trace {
        let before = u64::from(rec.nonmem_before);
        for i in 0..=before {
            if writer.records() == instructions {
                break 'records;
            }
            let out = if i < before {
                ChampSimRecord::nonmem(rec.pc.wrapping_sub(4 * (before - i)))
            } else if rec.kind.is_store() {
                ChampSimRecord::store(rec.pc, rec.vaddr)
            } else {
                ChampSimRecord::load(rec.pc, rec.vaddr)
            };
            writer.write(&out).map_err(|e| at_path(path, e))?;
        }
    }
    if writer.records() != instructions {
        return Err(format!(
            "{}: source trace has only {} of {instructions} instructions",
            path.display(),
            writer.records()
        ));
    }
    buffered.flush().map_err(|e| at_path(path, e))?;
    drop(buffered);
    finish_in_place(&file, path)
}

/// Builds the whole input set from `seed` into `dir`, rewriting in place
/// whatever an earlier build left there.
///
/// # Errors
///
/// Returns a message on any I/O failure or unknown workload name.
pub fn build(seed: u64, scale: Scale, dir: &Path) -> Result<(Inputs, SetupTimes), String> {
    std::fs::create_dir_all(dir).map_err(|e| at_path(dir, e))?;

    let graph_scale = scale.bfs_graph_scale();
    let (graph, generate) = time(|| generators::kronecker(graph_scale, EDGE_FACTOR, seed));
    let source = hub_vertex(&graph);
    let ((mut bfs, _), kernel) = time(|| traced::bfs(&graph, source));
    let times = SetupTimes {
        generate_s: generate.as_secs_f64(),
        edges: graph.num_edges(),
        kernel_s: kernel.as_secs_f64(),
        kernel_records: bfs.len() as u64,
    };
    drop(graph);
    bfs.set_name(format!("bfs{graph_scale}"));
    let bfs = write_cctr(&bfs, &dir.join(format!("bfs{graph_scale}.cctr")))?;

    let tc = build_workload_seeded("tc.kron", scale.suite(), seed)?;
    let tc = write_cctr(&tc, &dir.join("tc.cctr"))?;

    let foreign_scale = scale.foreign_graph_scale();
    let foreign = dir.join(format!("cc{foreign_scale}.champsim"));
    let cc_graph = generators::kronecker(foreign_scale, EDGE_FACTOR, seed ^ 1);
    let (cc, _) = traced::connected_components(&cc_graph);
    write_champsim(&cc, scale.foreign_instructions(), &foreign)?;

    Ok((Inputs { seed, scale, bfs, tc, foreign }, times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_is_the_lowest_id_among_the_highest_degrees() {
        // Degrees: 0 → 1, 1 → 2, 2 → 2, 3 → 1.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], true);
        assert_eq!(hub_vertex(&g), 1);
    }

    #[test]
    fn champsim_encoding_stops_at_the_instruction_cap() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-scratch/encode");
        std::fs::create_dir_all(&dir).unwrap();
        let mut buf = ccsim_trace::TraceBuffer::new("t");
        for i in 0..10u64 {
            buf.nonmem(3);
            buf.load(0x400, i * 64, 8);
        }
        let path = dir.join("t.champsim");
        write_champsim(&buf.finish(), 18, &path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 18 * 64);
        let short = ccsim_trace::TraceBuffer::new("empty").finish();
        assert!(write_champsim(&short, 1, &path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
