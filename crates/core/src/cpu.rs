//! Out-of-order core proxy.
//!
//! The model captures the two mechanisms that determine how cache misses
//! translate into lost cycles on a modern OoO core:
//!
//! * **dispatch bandwidth** — at most `width` instructions enter the window
//!   per cycle, bounding peak IPC;
//! * **the finite instruction window** — instructions retire in order, so a
//!   long-latency load at the head of the ROB blocks retirement; once the
//!   ROB fills, dispatch (and therefore the issue of future loads) stalls
//!   until the head completes. Independent loads inside the window overlap,
//!   which is exactly memory-level parallelism.
//!
//! Register dependences are not tracked (the trace format does not carry
//! them); this makes MLP slightly optimistic, uniformly across replacement
//! policies, so relative comparisons are preserved.
//!
//! The ROB is a ring of the last `rob_size` completion cycles. Retirement
//! is in order, so instruction `k` can take a ROB entry only once
//! instruction `k - rob_size` has completed. Each dispatch therefore reads
//! one ring entry and overwrites it, with no queue to pop or merge.

use crate::config::CoreConfig;

/// The core model. Drive it by dispatching instructions in program order;
/// memory instructions receive their completion time from the hierarchy.
#[derive(Debug)]
pub struct Core {
    /// Completion cycle of each of the last `rob_size` dispatched
    /// instructions, by instruction number modulo `rob_size` (0 before
    /// the window first fills).
    done: Box<[u64]>,
    /// Ring index of the next instruction: the slot of the instruction
    /// `rob_size` older, which must have retired before it dispatches.
    head: usize,
    width: u32,
    cycle: u64,
    dispatched_this_cycle: u32,
    instructions: u64,
    max_completion: u64,
}

impl Core {
    /// Creates a core from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: CoreConfig) -> Self {
        config.validate().expect("invalid core config");
        Core {
            done: vec![0; config.rob_size as usize].into_boxed_slice(),
            head: 0,
            width: config.width,
            cycle: 0,
            dispatched_this_cycle: 0,
            instructions: 0,
            max_completion: 0,
        }
    }

    /// Current dispatch cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Instructions dispatched so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Dispatches one instruction completing at `complete(cycle)`, where
    /// `cycle` is its dispatch cycle: waits for dispatch bandwidth and for
    /// the instruction `rob_size` older to complete (in-order retirement
    /// frees its ROB entry), then takes its ROB entry.
    #[inline]
    fn dispatch<F: FnOnce(u64) -> u64>(&mut self, complete: F) {
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
        self.head += 1;
        if self.head == self.done.len() {
            self.head = 0;
        }
    }

    /// Dispatches `n` non-memory instructions (unit execution latency), in
    /// O(min(n, rob_size)) time: a trace header may claim 2^48 of them.
    pub fn dispatch_nonmem(&mut self, n: u64) {
        let rob = self.done.len() as u64;
        for _ in 0..n.min(rob) {
            self.dispatch(|at| at + 1);
        }
        if n > rob {
            self.dispatch_unstalled(n - rob);
        }
    }

    /// Dispatches the `rest` of a non-memory batch whose first `rob_size`
    /// instructions have dispatched, without a loop. The window now holds
    /// this batch alone, and instruction `k` waits on `k - rob_size`
    /// exactly when both would share a cycle, so the rest dispatch at
    /// `min(width, rob_size)` per cycle. The state left behind — ring
    /// included — is the one-at-a-time loop's.
    #[cold]
    fn dispatch_unstalled(&mut self, rest: u64) {
        let rob = self.done.len() as u64;
        let width = u64::from(self.width).min(rob);
        let (start, filled) = (self.cycle, u64::from(self.dispatched_this_cycle));
        let cycle_of = |j: u64| start + (filled + j) / width;
        let head = self.head as u64;
        for j in rest.saturating_sub(rob)..rest {
            self.done[((head + j) % rob) as usize] = cycle_of(j) + 1;
        }
        self.head = ((head + rest) % rob) as usize;
        self.cycle = cycle_of(rest - 1);
        self.dispatched_this_cycle = ((filled + rest - 1) % width + 1) as u32;
        self.instructions += rest;
        self.max_completion = self.max_completion.max(self.cycle + 1);
    }

    /// Dispatches one memory instruction; `issue` receives the dispatch
    /// cycle and must return the completion cycle (from the hierarchy).
    #[inline]
    pub fn dispatch_mem<F: FnOnce(u64) -> u64>(&mut self, issue: F) {
        self.dispatch(|at| issue(at).max(at + 1));
    }

    /// Finishes execution: returns (instructions, total cycles), draining
    /// the window.
    pub fn finish(self) -> (u64, u64) {
        (self.instructions, self.cycle.max(self.max_completion).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(rob: u32, width: u32) -> Core {
        Core::new(CoreConfig { rob_size: rob, width })
    }

    #[test]
    fn ideal_ipc_equals_width() {
        let mut c = core(128, 4);
        c.dispatch_nonmem(4000);
        let (instr, cycles) = c.finish();
        assert_eq!(instr, 4000);
        let ipc = instr as f64 / cycles as f64;
        assert!((ipc - 4.0).abs() < 0.1, "ipc {ipc} should be ~width");
    }

    #[test]
    fn single_long_load_blocks_at_rob_head() {
        // ROB 4: a 1000-cycle load then many quick instructions; the window
        // fills and dispatch stalls until the load completes.
        let mut c = core(4, 1);
        c.dispatch_mem(|at| at + 1000);
        c.dispatch_nonmem(100);
        let (_, cycles) = c.finish();
        assert!(cycles >= 1000, "rob head must gate progress, got {cycles}");
    }

    #[test]
    fn independent_loads_overlap_within_window() {
        // Two models: large window overlaps 8 x 500-cycle loads; tiny
        // window serializes them.
        let run = |rob_size| {
            let mut c = core(rob_size, 4);
            for i in 0..8u64 {
                c.dispatch_mem(|at| at + 500 + i);
            }
            c.finish().1
        };
        let wide = run(64);
        let narrow = run(1);
        assert!(wide < 600, "wide window should overlap: {wide}");
        assert!(narrow > 3000, "rob=1 must serialize: {narrow}");
    }

    #[test]
    fn memory_bound_ipc_collapses() {
        let mut c = core(8, 4);
        for _ in 0..100 {
            c.dispatch_mem(|at| at + 200);
        }
        let (instr, cycles) = c.finish();
        let ipc = instr as f64 / cycles as f64;
        assert!(ipc < 0.5, "100 long loads through rob=8 must be slow, ipc={ipc}");
    }

    #[test]
    fn instruction_count_is_exact() {
        let mut c = core(16, 2);
        c.dispatch_nonmem(123);
        c.dispatch_mem(|at| at + 1);
        c.dispatch_nonmem(1);
        assert_eq!(c.instructions(), 125);
    }

    #[test]
    fn finish_reflects_outstanding_completions() {
        let mut c = core(16, 2);
        c.dispatch_mem(|at| at + 10_000);
        let (_, cycles) = c.finish();
        assert!(cycles >= 10_000);
    }
}
