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
//! Retirement is in order: instruction `k + rob_size` reuses the ROB
//! entry of `k`, so it cannot dispatch before `k` completes (it is `k`'s
//! *waiter*). With the dispatch width clamped to `min(width, rob_size)` —
//! which changes nothing, as the window alone already limits dispatch to
//! `rob_size` per cycle — a waiter dispatches at least `slack = rob_size /
//! width` cycles after the instruction it waits on (88 cycles at the
//! default window, longer than an LLC hit). The ROB therefore keeps a
//! memory instruction only if it completes later than both `cycle + slack`
//! and every memory instruction before it; nothing else can ever hold
//! dispatch back. Take instruction `j`: when its waiter dispatches, every
//! memory instruction `i` up to `j` has completed. If `i` was kept, it was
//! waited for by its own waiter, which came no later; if not, it completed
//! within the slack of its waiter, or no later than an earlier memory
//! instruction, which has completed by the same argument. The ring so
//! holds strictly increasing completion cycles, at most `rob_size` of
//! them, oldest first. A batch of non-memory instructions is placed in
//! closed form up to each instruction that waits on one, so it costs O(1)
//! plus one step per such instruction it retires past — a trace header may
//! claim 2^48.
//!
//! A run of instructions none of which can be kept — L1D hits that
//! complete by [`Core::hit_horizon`] and the non-memory instructions
//! between them — is dispatched as one batch by [`Core::dispatch_run`].

use crate::config::CoreConfig;

/// The core model. Drive it by dispatching instructions in program order;
/// memory instructions receive their completion time from the hierarchy.
#[derive(Debug)]
pub struct Core {
    /// Ring of `rob_size` slots: the memory instructions that may still
    /// hold dispatch back, `len` of them from slot `head`, oldest (and so
    /// earliest to complete) first.
    /// Each is the number of the instruction `rob_size` younger, which
    /// reuses its ROB entry and so waits for it, and its completion cycle.
    mem: Box<[(u64, u64)]>,
    head: usize,
    len: usize,
    /// Dispatch width, clamped to `rob_size`.
    width: u32,
    /// `rob_size / width`: the instruction `rob_size` younger than one
    /// dispatched at cycle `c` dispatches at cycle `c + slack` or later.
    slack: u64,
    cycle: u64,
    dispatched_this_cycle: u32,
    instructions: u64,
    /// Latest completion cycle of any memory instruction.
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
            mem: vec![(0, 0); config.rob_size as usize].into_boxed_slice(),
            head: 0,
            len: 0,
            width: config.width.min(config.rob_size),
            slack: u64::from(config.rob_size / config.width.min(config.rob_size)),
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

    /// Dispatches the next instruction: waits for dispatch bandwidth and,
    /// if the instruction `rob_size` older is in the ring, for it to
    /// complete and free its ROB entry.
    #[inline]
    fn take_slot(&mut self) {
        if self.dispatched_this_cycle >= self.width {
            self.cycle += 1;
            self.dispatched_this_cycle = 0;
        }
        if self.len != 0 {
            let (waiter, done) = self.mem[self.head];
            if waiter == self.instructions {
                self.head = if self.head + 1 == self.mem.len() { 0 } else { self.head + 1 };
                self.len -= 1;
                if done > self.cycle {
                    self.cycle = done;
                    self.dispatched_this_cycle = 0;
                }
            }
        }
        self.dispatched_this_cycle += 1;
        self.instructions += 1;
    }

    /// Dispatches `n` instructions that wait on no memory instruction, at
    /// `width` per cycle. Most runs spill into the next cycle at most, so
    /// they skip the divide.
    #[inline]
    fn advance(&mut self, n: u64) {
        let (last, width) = (u64::from(self.dispatched_this_cycle) + n, u64::from(self.width));
        let spill = if last <= 2 * width { u64::from(last > width) } else { (last - 1) / width };
        self.cycle += spill;
        self.dispatched_this_cycle = (last - spill * width) as u32;
        self.instructions += n;
    }

    /// Dispatches `n` non-memory instructions (unit execution latency).
    #[inline]
    pub fn dispatch_nonmem(&mut self, mut n: u64) {
        while self.len != 0 {
            let run = self.mem[self.head].0 - self.instructions;
            if run >= n {
                break;
            }
            self.advance(run);
            self.take_slot();
            n -= run + 1;
        }
        self.advance(n);
    }

    /// Dispatches one memory instruction; `issue` receives the dispatch
    /// cycle and must return the completion cycle (from the hierarchy).
    #[inline]
    pub fn dispatch_mem<F: FnOnce(u64) -> u64>(&mut self, issue: F) {
        self.take_slot();
        let done = issue(self.cycle).max(self.cycle + 1);
        let horizon = (self.cycle + self.slack).max(self.max_completion);
        self.max_completion = self.max_completion.max(done);
        // Instruction `instructions - 1` takes the slot after the others
        // (at most `rob_size - 1` wait beyond it). It is written always but
        // kept only if it can hold its waiter back: a branch would
        // mispredict on miss-heavy traces.
        let mut tail = self.head + self.len;
        if tail >= self.mem.len() {
            tail -= self.mem.len();
        }
        self.mem[tail] = (self.instructions - 1 + self.mem.len() as u64, done);
        self.len += usize::from(done > horizon);
    }

    /// The latest cycle an L1D hit dispatched from now on, done `latency`
    /// cycles after its dispatch or when its line lands, may complete by
    /// and still never be kept; `None` if `latency` exceeds the slack.
    /// Later hits only see a later horizon: `cycle` and `max_completion`
    /// only grow.
    pub(crate) fn hit_horizon(&self, latency: u64) -> Option<u64> {
        (latency <= self.slack).then(|| (self.cycle + self.slack).max(self.max_completion))
    }

    /// Dispatches a run of `n` instructions that [`Core::dispatch_mem`]
    /// would never keep, exactly as `n` single dispatches would: non-memory
    /// ones, store hits, and load hits within a [`Core::hit_horizon`] taken
    /// before the run, each done `latency` after its dispatch or when its
    /// line lands, by `ready`. The `last_load`-th (0: none) is the last
    /// load, so only its completion and `ready` can raise `max_completion`;
    /// a store's (a cycle after its dispatch) never does.
    pub(crate) fn dispatch_run(&mut self, n: u64, last_load: u64, latency: u64, ready: u64) {
        if last_load > 0 {
            self.dispatch_nonmem(last_load);
            let done = (self.cycle + latency).max(ready);
            self.max_completion = self.max_completion.max(done);
        }
        self.dispatch_nonmem(n - last_load);
    }

    /// Finishes execution: returns (instructions, total cycles), draining
    /// the window; the last instruction completes after the current cycle.
    pub fn finish(self) -> (u64, u64) {
        (self.instructions, self.max_completion.max(self.cycle + 1))
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
    fn the_ring_keeps_only_strictly_later_completions() {
        // Four loads dispatch per cycle, all done 500 cycles later: only
        // the first of each cycle completes after every load before it.
        let mut c = core(352, 4);
        for _ in 0..100 {
            c.dispatch_mem(|at| at + 500);
        }
        assert_eq!(c.len, 25);
        assert_eq!(c.finish(), (100, 24 + 500));
    }

    #[test]
    fn finish_reflects_outstanding_completions() {
        let mut c = core(16, 2);
        c.dispatch_mem(|at| at + 10_000);
        let (_, cycles) = c.finish();
        assert!(cycles >= 10_000);
    }
}
