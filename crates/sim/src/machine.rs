//! The machine model: per-core private caches, per-chip victim L3s, a
//! coherence directory, the interconnect, DRAM homes and event counters.
//!
//! [`Machine::access`] is the single entry point used by the runtime: it
//! resolves where each touched line currently lives, charges the
//! corresponding latency, moves lines between caches the way the AMD
//! memory system of the paper would, and updates the per-core event
//! counters that CoreTime's monitoring reads.
//!
//! ## The fast path
//!
//! Nearly every simulated access hits the requesting core's L1, so that
//! case is a straight line: one probe of the flat L1 slab, one counter
//! bump, done — no directory, no interconnect, no outcome dispatch. Writes
//! take the same shortcut when the L1 way carries the *exclusivity hint*
//! (this core is known to be the line's only holder, MESI's E/M states):
//! a write to an exclusive line cannot need invalidations, so the
//! coherence directory is never consulted. The hint is set when a write
//! completes (the writer is sole holder by construction) or a DRAM fill
//! installs a line nobody else held, and cleared whenever another core
//! obtains a copy. Correctness never depends on the hint: a cleared hint
//! only sends the access down the slow path, and
//! `tests/memory_model.rs` pins the whole model bit-for-bit against the
//! pre-refactor implementation.
//!
//! ## The miss path
//!
//! Capacity workloads miss the L1 on most lines, so the miss path is where
//! the host time goes. It rests on one invariant, kept by this module and
//! checked by [`Machine::audit_coherence`]: **the directory is an exact
//! index of cache contents.**
//!
//! * A core's bit is set ⇔ the line is in that core's L2. `locate_and_fill`
//!   sets it with the fill; `fill_private` clears it when the L2 evicts the
//!   line; a write clears every bit but the writer's as it invalidates.
//! * A chip's bit is set ⇔ the line is in that chip's L3. `fill_private`
//!   sets it when an L2 victim spills there and clears it for the L3's own
//!   victim; `locate_and_fill` clears it when an L3 hit pulls the line back
//!   into a private cache; a write clears every other chip's.
//! * The L1 is a subset of the L2, an exclusivity hint implies a sole
//!   holder, and an entry is removed with the last copy of its line.
//!
//! So a miss scans only what it must. After the L2 probe misses, one
//! directory look-up returns the line's holders and is left describing
//! where the line is about to be: the chip bit decides the L3 hit (no scan
//! of the 32-way set), the same holders pick the nearest remote copy, and
//! no second look-up records the fill. Every fill goes into a cache that
//! has just been seen not to hold the line, so it uses
//! [`Cache::insert_absent`] — no presence scan — except the spill of a
//! victim that a same-chip peer spilled first, which the victim's entry
//! says is already in the L3. Each place that trusts the directory
//! `debug_assert`s what it trusted.

use crate::cache::{Cache, LineAddr, Probe};
use crate::config::MachineConfig;
use crate::counters::{CoreCounters, MachineCounters, MemStats};
use crate::directory::{FlatDirectory, LineHolders};
use crate::interconnect::{Interconnect, InterconnectStats, MessageKind};
use crate::latency::{AccessOutcome, LatencyModel};
use crate::memory::{Addr, SimMemory};

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (invalidates other copies).
    Write,
}

/// Per-core state used to detect sequential streams (models hardware
/// prefetching / memory-level parallelism for DRAM and remote transfers).
#[derive(Debug, Clone, Copy, Default)]
struct StreamState {
    last_line: Option<LineAddr>,
    /// True when the previous line also came from DRAM or a remote cache.
    last_was_far: bool,
}

/// The simulated multicore machine.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    lat: LatencyModel,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Vec<Cache>,
    directory: FlatDirectory,
    interconnect: Interconnect,
    memory: SimMemory,
    counters: Vec<CoreCounters>,
    streams: Vec<StreamState>,
    /// Virtual-time hint used only for interconnect contention accounting.
    now_hint: u64,
    /// Accesses resolved entirely by the L1 fast path.
    l1_short_circuits: u64,
    /// Lines evicted from any cache (L1 drops, L2 spills, L3 victims).
    evictions: u64,
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`], which
    /// also bounds the machine's shape (the coherence directory keeps
    /// holders in bitmasks).
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate().expect("invalid machine configuration");
        let cores = cfg.total_cores() as usize;
        let chips = cfg.chips as usize;
        let l1 = (0..cores)
            .map(|_| Cache::new(cfg.l1, cfg.line_size))
            .collect();
        let l2 = (0..cores)
            .map(|_| Cache::new(cfg.l2, cfg.line_size))
            .collect();
        let l3 = (0..chips)
            .map(|_| Cache::new(cfg.l3, cfg.line_size))
            .collect();
        let interconnect = Interconnect::new(cfg.chips, cfg.contention);
        let memory = SimMemory::new(cfg.chips, cfg.line_size);
        Self {
            lat: LatencyModel::new(cfg.latency),
            l1,
            l2,
            l3,
            directory: FlatDirectory::default(),
            interconnect,
            memory,
            counters: vec![CoreCounters::default(); cores],
            streams: vec![StreamState::default(); cores],
            cfg,
            now_hint: 0,
            l1_short_circuits: 0,
            evictions: 0,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.lat
    }

    /// Mutable access to the simulated memory allocator.
    pub fn memory_mut(&mut self) -> &mut SimMemory {
        &mut self.memory
    }

    /// Read-only access to the simulated memory allocator.
    pub fn memory(&self) -> &SimMemory {
        &self.memory
    }

    /// Interconnect statistics so far.
    pub fn interconnect_stats(&self) -> InterconnectStats {
        self.interconnect.stats()
    }

    /// Memory-system totals: directory pressure, fast-path hits, evictions.
    pub fn mem_stats(&self) -> MemStats {
        MemStats {
            directory_probes: self.directory.probes(),
            directory_entries: self.directory.len() as u64,
            directory_capacity: self.directory.capacity() as u64,
            l1_short_circuits: self.l1_short_circuits,
            evictions: self.evictions,
        }
    }

    /// Event counters of one core.
    pub fn counters(&self, core: u32) -> &CoreCounters {
        &self.counters[core as usize]
    }

    /// Mutable event counters of one core (the runtime uses this to account
    /// compute cycles, idle cycles, migrations and completed operations).
    pub fn counters_mut(&mut self, core: u32) -> &mut CoreCounters {
        &mut self.counters[core as usize]
    }

    /// Snapshot of every core's counters.
    pub fn snapshot_counters(&self) -> MachineCounters {
        MachineCounters {
            cores: self.counters.clone(),
        }
    }

    /// Resets all event counters and interconnect statistics (cache contents
    /// are preserved, so a measurement window can follow a warm-up window).
    pub fn reset_counters(&mut self) {
        for c in &mut self.counters {
            c.reset();
        }
        self.interconnect.reset_stats();
    }

    /// Updates the virtual-time hint used for interconnect contention
    /// accounting. The runtime calls this with the acting core's clock.
    pub fn set_time_hint(&mut self, now: u64) {
        self.now_hint = now;
    }

    /// The line address containing a byte address.
    pub fn line_of(&self, addr: Addr) -> LineAddr {
        addr / self.cfg.line_size
    }

    /// Performs a memory access of `len` bytes starting at `addr` on behalf
    /// of `core`, returning the total cost in cycles. The cost is also added
    /// to the core's `busy_cycles` counter. Addresses come from
    /// [`SimMemory`]'s allocator, which keeps line addresses within
    /// [`SimMemory::LINE_ADDR_BITS`]; nothing here checks again.
    pub fn access(&mut self, core: u32, addr: Addr, len: u64, kind: AccessKind) -> u64 {
        let len = len.max(1);
        let first = self.line_of(addr);
        let last = self.line_of(addr + len - 1);
        // Per-access setup, hoisted out of the per-line loop: the chip
        // lookup, the L1 hit cost, and a local accumulator for the hit
        // counters so the fast loop touches no per-core state but the
        // stream slot.
        let chip = self.cfg.chip_of(core);
        let c = core as usize;
        let l1_hit_cost = self.lat.config().l1_hit;
        let mut total = 0;
        let mut fast_hits = 0u64;
        // Fast hits only need the *final* stream state written back; a run
        // of hits is collapsed into one store, flushed before any slow-path
        // line (whose stream detection reads the state of its predecessor).
        let mut pending_stream: Option<LineAddr> = None;
        for line in first..=last {
            if kind == AccessKind::Read {
                if self.l1[c].probe_and_touch(line) == Probe::Hit {
                    pending_stream = Some(line);
                    fast_hits += 1;
                    total += l1_hit_cost;
                } else {
                    if let Some(prev) = pending_stream.take() {
                        self.streams[c] = StreamState {
                            last_line: Some(prev),
                            last_was_far: false,
                        };
                    }
                    // The L1 probe above already missed — enter the slow
                    // path directly rather than re-scanning the set.
                    let (cost, _) = self.access_line_slow(core, chip, line, kind);
                    total += cost;
                }
            } else {
                let (cost, _) = self.access_line_at(core, chip, line, kind);
                total += cost;
            }
        }
        if let Some(prev) = pending_stream {
            self.streams[c] = StreamState {
                last_line: Some(prev),
                last_was_far: false,
            };
        }
        if fast_hits > 0 {
            let ctr = &mut self.counters[c];
            ctr.l1_hits += fast_hits;
            ctr.busy_cycles += fast_hits * l1_hit_cost;
            self.l1_short_circuits += fast_hits;
        }
        total
    }

    /// Performs a single-line access and returns its cost and outcome.
    pub fn access_line(
        &mut self,
        core: u32,
        line: LineAddr,
        kind: AccessKind,
    ) -> (u64, AccessOutcome) {
        let chip = self.cfg.chip_of(core);
        self.access_line_at(core, chip, line, kind)
    }

    /// `access_line` with the core→chip lookup hoisted out (the multi-line
    /// `access` loop computes it once).
    fn access_line_at(
        &mut self,
        core: u32,
        chip: u32,
        line: LineAddr,
        kind: AccessKind,
    ) -> (u64, AccessOutcome) {
        let c = core as usize;

        // ---- L1-hit short-circuit --------------------------------------
        // A read hitting the local L1 touches nothing but the L1 and the
        // core's own counters; a write additionally requires the
        // exclusivity hint (sole holder ⇒ no invalidations possible), and
        // must mirror the dirty bit into the inclusive L2.
        match kind {
            AccessKind::Read => {
                if self.l1[c].probe_and_touch(line) == Probe::Hit {
                    return self.finish_l1_fast_path(c, line);
                }
            }
            AccessKind::Write => {
                if let Some(excl) = self.l1[c].touch_write(line) {
                    if excl {
                        // `peek` rather than `get`: the diagnostic must not
                        // skew the probe counter debug-vs-release.
                        debug_assert!(
                            self.directory
                                .peek(line)
                                .unwrap_or_default()
                                .sole_holder(core, chip),
                            "stale exclusivity hint on line {line:#x}"
                        );
                        self.l2[c].mark_dirty(line);
                        return self.finish_l1_fast_path(c, line);
                    }
                    // Resident but possibly shared: the write continues on
                    // the slow path below (directory consultation), with
                    // the probe/touch/dirty work already done.
                    let cost = self.finish_write_hit(core, chip, c, line);
                    return (cost, AccessOutcome::L1Hit);
                }
            }
        }

        self.access_line_slow(core, chip, line, kind)
    }

    /// The miss path: the caller has already probed the requesting core's
    /// L1 (and, for writes, set the dirty bit on a hit) — the line is NOT
    /// in its L1.
    fn access_line_slow(
        &mut self,
        core: u32,
        chip: u32,
        line: LineAddr,
        kind: AccessKind,
    ) -> (u64, AccessOutcome) {
        let c = core as usize;
        let streamed_hint = self.is_streamed(core, line);
        let outcome = self.locate_and_fill(core, chip, line);
        let mut cost = self.lat.cost(outcome);
        // Sequential scans that spill past the private caches are largely
        // hidden by the prefetcher, including when they hit in the L3.
        if outcome == AccessOutcome::L3Hit && streamed_hint {
            cost = cost.min(self.lat.config().l3_streamed);
        }

        // Record hit/miss counters.
        {
            let ctr = &mut self.counters[c];
            match outcome {
                AccessOutcome::L1Hit => ctr.l1_hits += 1,
                AccessOutcome::L2Hit => {
                    ctr.l1_misses += 1;
                    ctr.l2_hits += 1;
                }
                AccessOutcome::L3Hit => {
                    ctr.l1_misses += 1;
                    ctr.l2_misses += 1;
                    ctr.l3_hits += 1;
                }
                AccessOutcome::RemoteCache { .. } => {
                    ctr.l1_misses += 1;
                    ctr.l2_misses += 1;
                    ctr.l3_misses += 1;
                    ctr.remote_cache_loads += 1;
                }
                AccessOutcome::Dram { .. } => {
                    ctr.l1_misses += 1;
                    ctr.l2_misses += 1;
                    ctr.l3_misses += 1;
                    ctr.dram_loads += 1;
                }
            }
        }

        // Interconnect accounting for off-chip traffic.
        match outcome {
            AccessOutcome::RemoteCache { hops, .. } if hops > 0 => {
                let to = self.remote_chip_hint(chip, hops);
                let penalty = self.interconnect.send(
                    MessageKind::LineTransfer,
                    chip,
                    to,
                    self.now_hint,
                    cost,
                );
                cost += penalty;
                self.counters[c].interconnect_messages += 1;
            }
            AccessOutcome::Dram { hops, .. } if hops > 0 => {
                let to = self.remote_chip_hint(chip, hops);
                let penalty =
                    self.interconnect
                        .send(MessageKind::DramFill, chip, to, self.now_hint, cost);
                cost += penalty;
                self.counters[c].interconnect_messages += 1;
            }
            _ => {}
        }

        // Writes invalidate every other copy.
        if kind == AccessKind::Write {
            cost += self.invalidate_other_copies(core, chip, line);
            self.l1[c].mark_dirty(line);
            self.l2[c].mark_dirty(line);
            // The writer is the sole holder now.
            self.l1[c].set_excl(line);
        }

        // Update the stream detector: anything that left the private caches
        // continues (or starts) a prefetchable stream.
        let far = outcome.is_private_miss();
        self.streams[c] = StreamState {
            last_line: Some(line),
            last_was_far: far,
        };

        self.counters[c].busy_cycles += cost;
        (cost, outcome)
    }

    /// Shared tail of the L1 fast path: counters, stream state, bookkeeping.
    #[inline]
    fn finish_l1_fast_path(&mut self, c: usize, line: LineAddr) -> (u64, AccessOutcome) {
        let cost = self.lat.config().l1_hit;
        let ctr = &mut self.counters[c];
        ctr.l1_hits += 1;
        ctr.busy_cycles += cost;
        self.streams[c] = StreamState {
            last_line: Some(line),
            last_was_far: false,
        };
        self.l1_short_circuits += 1;
        (cost, AccessOutcome::L1Hit)
    }

    /// Slow tail of a write that hit the L1 without the exclusivity hint:
    /// consult the directory, invalidate remote copies, become exclusive.
    fn finish_write_hit(&mut self, core: u32, chip: u32, c: usize, line: LineAddr) -> u64 {
        let mut cost = self.lat.config().l1_hit;
        cost += self.invalidate_other_copies(core, chip, line);
        self.l2[c].mark_dirty(line);
        self.l1[c].set_excl(line);
        self.streams[c] = StreamState {
            last_line: Some(line),
            last_was_far: false,
        };
        let ctr = &mut self.counters[c];
        ctr.l1_hits += 1;
        ctr.busy_cycles += cost;
        cost
    }

    /// Whether a line is resident in a core's private caches.
    pub fn in_private_cache(&self, core: u32, line: LineAddr) -> bool {
        self.l1[core as usize].contains(line) || self.l2[core as usize].contains(line)
    }

    /// Whether a line is resident in a chip's L3.
    pub fn in_l3(&self, chip: u32, line: LineAddr) -> bool {
        self.l3[chip as usize].contains(line)
    }

    /// Lines resident in a core's L1.
    pub fn l1_lines(&self, core: u32) -> Vec<LineAddr> {
        self.l1[core as usize].lines().collect()
    }

    /// Lines resident in a core's L2.
    pub fn l2_lines(&self, core: u32) -> Vec<LineAddr> {
        self.l2[core as usize].lines().collect()
    }

    /// Lines resident in a chip's L3.
    pub fn l3_lines(&self, chip: u32) -> Vec<LineAddr> {
        self.l3[chip as usize].lines().collect()
    }

    /// Occupancy (0.0–1.0) of a core's L2.
    pub fn l2_occupancy(&self, core: u32) -> f64 {
        self.l2[core as usize].occupancy()
    }

    /// Occupancy (0.0–1.0) of a chip's L3.
    pub fn l3_occupancy(&self, chip: u32) -> f64 {
        self.l3[chip as usize].occupancy()
    }

    /// Flushes every cache (counters are preserved).
    pub fn flush_all_caches(&mut self) {
        for c in &mut self.l1 {
            c.flush();
        }
        for c in &mut self.l2 {
            c.flush();
        }
        for c in &mut self.l3 {
            c.flush();
        }
        self.directory.clear();
        for s in &mut self.streams {
            *s = StreamState::default();
        }
    }

    /// Checks the invariant the miss path relies on — the directory is an
    /// exact index of cache contents — by walking every cache slab against
    /// it, and returns the first violation found:
    ///
    /// * a core's bit is set ⇔ the line is in that core's L2;
    /// * a chip's bit is set ⇔ the line is in that chip's L3;
    /// * every L1 line is in the same core's L2;
    /// * an L1 exclusivity hint ⇒ that core is the line's sole holder;
    /// * no directory entry is empty (the miss path removes an entry with
    ///   the last copy of its line), so the directory tracks no more lines
    ///   than there are L2 and L3 ways, and its table is at most half full.
    ///
    /// O(cache capacity); for tests, not for the run loop. Counts nothing.
    pub fn audit_coherence(&self) -> Result<(), String> {
        let (entries, capacity) = (self.directory.len(), self.directory.capacity());
        let ways: usize = self
            .l2
            .iter()
            .chain(&self.l3)
            .map(Cache::capacity_lines)
            .sum();
        if entries > ways || 2 * entries > capacity {
            return Err(format!(
                "the directory tracks {entries} lines in {capacity} slots, \
                 over {ways} L2 and L3 ways"
            ));
        }
        // Directory → caches: each entry's masks are exactly the caches
        // that hold its line.
        for (line, h) in self.directory.iter() {
            let holders = |caches: &[Cache]| {
                (0..caches.len())
                    .filter(|&i| caches[i].contains(line))
                    .fold(0u64, |mask, i| mask | 1 << i)
            };
            let (in_l2, in_l3) = (holders(&self.l2), holders(&self.l3));
            if h.is_empty() || h.cores != in_l2 || u64::from(h.chips) != in_l3 {
                return Err(format!(
                    "line {line:#x}: directory entry {h:?}, but it is in the L2s of \
                     cores {in_l2:#b} and the L3s of chips {in_l3:#b}"
                ));
            }
        }
        // Caches → directory: no cached line goes untracked.
        let untracked = |cache: &Cache| cache.lines().find(|&l| self.directory.peek(l).is_none());
        for (what, caches) in [("L2", &self.l2), ("L3", &self.l3)] {
            for (i, cache) in caches.iter().enumerate() {
                if let Some(line) = untracked(cache) {
                    return Err(format!(
                        "line {line:#x} is in {what} {i} but has no directory entry"
                    ));
                }
            }
        }
        for core in 0..self.cfg.total_cores() {
            let (l1, l2) = (&self.l1[core as usize], &self.l2[core as usize]);
            if let Some(line) = l1.lines().find(|&line| !l2.contains(line)) {
                return Err(format!(
                    "line {line:#x} is in core {core}'s L1 but not in its L2"
                ));
            }
            let chip = self.cfg.chip_of(core);
            for line in l1.excl_lines() {
                let h = self.directory.peek(line).unwrap_or_default();
                if !h.sole_holder(core, chip) {
                    return Err(format!(
                        "core {core}'s L1 holds line {line:#x} exclusive but its directory entry is {h:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Hop distance between the chips of two cores.
    pub fn hops_between_cores(&self, a: u32, b: u32) -> u32 {
        self.interconnect
            .hops(self.cfg.chip_of(a), self.cfg.chip_of(b))
    }

    /// Records a thread-migration transfer on the interconnect and returns
    /// the wire cost (zero for same-chip migrations beyond the fixed costs
    /// charged by the runtime).
    pub fn migration_transfer(&mut self, from_core: u32, to_core: u32) -> u64 {
        let from_chip = self.cfg.chip_of(from_core);
        let to_chip = self.cfg.chip_of(to_core);
        let hops = self.interconnect.hops(from_chip, to_chip);
        let base = u64::from(hops) * self.lat.config().remote_cache_one_hop / 2;
        let penalty = self.interconnect.send(
            MessageKind::Migration,
            from_chip,
            to_chip,
            self.now_hint,
            base.max(1),
        );
        base + penalty
    }

    /// Like [`Machine::migration_transfer`], but over a possibly degraded
    /// interconnect: returns `None` when the context message is lost in
    /// transit (the sender must retry), `Some(wire_cost)` otherwise. On a
    /// healthy link this is exactly `migration_transfer` — no draws.
    pub fn try_migration_transfer(&mut self, from_core: u32, to_core: u32) -> Option<u64> {
        if self.interconnect.lose_migration() {
            // The lost message still occupied the wire: account it.
            let from_chip = self.cfg.chip_of(from_core);
            let to_chip = self.cfg.chip_of(to_core);
            let hops = self.interconnect.hops(from_chip, to_chip);
            let base = u64::from(hops) * self.lat.config().remote_cache_one_hop / 2;
            self.interconnect.send(
                MessageKind::Migration,
                from_chip,
                to_chip,
                self.now_hint,
                base.max(1),
            );
            return None;
        }
        Some(self.migration_transfer(from_core, to_core))
    }

    /// Installs (or clears) fault-injected interconnect degradation; the
    /// seed feeds the deterministic migration-loss draws.
    pub fn set_interconnect_degradation(
        &mut self,
        degradation: Option<crate::fault::LinkDegradation>,
        seed: u64,
    ) {
        self.interconnect.set_degradation(degradation, seed);
    }

    // ---- internal helpers -------------------------------------------------

    /// Picks an arbitrary chip at the given hop distance (used only to
    /// attribute interconnect traffic; latency already reflects the hops).
    fn remote_chip_hint(&self, from_chip: u32, hops: u32) -> u32 {
        if hops == 0 {
            return from_chip;
        }
        for chip in 0..self.cfg.chips {
            if self.interconnect.hops(from_chip, chip) == hops {
                return chip;
            }
        }
        (from_chip + 1) % self.cfg.chips
    }

    /// Finds where a line lives, moves it into the requesting core's private
    /// caches, and returns the access outcome. Precondition: the line is not
    /// in the requesting core's L1 (every caller has already probed it), so
    /// the search starts at the L2.
    fn locate_and_fill(&mut self, core: u32, chip: u32, line: LineAddr) -> AccessOutcome {
        let c = core as usize;
        let core_bit = 1u64 << core;
        let chip_bit = 1u16 << chip;

        if self.l2[c].probe_and_touch(line) == Probe::Hit {
            // Refill L1 (inclusive in L2): L1 victims are simply dropped.
            if self.l1[c].insert_absent(line, false).is_some() {
                self.evictions += 1;
            }
            return AccessOutcome::L2Hit;
        }

        // The directory is an exact index of every L2 and L3 (see the
        // module docs), so one look-up serves the whole miss: it says where
        // the line is, and it is left saying where the line is about to be
        // — in this core's private caches and out of this chip's L3.
        let holders = self.directory.update(line, |h| LineHolders {
            cores: h.cores | core_bit,
            chips: h.chips & !chip_bit,
        });
        debug_assert!(
            holders.cores & core_bit == 0,
            "line {line:#x} missed core {core}'s L2 but holds its directory bit"
        );
        debug_assert_eq!(
            holders.chips & chip_bit != 0,
            self.l3[chip as usize].contains(line),
            "directory and chip {chip}'s L3 disagree on line {line:#x}"
        );

        let (outcome, dirty) = if holders.chips & chip_bit != 0 {
            // The chip-local L3 is a victim cache: on a hit the line moves
            // into the requester's private caches and leaves the L3.
            let dirty = self.l3[chip as usize].invalidate(line).unwrap_or(false);
            (AccessOutcome::L3Hit, dirty)
        } else {
            // Not on this chip: the nearest remote copy, else DRAM. A read
            // leaves remote copies where they are.
            let streamed = self.is_streamed(core, line);
            let outcome = match self.nearest_remote_holder(core, chip, holders) {
                Some(holder_chip) => AccessOutcome::RemoteCache {
                    hops: self.interconnect.hops(chip, holder_chip),
                    streamed,
                },
                None => AccessOutcome::Dram {
                    hops: self
                        .interconnect
                        .hops(chip, self.memory.home_chip_of_line(line)),
                    streamed,
                },
            };
            (outcome, false)
        };
        // Every other private holder now shares the line; if there is no
        // other holder at all (a fresh DRAM fill, or the chip's own victim
        // coming back) the requester starts exclusive, so a following
        // write skips the directory. A hint means a sole holder, so only
        // a line with exactly one other holder can carry one.
        if holders.cores.is_power_of_two() {
            self.l1[holders.cores.trailing_zeros() as usize].clear_excl(line);
        }
        self.fill_private(core, chip, line, dirty);
        if holders.cores == 0 && holders.chips & !chip_bit == 0 {
            self.l1[c].set_excl(line);
        }
        outcome
    }

    /// Whether the access to `line` continues a sequential far stream.
    fn is_streamed(&self, core: u32, line: LineAddr) -> bool {
        let s = &self.streams[core as usize];
        s.last_was_far && s.last_line == Some(line.wrapping_sub(1))
    }

    /// Finds the chip of the closest cache (private or L3) holding the line,
    /// excluding the requesting core's own private caches.
    fn nearest_remote_holder(&self, core: u32, chip: u32, holders: LineHolders) -> Option<u32> {
        let mut best: Option<(u32, u32)> = None; // (hops, chip)
        let mut cores = holders.cores & !(1u64 << core);
        while cores != 0 {
            let other = cores.trailing_zeros();
            cores &= cores - 1;
            let oc = self.cfg.chip_of(other);
            let hops = self.interconnect.hops(chip, oc);
            if best.map_or(true, |(h, _)| hops < h) {
                best = Some((hops, oc));
            }
        }
        let mut chips = holders.chips & !(1u16 << chip);
        while chips != 0 {
            let other_chip = chips.trailing_zeros();
            chips &= chips - 1;
            let hops = self.interconnect.hops(chip, other_chip);
            if best.map_or(true, |(h, _)| hops < h) {
                best = Some((hops, other_chip));
            }
        }
        best.map(|(_, c)| c)
    }

    /// Installs a line into a core's L1 and L2, spilling L2 victims into the
    /// chip's L3 (victim cache) and keeping the directory in sync.
    /// Precondition: the line is in neither cache, and `locate_and_fill` has
    /// already set the core's bit in the line's directory entry.
    fn fill_private(&mut self, core: u32, chip: u32, line: LineAddr, dirty: bool) {
        let c = core as usize;
        let core_bit = 1u64 << core;
        let chip_bit = 1u16 << chip;
        if let Some(victim) = self.l2[c].insert_absent(line, dirty) {
            self.evictions += 1;
            // Maintain L1 inclusivity in L2.
            self.l1[c].invalidate(victim.line);
            // The victim leaves this core and enters the chip's L3; its
            // entry says whether a same-chip peer spilled it there first.
            let h = self.directory.update(victim.line, |h| LineHolders {
                cores: h.cores & !core_bit,
                chips: h.chips | chip_bit,
            });
            debug_assert!(
                h.cores & core_bit != 0,
                "L2 victim {:#x} of core {core} lacks its directory bit",
                victim.line
            );
            let in_l3 = h.chips & chip_bit != 0;
            let l3 = &mut self.l3[chip as usize];
            debug_assert_eq!(in_l3, l3.contains(victim.line));
            let l3_victim = if in_l3 {
                l3.insert(victim.line, victim.dirty)
            } else {
                l3.insert_absent(victim.line, victim.dirty)
            };
            if let Some(l3_victim) = l3_victim {
                self.evictions += 1;
                // The entry goes with the line's last copy.
                let h = self.directory.update(l3_victim.line, |h| LineHolders {
                    chips: h.chips & !chip_bit,
                    ..h
                });
                debug_assert!(
                    h.chips & chip_bit != 0,
                    "L3 victim {:#x} of chip {chip} lacks its directory bit",
                    l3_victim.line
                );
            }
        }
        if self.l1[c].insert_absent(line, dirty).is_some() {
            self.evictions += 1;
        }
    }

    /// Invalidates every copy of `line` outside `core`'s private caches and
    /// returns the extra cycles charged to the writer.
    fn invalidate_other_copies(&mut self, core: u32, chip: u32, line: LineAddr) -> u64 {
        let core_bit = 1u64 << core;
        let chip_bit = 1u16 << chip;
        // The writer holds the line (every caller has just hit or filled its
        // private caches), so it ends up the only private holder, beside at
        // most a victim copy in its own chip's L3 — which for a sole holder
        // is what the entry says already.
        let holders = self.directory.update(line, |h| LineHolders {
            cores: core_bit,
            chips: h.chips & chip_bit,
        });
        debug_assert!(
            holders.cores & core_bit != 0,
            "writer {core} of line {line:#x} lacks its directory bit"
        );
        // Sole holder (modulo a victim copy in the writer's own L3): the
        // loops below would find nothing — skip them without touching the
        // other cores' caches at all.
        if holders.sole_holder(core, chip) {
            return 0;
        }
        let mut invalidated = 0u64;
        let mut cores = holders.cores & !core_bit;
        while cores != 0 {
            let o = cores.trailing_zeros() as usize;
            cores &= cores - 1;
            self.l1[o].invalidate(line);
            self.l2[o].invalidate(line);
            self.counters[o].invalidations_received += 1;
            invalidated += 1;
        }
        let mut chips = holders.chips & !chip_bit;
        while chips != 0 {
            let oc = chips.trailing_zeros() as usize;
            chips &= chips - 1;
            self.l3[oc].invalidate(line);
            invalidated += 1;
        }
        if invalidated > 0 {
            self.counters[core as usize].invalidations_sent += invalidated;
            // One broadcast locates and invalidates all copies.
            let penalty = self.interconnect.send(
                MessageKind::CoherenceBroadcast,
                chip,
                (chip + 1) % self.cfg.chips.max(1),
                self.now_hint,
                self.lat.invalidation_cost(invalidated),
            );
            self.counters[core as usize].interconnect_messages += 1;
            self.lat.invalidation_cost(invalidated) + penalty
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        let mut cfg = MachineConfig::amd16();
        cfg.contention = crate::config::ContentionModel::None;
        Machine::new(cfg)
    }

    #[test]
    fn first_access_misses_to_dram_then_hits_in_l1() {
        let mut m = machine();
        let r = m.memory_mut().alloc(64, 0);
        let (cost1, out1) = m.access_line(0, m.line_of(r.addr), AccessKind::Read);
        assert!(out1.is_dram());
        assert!(cost1 >= 120);
        let (cost2, out2) = m.access_line(0, m.line_of(r.addr), AccessKind::Read);
        assert_eq!(out2, AccessOutcome::L1Hit);
        assert_eq!(cost2, 3);
        assert_eq!(m.counters(0).dram_loads, 1);
        assert_eq!(m.counters(0).l1_hits, 1);
    }

    #[test]
    fn remote_cache_fetch_is_cheaper_than_dram_but_more_than_l3() {
        let mut m = machine();
        let r = m.memory_mut().alloc(64, 0);
        let line = m.line_of(r.addr);
        // Core 0 (chip 0) loads the line from DRAM.
        m.access_line(0, line, AccessKind::Read);
        // Core 4 (chip 1) should now find it in core 0's cache.
        let (cost, out) = m.access_line(4, line, AccessKind::Read);
        match out {
            AccessOutcome::RemoteCache { hops, .. } => assert!(hops >= 1),
            other => panic!("expected remote cache hit, got {other:?}"),
        }
        assert!(cost > 75 && cost <= 336);
        assert_eq!(m.counters(4).remote_cache_loads, 1);
    }

    #[test]
    fn same_chip_sibling_hit_costs_127() {
        let mut m = machine();
        let r = m.memory_mut().alloc(64, 0);
        let line = m.line_of(r.addr);
        m.access_line(0, line, AccessKind::Read);
        // Core 1 is on the same chip as core 0.
        let (cost, out) = m.access_line(1, line, AccessKind::Read);
        assert_eq!(
            out,
            AccessOutcome::RemoteCache {
                hops: 0,
                streamed: false
            }
        );
        assert_eq!(cost, 127);
    }

    #[test]
    fn write_invalidates_other_copies() {
        let mut m = machine();
        let r = m.memory_mut().alloc(64, 0);
        let line = m.line_of(r.addr);
        m.access_line(0, line, AccessKind::Read);
        m.access_line(1, line, AccessKind::Read);
        assert!(m.in_private_cache(0, line));
        assert!(m.in_private_cache(1, line));
        // Core 1 writes: core 0's copy must disappear.
        m.access_line(1, line, AccessKind::Write);
        assert!(!m.in_private_cache(0, line));
        assert!(m.in_private_cache(1, line));
        assert!(m.counters(1).invalidations_sent >= 1);
        assert!(m.counters(0).invalidations_received >= 1);
        // Core 0 reads again: it must fetch the line remotely, not hit.
        let (_, out) = m.access_line(0, line, AccessKind::Read);
        assert!(out.is_private_miss());
    }

    #[test]
    fn l2_victims_spill_into_l3_and_hit_there() {
        let mut cfg = MachineConfig::amd16();
        cfg.contention = crate::config::ContentionModel::None;
        // Shrink the private caches so eviction happens quickly.
        cfg.l1 = crate::config::CacheGeometry::new(2 * 64, 1);
        cfg.l2 = crate::config::CacheGeometry::new(4 * 64, 1);
        cfg.l3 = crate::config::CacheGeometry::new(64 * 64, 16);
        let mut m = Machine::new(cfg);
        let r = m.memory_mut().alloc(64 * 64, 0);
        // Touch 32 distinct lines: far more than L2 holds.
        for i in 0..32 {
            m.access_line(0, m.line_of(r.addr) + i, AccessKind::Read);
        }
        // Re-touch the first line: it should have been evicted from L2 into
        // the chip's L3 (victim cache) and hit there.
        let (cost, out) = m.access_line(0, m.line_of(r.addr), AccessKind::Read);
        assert_eq!(out, AccessOutcome::L3Hit);
        assert_eq!(cost, 75);
        assert_eq!(m.counters(0).l3_hits, 1);
    }

    #[test]
    fn streaming_dram_reads_get_the_prefetch_discount() {
        let mut m = machine();
        let r = m.memory_mut().alloc(64 * 100, 0);
        let first = m.line_of(r.addr);
        let (c0, o0) = m.access_line(0, first, AccessKind::Read);
        assert!(o0.is_dram());
        let (c1, o1) = m.access_line(0, first + 1, AccessKind::Read);
        match o1 {
            AccessOutcome::Dram { streamed, .. } => assert!(streamed),
            other => panic!("expected DRAM, got {other:?}"),
        }
        assert!(c1 < c0, "streamed access must be cheaper ({c1} !< {c0})");
    }

    #[test]
    fn multi_line_access_charges_each_line() {
        let mut m = machine();
        let r = m.memory_mut().alloc(64 * 8, 0);
        let cost = m.access(0, r.addr, 8 * 64, AccessKind::Read);
        // 8 lines: first is a cold DRAM miss, the rest are streamed.
        assert!(cost >= 230 + 7 * 120);
        assert_eq!(m.counters(0).dram_loads, 8);
        // A second pass hits in L1.
        let cost2 = m.access(0, r.addr, 8 * 64, AccessKind::Read);
        assert_eq!(cost2, 8 * 3);
    }

    #[test]
    fn busy_cycles_accumulate_access_costs() {
        let mut m = machine();
        let r = m.memory_mut().alloc(64, 0);
        let cost = m.access(3, r.addr, 64, AccessKind::Read);
        assert_eq!(m.counters(3).busy_cycles, cost);
    }

    #[test]
    fn flush_clears_all_caches() {
        let mut m = machine();
        let r = m.memory_mut().alloc(4096, 0);
        m.access(0, r.addr, 4096, AccessKind::Read);
        m.flush_all_caches();
        let (_, out) = m.access_line(0, m.line_of(r.addr), AccessKind::Read);
        assert!(out.is_dram());
    }

    #[test]
    fn reset_counters_keeps_cache_contents() {
        let mut m = machine();
        let r = m.memory_mut().alloc(64, 0);
        m.access(0, r.addr, 64, AccessKind::Read);
        m.reset_counters();
        assert_eq!(m.counters(0).dram_loads, 0);
        let (_, out) = m.access_line(0, m.line_of(r.addr), AccessKind::Read);
        assert_eq!(out, AccessOutcome::L1Hit);
    }

    #[test]
    fn migration_transfer_is_free_on_chip_and_charged_across_chips() {
        let mut m = machine();
        assert_eq!(m.migration_transfer(0, 1), 0);
        assert!(m.migration_transfer(0, 15) > 0);
        assert!(m.interconnect_stats().migrations >= 2);
    }

    #[test]
    fn hops_between_cores_uses_chip_topology() {
        let m = machine();
        assert_eq!(m.hops_between_cores(0, 3), 0);
        assert_eq!(m.hops_between_cores(0, 4), 1);
        assert_eq!(m.hops_between_cores(0, 12), 2);
    }

    #[test]
    fn snapshot_counters_covers_every_core() {
        let m = machine();
        let snap = m.snapshot_counters();
        assert_eq!(snap.num_cores(), 16);
    }

    #[test]
    fn repeat_writes_to_private_line_take_the_short_circuit() {
        let mut m = machine();
        let r = m.memory_mut().alloc(64, 0);
        let line = m.line_of(r.addr);
        // Fill from DRAM (nobody else holds it → exclusive on arrival),
        // then write it repeatedly.
        m.access_line(0, line, AccessKind::Read);
        let before = m.mem_stats().l1_short_circuits;
        for _ in 0..10 {
            let (cost, out) = m.access_line(0, line, AccessKind::Write);
            assert_eq!(out, AccessOutcome::L1Hit);
            assert_eq!(cost, 3);
        }
        assert_eq!(m.mem_stats().l1_short_circuits, before + 10);
        // The dirty bit reached the L2 so a later spill writes back.
        assert_eq!(m.counters(0).invalidations_sent, 0);
    }

    #[test]
    fn shared_line_write_does_not_short_circuit() {
        let mut m = machine();
        let r = m.memory_mut().alloc(64, 0);
        let line = m.line_of(r.addr);
        m.access_line(0, line, AccessKind::Read);
        m.access_line(1, line, AccessKind::Read);
        // Core 0's copy is no longer exclusive: the write must invalidate.
        m.access_line(0, line, AccessKind::Write);
        assert_eq!(m.counters(0).invalidations_sent, 1);
        assert!(!m.in_private_cache(1, line));
        // But the *next* write is exclusive again and short-circuits.
        let before = m.mem_stats().l1_short_circuits;
        m.access_line(0, line, AccessKind::Write);
        assert_eq!(m.mem_stats().l1_short_circuits, before + 1);
        assert_eq!(m.counters(0).invalidations_sent, 1);
    }

    #[test]
    fn mem_stats_track_directory_and_evictions() {
        let mut m = machine();
        let r = m.memory_mut().alloc(4 * 1024 * 1024, 0);
        m.access(0, r.addr, 4 * 1024 * 1024, AccessKind::Read);
        let stats = m.mem_stats();
        assert!(stats.directory_probes > 0);
        assert!(stats.directory_entries > 0);
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(stats.directory_capacity.is_power_of_two());
    }
}
