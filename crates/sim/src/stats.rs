//! Run reports and statistics.

use crate::guard::CheckPath;
use gpushield_isa::BlockId;
use gpushield_mem::{CacheStats, DramStats, MemFault, TlbStats};
use gpushield_telemetry::Registry;
use std::fmt;

/// Why a launch terminated early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A hardware translation fault (illegal memory access — what an
    /// unprotected GPU reports only when crossing a mapped region, Fig. 4
    /// case 3).
    MemFault(MemFault),
    /// The bounds-checking mechanism raised a precise exception (§5.5.2).
    BoundsViolation,
}

impl AbortReason {
    /// Stable integer code for flight-recorder payloads (the `MemFault`
    /// detail is not round-tripped; forensics renders the class only).
    pub fn code(&self) -> u8 {
        match self {
            AbortReason::BoundsViolation => 0,
            AbortReason::MemFault(_) => 1,
        }
    }

    /// Render a flight-recorder code back to a stable class name.
    pub fn code_name(code: u8) -> &'static str {
        match code {
            0 => "bounds-violation",
            1 => "mem-fault",
            _ => "unknown",
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::MemFault(m) => write!(f, "kernel aborted: {m}"),
            AbortReason::BoundsViolation => f.write_str("kernel aborted: bounds violation"),
        }
    }
}

/// The extreme addresses one static memory instruction *attempted* to
/// touch during a recorded run (see [`crate::Gpu::run_recorded`]), over
/// every core and so independent of the engine's worker count.
///
/// Ranges are captured after address generation but before the bounds
/// check renders a verdict, so an out-of-bounds attempt is visible here
/// even when the guard squashed or aborted it — exactly what a soundness
/// audit of statically elided checks needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedRange {
    /// The memory instruction (block, instruction index).
    pub site: (BlockId, usize),
    /// Lowest byte address any lane attempted (inclusive).
    pub lo: u64,
    /// One past the highest byte address any lane attempted (exclusive).
    pub hi: u64,
}

/// Per-launch outcome and counters.
#[derive(Debug, Clone, Default)]
pub struct LaunchReport {
    /// Kernel name.
    pub kernel: String,
    /// Driver-assigned kernel ID.
    pub kernel_id: u16,
    /// Cycle the first workgroup was dispatched.
    pub start_cycle: u64,
    /// Cycle the last warp retired (or the launch aborted).
    pub end_cycle: u64,
    /// Dynamic instructions executed (per warp, not per lane).
    pub instructions: u64,
    /// Dynamic memory instructions executed (per warp).
    pub mem_instructions: u64,
    /// Coalesced memory transactions issued.
    pub transactions: u64,
    /// Warp-level bounds checks performed at runtime.
    pub checks_performed: u64,
    /// Warp-level bounds checks skipped thanks to static analysis.
    pub checks_skipped: u64,
    /// Subset of [`checks_skipped`] whose elision is backed by a discharged
    /// proof certificate ([`gpushield_isa::SiteCert`]) rather than a plain
    /// Static plan entry — the skip-with-certificate accounting the
    /// soundness auditor reconciles against claimed windows.
    ///
    /// [`checks_skipped`]: LaunchReport::checks_skipped
    pub checks_certified: u64,
    /// Total visible BCU stall cycles charged to the LSUs.
    pub guard_stall_cycles: u64,
    /// Violations squashed (log-and-continue mode).
    pub violations_squashed: u64,
    /// Early-termination reason, if any.
    pub abort: Option<AbortReason>,
    /// Per-site observed address extremes, sorted by site. Empty unless the
    /// run was started via [`crate::Gpu::run_recorded`] (which changes
    /// nothing else in the report).
    pub observed_ranges: Vec<ObservedRange>,
    /// Per-path bounds-check counts and visible stall cycles (the Fig. 13
    /// attribution axis). Always recorded — plain `u64` increments on an
    /// already-taken branch, same philosophy as [`SimProfile`].
    pub stall_attribution: StallAttribution,
}

impl LaunchReport {
    /// Wall-clock cycles this launch occupied.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// Fraction of issued instructions that were memory operations — the
    /// quantity §8.5 cites for streamcluster (31.22% load/store).
    pub fn mem_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem_instructions as f64 / self.instructions as f64
        }
    }

    /// Warp instructions per cycle for this launch.
    pub fn ipc(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            self.instructions as f64 / c as f64
        }
    }

    /// True when the launch ran to completion.
    pub fn completed(&self) -> bool {
        self.abort.is_none()
    }
}

/// Bounds-check counts and visible stall cycles split by the metadata
/// path that resolved each check — the simulator-side analogue of the
/// paper's Fig. 13 overhead attribution. A "count" is one warp-level
/// guard consultation; a "stall" is the portion of
/// [`LaunchReport::guard_stall_cycles`] charged to that path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallAttribution {
    /// Checks resolved by the per-core L1 RCache.
    pub l1_hits: u64,
    /// Checks that missed L1 and hit the shared L2 RCache.
    pub l2_hits: u64,
    /// Checks that missed both RCaches and fetched the RBT entry from
    /// device memory.
    pub rbt_fetches: u64,
    /// Type 3 size-embedded checks (no table lookup).
    pub type3_checks: u64,
    /// Software-instrumentation checks (baseline tools).
    pub software_checks: u64,
    /// Consultations that checked nothing (unprotected pointers).
    pub unchecked: u64,
    /// Visible stall cycles charged by L1-RCache-hit checks (the
    /// single-cycle Dcache-hit/RCache-lookup stall of Fig. 12).
    pub l1_stall_cycles: u64,
    /// Visible stall cycles charged by L2-RCache-hit checks.
    pub l2_stall_cycles: u64,
    /// Visible stall cycles charged by RBT fetches.
    pub rbt_stall_cycles: u64,
    /// Visible stall cycles charged by Type 3 checks.
    pub type3_stall_cycles: u64,
    /// Visible stall cycles charged by software checks.
    pub software_stall_cycles: u64,
}

impl StallAttribution {
    /// Records one guard consultation outcome.
    pub fn record(&mut self, path: CheckPath, stall_cycles: u64) {
        match path {
            CheckPath::Unchecked => self.unchecked += 1,
            CheckPath::L1RCache => {
                self.l1_hits += 1;
                self.l1_stall_cycles += stall_cycles;
            }
            CheckPath::L2RCache => {
                self.l2_hits += 1;
                self.l2_stall_cycles += stall_cycles;
            }
            CheckPath::RbtFetch => {
                self.rbt_fetches += 1;
                self.rbt_stall_cycles += stall_cycles;
            }
            CheckPath::SizeEmbedded => {
                self.type3_checks += 1;
                self.type3_stall_cycles += stall_cycles;
            }
            CheckPath::Software => {
                self.software_checks += 1;
                self.software_stall_cycles += stall_cycles;
            }
        }
    }

    /// Accumulates another attribution into this one.
    pub fn merge(&mut self, other: &StallAttribution) {
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.rbt_fetches += other.rbt_fetches;
        self.type3_checks += other.type3_checks;
        self.software_checks += other.software_checks;
        self.unchecked += other.unchecked;
        self.l1_stall_cycles += other.l1_stall_cycles;
        self.l2_stall_cycles += other.l2_stall_cycles;
        self.rbt_stall_cycles += other.rbt_stall_cycles;
        self.type3_stall_cycles += other.type3_stall_cycles;
        self.software_stall_cycles += other.software_stall_cycles;
    }

    /// Total guard consultations recorded (all paths, including
    /// unchecked ones).
    pub fn consultations(&self) -> u64 {
        self.l1_hits
            + self.l2_hits
            + self.rbt_fetches
            + self.type3_checks
            + self.software_checks
            + self.unchecked
    }

    /// Total visible stall cycles across all paths — reconciles with
    /// [`LaunchReport::guard_stall_cycles`].
    pub fn stall_cycles(&self) -> u64 {
        self.l1_stall_cycles
            + self.l2_stall_cycles
            + self.rbt_stall_cycles
            + self.type3_stall_cycles
            + self.software_stall_cycles
    }

    /// Publishes per-path counters under `<prefix>.<path>.{checks,stall_cycles}`.
    pub fn publish(&self, reg: &mut Registry, prefix: &str) {
        if !reg.enabled() {
            return;
        }
        let pairs: [(&str, u64, u64); 5] = [
            ("l1_rcache", self.l1_hits, self.l1_stall_cycles),
            ("l2_rcache", self.l2_hits, self.l2_stall_cycles),
            ("rbt_fetch", self.rbt_fetches, self.rbt_stall_cycles),
            ("size_embedded", self.type3_checks, self.type3_stall_cycles),
            ("software", self.software_checks, self.software_stall_cycles),
        ];
        for (label, checks, stalls) in pairs {
            reg.add_named(&format!("{prefix}.{label}.checks"), checks);
            reg.add_named(&format!("{prefix}.{label}.stall_cycles"), stalls);
        }
        reg.add_named(&format!("{prefix}.unchecked.checks"), self.unchecked);
    }
}

/// Cheap per-phase counters for the simulator's own hot path (the
/// `sim-profile` observability layer). Every counter is a plain `u64`
/// increment on an already-taken branch, so keeping them always-on does
/// not perturb the timing model — they measure *simulator* work, not
/// simulated-machine behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// ALU/control instructions issued (the `exec_simple` fast path).
    pub alu_issues: u64,
    /// Global/local memory instructions issued to the LSU.
    pub mem_issues: u64,
    /// Shared-memory instructions issued.
    pub shared_issues: u64,
    /// Barrier instructions issued (including re-checks while waiting).
    pub barrier_issues: u64,
    /// Device-side `malloc`/`free` instructions issued.
    pub malloc_issues: u64,
    /// Coalesced transactions pushed through the LSU pipeline.
    pub lsu_transactions: u64,
    /// Warp-level bounds checks handed to the guard (BCU or SW).
    pub bcu_checks: u64,
    /// Visible stall cycles the guard charged to LSUs.
    pub bcu_stall_cycles: u64,
    /// Transactions that reached DRAM (L2 misses).
    pub dram_accesses: u64,
    /// Scheduler passes that found no eligible warp on a core.
    pub idle_skips: u64,
}

impl SimProfile {
    /// Accumulates another profile into this one (used when aggregating
    /// across launches or whole runs).
    pub fn merge(&mut self, other: &SimProfile) {
        self.alu_issues += other.alu_issues;
        self.mem_issues += other.mem_issues;
        self.shared_issues += other.shared_issues;
        self.barrier_issues += other.barrier_issues;
        self.malloc_issues += other.malloc_issues;
        self.lsu_transactions += other.lsu_transactions;
        self.bcu_checks += other.bcu_checks;
        self.bcu_stall_cycles += other.bcu_stall_cycles;
        self.dram_accesses += other.dram_accesses;
        self.idle_skips += other.idle_skips;
    }

    /// Total instructions issued across all phases.
    pub fn issues(&self) -> u64 {
        self.alu_issues
            + self.mem_issues
            + self.shared_issues
            + self.barrier_issues
            + self.malloc_issues
    }

    /// Field-wise difference `self - other` (saturating). Used to carve a
    /// per-experiment slice out of cumulative process-wide totals.
    pub fn diff(&self, other: &SimProfile) -> SimProfile {
        SimProfile {
            alu_issues: self.alu_issues.saturating_sub(other.alu_issues),
            mem_issues: self.mem_issues.saturating_sub(other.mem_issues),
            shared_issues: self.shared_issues.saturating_sub(other.shared_issues),
            barrier_issues: self.barrier_issues.saturating_sub(other.barrier_issues),
            malloc_issues: self.malloc_issues.saturating_sub(other.malloc_issues),
            lsu_transactions: self.lsu_transactions.saturating_sub(other.lsu_transactions),
            bcu_checks: self.bcu_checks.saturating_sub(other.bcu_checks),
            bcu_stall_cycles: self.bcu_stall_cycles.saturating_sub(other.bcu_stall_cycles),
            dram_accesses: self.dram_accesses.saturating_sub(other.dram_accesses),
            idle_skips: self.idle_skips.saturating_sub(other.idle_skips),
        }
    }

    fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("alu_issues", self.alu_issues),
            ("mem_issues", self.mem_issues),
            ("shared_issues", self.shared_issues),
            ("barrier_issues", self.barrier_issues),
            ("malloc_issues", self.malloc_issues),
            ("lsu_transactions", self.lsu_transactions),
            ("bcu_checks", self.bcu_checks),
            ("bcu_stall_cycles", self.bcu_stall_cycles),
            ("dram_accesses", self.dram_accesses),
            ("idle_skips", self.idle_skips),
        ]
    }

    /// Publishes every field as a `sim.profile.*` gauge — the single
    /// source of truth the `throughput` and `profile` bins and the
    /// per-exhibit `results/<id>.json` telemetry sections all render from.
    /// Use on an already-merged profile; last write wins.
    pub fn publish(&self, reg: &mut Registry) {
        if !reg.enabled() {
            return;
        }
        for (name, v) in self.fields() {
            reg.set_named(&format!("sim.profile.{name}"), v);
        }
    }

    /// Publishes every field as an accumulating `sim.profile.*` counter —
    /// the form [`publish_run_report`] uses, so instrumenting several
    /// launches into one registry yields workload totals.
    pub fn publish_cumulative(&self, reg: &mut Registry) {
        if !reg.enabled() {
            return;
        }
        for (name, v) in self.fields() {
            reg.add_named(&format!("sim.profile.{name}"), v);
        }
    }
}

impl fmt::Display for SimProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "issue alu={} mem={} shared={} barrier={} malloc={} | \
             lsu tx={} bcu checks={} stalls={} | dram={} idle={}",
            self.alu_issues,
            self.mem_issues,
            self.shared_issues,
            self.barrier_issues,
            self.malloc_issues,
            self.lsu_transactions,
            self.bcu_checks,
            self.bcu_stall_cycles,
            self.dram_accesses,
            self.idle_skips
        )
    }
}

/// Whole-run outcome: per-launch reports plus shared-resource statistics.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Total cycles until every launch finished.
    pub cycles: u64,
    /// Per-launch reports, in launch order.
    pub launches: Vec<LaunchReport>,
    /// Aggregated per-core L1 Dcache statistics.
    pub l1d: CacheStats,
    /// Aggregated per-core L1 TLB statistics.
    pub l1_tlb: TlbStats,
    /// Shared L2 statistics.
    pub l2: CacheStats,
    /// Shared L2 TLB statistics.
    pub l2_tlb: TlbStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Simulator hot-path phase counters (see [`SimProfile`]).
    pub profile: SimProfile,
}

impl RunReport {
    /// Total dynamic instructions across launches.
    pub fn instructions(&self) -> u64 {
        self.launches.iter().map(|l| l.instructions).sum()
    }

    /// First abort across launches, if any.
    pub fn abort(&self) -> Option<AbortReason> {
        self.launches.iter().find_map(|l| l.abort)
    }

    /// True when every launch completed.
    pub fn completed(&self) -> bool {
        self.launches.iter().all(|l| l.completed())
    }

    /// Fraction of runtime checks eliminated by static analysis, in
    /// `[0, 1]` (the right-hand axis of paper Figs. 17 and 19).
    pub fn check_reduction(&self) -> f64 {
        let performed: u64 = self.launches.iter().map(|l| l.checks_performed).sum();
        let skipped: u64 = self.launches.iter().map(|l| l.checks_skipped).sum();
        let total = performed + skipped;
        if total == 0 {
            0.0
        } else {
            skipped as f64 / total as f64
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run: {} cycles, {} launches",
            self.cycles,
            self.launches.len()
        )?;
        for l in &self.launches {
            writeln!(
                f,
                "  {} (id {}): {} cycles, {} instrs, {} mem, checks {}/{} skipped{}",
                l.kernel,
                l.kernel_id,
                l.cycles(),
                l.instructions,
                l.mem_instructions,
                l.checks_skipped,
                l.checks_performed + l.checks_skipped,
                match l.abort {
                    Some(a) => format!(" [{a}]"),
                    None => String::new(),
                }
            )?;
        }
        writeln!(f, "  L1D {} | L2 {}", self.l1d, self.l2)
    }
}

/// Publishes an entire [`RunReport`] into a telemetry registry: launch
/// totals as `sim.launch.*` counters, per-path stall attribution under
/// `sim.stall.*`, the hot-path profile as `sim.profile.*` gauges, and the
/// memory-hierarchy statistics under `mem.*`.
///
/// Counters *accumulate* across calls, so publishing several reports into
/// one registry yields workload-level totals; gauges are last-write-wins.
pub fn publish_run_report(reg: &mut Registry, report: &RunReport) {
    if !reg.enabled() {
        return;
    }
    reg.set_named("sim.run.cycles", report.cycles);
    reg.add_named("sim.run.launches", report.launches.len() as u64);
    let mut attribution = StallAttribution::default();
    for l in &report.launches {
        reg.add_named("sim.launch.instructions", l.instructions);
        reg.add_named("sim.launch.mem_instructions", l.mem_instructions);
        reg.add_named("sim.launch.transactions", l.transactions);
        reg.add_named("sim.launch.checks_performed", l.checks_performed);
        reg.add_named("sim.launch.checks_skipped", l.checks_skipped);
        reg.add_named("sim.launch.checks_certified", l.checks_certified);
        reg.add_named("sim.launch.guard_stall_cycles", l.guard_stall_cycles);
        reg.add_named("sim.launch.violations_squashed", l.violations_squashed);
        // Adding 0 still registers the key, keeping the schema stable
        // between aborting and clean runs.
        reg.add_named("sim.launch.aborts", u64::from(l.abort.is_some()));
        attribution.merge(&l.stall_attribution);
    }
    attribution.publish(reg, "sim.stall");
    report.profile.publish_cumulative(reg);
    gpushield_mem::publish_cache_stats(reg, "mem.l1d", &report.l1d);
    gpushield_mem::publish_cache_stats(reg, "mem.l2", &report.l2);
    gpushield_mem::publish_tlb_stats(reg, "mem.l1_tlb", &report.l1_tlb);
    gpushield_mem::publish_tlb_stats(reg, "mem.l2_tlb", &report.l2_tlb);
    gpushield_mem::publish_dram_stats(reg, "mem.dram", &report.dram);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_reduction_fraction() {
        let mut r = RunReport::default();
        r.launches.push(LaunchReport {
            checks_performed: 25,
            checks_skipped: 75,
            ..LaunchReport::default()
        });
        assert!((r.check_reduction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_zero_reduction() {
        assert_eq!(RunReport::default().check_reduction(), 0.0);
    }

    #[test]
    fn abort_propagates() {
        let mut r = RunReport::default();
        r.launches.push(LaunchReport::default());
        assert!(r.completed());
        r.launches.push(LaunchReport {
            abort: Some(AbortReason::BoundsViolation),
            ..LaunchReport::default()
        });
        assert!(!r.completed());
        assert_eq!(r.abort(), Some(AbortReason::BoundsViolation));
    }
}
