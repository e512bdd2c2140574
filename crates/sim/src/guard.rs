//! The memory-guard hook: how bounds-checking hardware (GPUShield's BCU) or
//! an instrumentation model observes warp-level memory accesses.
//!
//! The simulator calls [`MemGuard::check`] once per executed memory
//! instruction per warp — matching the paper's workgroup/warp-level
//! checking (§5.5.1): the BCU sees the *gathered min/max address range* of
//! the whole sub-workgroup, not per-thread addresses.

use crate::launch::SiteCheck;
use gpushield_isa::{BlockId, MemSpace, TaggedPtr};
use gpushield_mem::VirtualMemorySpace;

/// One warp-level memory access as seen by the BCU, after address
/// generation and coalescing.
#[derive(Debug, Clone, Copy)]
pub struct MemAccess {
    /// Core executing the access.
    pub core: usize,
    /// Driver-assigned kernel ID.
    pub kernel_id: u16,
    /// True for stores.
    pub is_store: bool,
    /// Memory space addressed.
    pub space: MemSpace,
    /// The (tagged) pointer value the AGU saw — class and info fields drive
    /// the check (Fig. 7).
    pub pointer: TaggedPtr,
    /// Instruction site `(block, index)`.
    pub site: (BlockId, usize),
    /// Gathered warp address range: minimum address and maximum *exclusive
    /// end* across active lanes.
    pub range: (u64, u64),
    /// Check decision the compiler recorded for this site.
    pub site_check: SiteCheck,
    /// Number of coalesced transactions this access produced.
    pub transactions: usize,
    /// Active lanes participating in the access (a per-thread checking
    /// scheme would perform this many checks instead of one).
    pub active_lanes: usize,
    /// True when every transaction hit the L1 Dcache (drives the Fig. 12
    /// stall-visibility rule).
    pub l1d_all_hit: bool,
}

/// Outcome of a bounds check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardVerdict {
    /// Access is in bounds (or unchecked); proceed.
    Allow,
    /// Violation with precise-exception support: abort the kernel (§5.5.2).
    Fault,
    /// Violation without precise exceptions: log, return zero for loads,
    /// drop stores silently (§5.5.2).
    Squash,
}

impl GuardVerdict {
    /// Stable integer code for flight-recorder payloads.
    pub fn code(&self) -> u8 {
        match self {
            GuardVerdict::Allow => 0,
            GuardVerdict::Fault => 1,
            GuardVerdict::Squash => 2,
        }
    }

    /// Inverse of [`GuardVerdict::code`].
    pub fn from_code(code: u8) -> Option<GuardVerdict> {
        Some(match code {
            0 => GuardVerdict::Allow,
            1 => GuardVerdict::Fault,
            2 => GuardVerdict::Squash,
            _ => return None,
        })
    }
}

/// Which microarchitectural path resolved a bounds check — the paper's
/// Fig. 13/14 attribution axis. GPUShield's BCU reports where the region
/// bounds came from (L1 RCache, L2 RCache, or an RBT fetch from device
/// memory); software baselines report [`CheckPath::Software`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckPath {
    /// No bounds metadata consulted (unprotected pointer, or no guard).
    Unchecked,
    /// Region bounds found in the per-core L1 RCache.
    L1RCache,
    /// L1 RCache miss served by the shared L2 RCache.
    L2RCache,
    /// Both RCache levels missed; bounds fetched from the RBT in device
    /// memory.
    RbtFetch,
    /// Type 3 size-embedded pointer: bounds decoded from the pointer
    /// itself, no table lookup (§5.4).
    SizeEmbedded,
    /// Software instrumentation (baseline tools), fixed per-access cost.
    Software,
}

impl CheckPath {
    /// Short stable label used for telemetry metric names and tables.
    pub fn label(&self) -> &'static str {
        match self {
            CheckPath::Unchecked => "unchecked",
            CheckPath::L1RCache => "l1_rcache",
            CheckPath::L2RCache => "l2_rcache",
            CheckPath::RbtFetch => "rbt_fetch",
            CheckPath::SizeEmbedded => "size_embedded",
            CheckPath::Software => "software",
        }
    }

    /// Stable integer code for flight-recorder payloads.
    pub fn code(&self) -> u8 {
        match self {
            CheckPath::Unchecked => 0,
            CheckPath::L1RCache => 1,
            CheckPath::L2RCache => 2,
            CheckPath::RbtFetch => 3,
            CheckPath::SizeEmbedded => 4,
            CheckPath::Software => 5,
        }
    }

    /// Inverse of [`CheckPath::code`].
    pub fn from_code(code: u8) -> Option<CheckPath> {
        Some(match code {
            0 => CheckPath::Unchecked,
            1 => CheckPath::L1RCache,
            2 => CheckPath::L2RCache,
            3 => CheckPath::RbtFetch,
            4 => CheckPath::SizeEmbedded,
            5 => CheckPath::Software,
            _ => return None,
        })
    }
}

/// Result of a guard consultation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardCheck {
    /// The verdict.
    pub verdict: GuardVerdict,
    /// Extra LSU-pipeline cycles *visible* to this access after overlapping
    /// with the Dcache path (0 when hidden; Fig. 12).
    pub stall_cycles: u64,
    /// Which metadata path resolved the check (stall attribution).
    pub path: CheckPath,
}

impl GuardCheck {
    /// An allow with no visible stall — what unchecked accesses cost.
    pub fn allow_free() -> Self {
        GuardCheck {
            verdict: GuardVerdict::Allow,
            stall_cycles: 0,
            path: CheckPath::Unchecked,
        }
    }
}

/// A bounds-checking mechanism attached to the GPU's LSUs.
///
/// Implemented by GPUShield's BCU (crate `gpushield-core`) and by the
/// software-tool cost models (crate `gpushield-baselines`). The simulator
/// owns the guard mutably for a whole run; per-core state (RCaches) is the
/// implementation's business, keyed by [`MemAccess::core`].
///
/// `Send` is required because the cycle-quantum engine may consult a
/// non-forkable guard from its (single) worker context; all guards are
/// plain owned state, so the bound is free in practice.
pub trait MemGuard: Send {
    /// Observes one warp-level access and returns the verdict plus visible
    /// stall. `vm` grants read access to bounds metadata in device memory
    /// (the RBT) via the translation-bypass path.
    fn check(&mut self, access: &MemAccess, vm: &VirtualMemorySpace) -> GuardCheck;

    /// Called when a kernel terminates or a core context-switches; RCaches
    /// flush here (§5.5).
    fn on_kernel_end(&mut self, kernel_id: u16);

    /// Fault-injection hook: corrupt one resident piece of cached bounds
    /// metadata (an RCache entry) on `core`, the victim chosen
    /// deterministically from `entropy`. Returns whether anything was
    /// corrupted. The default implementation caches no metadata and
    /// reports `false`; GPUShield's BCU overrides it.
    fn inject_metadata_fault(&mut self, core: usize, entropy: u64) -> bool {
        let _ = (core, entropy);
        false
    }

    /// Human-readable mechanism name (for reports).
    fn name(&self) -> &str;

    /// Splits the guard per SIMT core so the parallel engine can consult
    /// it from worker threads during a cycle quantum. Implementations
    /// whose per-core state is already disjoint (GPUShield's BCU:
    /// per-core RCaches) return a [`ShardedGuard`] view of themselves —
    /// no per-core object is built; the default reports `None`, which
    /// makes the engine fall back to single-worker execution with the
    /// whole guard (still quantum-based, still deterministic).
    ///
    /// Contract: while the view is alive the parent is unusable (it
    /// borrows it mutably); after it drops, [`MemGuard::merge_forked`]
    /// folds the per-core observations (statistics, violation logs) back
    /// into the parent in canonical core order.
    ///
    /// Must return `Some` exactly when [`MemGuard::supports_fork`] reports
    /// `true` for the same `num_cores`.
    fn fork_cores(&mut self, num_cores: usize) -> Option<&(dyn ShardedGuard + '_)> {
        let _ = num_cores;
        None
    }

    /// Whether [`MemGuard::fork_cores`] would hand out shards for
    /// `num_cores` cores. A separate probe (rather than matching on the
    /// fork result) lets the engine keep using the whole guard on the
    /// `false` path without borrowing conflicts.
    fn supports_fork(&self, num_cores: usize) -> bool {
        let _ = num_cores;
        false
    }

    /// Folds observations accumulated by forked shards back into the
    /// guard. No-op when [`MemGuard::fork_cores`] returned `None`.
    fn merge_forked(&mut self) {}
}

/// A [`MemGuard`] split per core, shared by the engine's worker threads.
///
/// A check touches only the accessing core's shard, so all the mutable
/// state it reaches (RCache tag arrays, per-core counters) belongs to the
/// one worker advancing that core; determinism follows because the check
/// result depends only on the shard's own history, never on which thread
/// runs it.
pub trait ShardedGuard: Sync {
    /// As [`MemGuard::check`], against the shard of `access.core` only.
    fn check_sharded(&self, access: &MemAccess, vm: &VirtualMemorySpace) -> GuardCheck;

    /// As [`MemGuard::on_kernel_end`], flushing every core's cached
    /// metadata for `kernel_id`. The engine calls it at the quantum drain
    /// where the kernel retires.
    fn on_kernel_end_sharded(&self, kernel_id: u16);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A guard that allows everything; used to assert the trait is
    /// object-safe and the simulator's plumbing works.
    struct NullGuard;

    impl MemGuard for NullGuard {
        fn check(&mut self, _a: &MemAccess, _vm: &VirtualMemorySpace) -> GuardCheck {
            GuardCheck::allow_free()
        }
        fn on_kernel_end(&mut self, _k: u16) {}
        fn name(&self) -> &str {
            "null"
        }
    }

    #[test]
    fn guard_is_object_safe() {
        let mut g = NullGuard;
        let dyn_g: &mut dyn MemGuard = &mut g;
        assert_eq!(dyn_g.name(), "null");
    }

    #[test]
    fn allow_free_has_no_stall() {
        let c = GuardCheck::allow_free();
        assert_eq!(c.verdict, GuardVerdict::Allow);
        assert_eq!(c.stall_cycles, 0);
        assert_eq!(c.path, CheckPath::Unchecked);
    }
}
