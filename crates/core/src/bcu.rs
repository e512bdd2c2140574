//! The Bounds-Checking Unit (paper §5.5): the per-core hardware that sits
//! next to the LSU, decrypts pointer-embedded buffer IDs, looks bounds up
//! in the RCache hierarchy (falling back to the in-memory RBT), and
//! compares the warp's gathered min/max address range against them.

use crate::rcache::{L1RCache, L2RCache};
use gpushield_driver::{decrypt_id, read_entry, BoundsEntry, ShieldSetup};
use gpushield_isa::{BlockId, PtrClass, SiteCheck};
use gpushield_mem::VirtualMemorySpace;
use gpushield_sim::{CheckPath, GuardCheck, GuardVerdict, MemAccess, MemGuard, ShardedGuard};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// BCU hardware configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcuConfig {
    /// L1 RCache entries per core (default 4).
    pub l1_entries: usize,
    /// L2 RCache entries per core (default 64).
    pub l2_entries: usize,
    /// L1 RCache access latency in cycles (default 1; Fig. 14 also
    /// evaluates 2).
    pub l1_latency: u64,
    /// L2 RCache access latency in cycles (default 3; Figs. 14/17 also
    /// evaluate 5).
    pub l2_latency: u64,
    /// Visible stall charged when bounds must be fetched from the RBT in
    /// memory and the data access itself hit the L1 Dcache (otherwise the
    /// fetch overlaps the miss/TLB-walk latency, §5.5).
    pub rbt_fetch_penalty: u64,
    /// LSU pipeline depth available to hide checking (Fig. 12's four
    /// stages).
    pub lsu_overlap: u64,
    /// `true`: raise a precise exception (abort). `false`: log, return
    /// zero for loads, drop stores (§5.5.2).
    pub precise_faults: bool,
    /// Ablation of §5.5.1's first technique: check every active lane
    /// individually instead of the gathered warp min/max range. The BCU
    /// then performs `active_lanes` serialized comparisons per access, and
    /// the exposed stall grows accordingly.
    pub per_thread_checks: bool,
    /// Multi-tenant hardening: reject Type 1 (unprotected) and Type 3
    /// (size-embedded) pointers at sites the compiler classified as
    /// `Runtime`. Under a serving configuration (analysis off, Type 3
    /// off) every legitimate runtime-checked pointer is Region-class, so
    /// a differently-classed pointer at such a site can only be a forged
    /// value smuggled in through data (e.g. a raw victim VA loaded from
    /// the attacker's own buffer). Off by default: single-tenant configs
    /// legitimately mix classes at runtime sites.
    pub strict_runtime_tags: bool,
}

impl Default for BcuConfig {
    fn default() -> Self {
        BcuConfig {
            l1_entries: 4,
            l2_entries: 64,
            l1_latency: 1,
            l2_latency: 3,
            rbt_fetch_penalty: 50,
            lsu_overlap: 4,
            precise_faults: true,
            per_thread_checks: false,
            strict_runtime_tags: false,
        }
    }
}

/// Why an access was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Address range outside the region's bounds.
    OutOfBounds,
    /// Store through a read-only region's pointer.
    ReadOnly,
    /// Decrypted ID hit an invalid RBT entry or another kernel's entry —
    /// the signature of a forged or corrupted pointer (§6.1).
    BadRegion,
    /// The kernel was never registered with the BCU (driver bug or attack).
    UnknownKernel,
    /// A non-Region pointer reached a site the compiler classified as
    /// `Runtime` while [`BcuConfig::strict_runtime_tags`] is on — the
    /// signature of a pointer forged wholesale from data.
    ForgedPointer,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::OutOfBounds => "out-of-bounds access",
            ViolationKind::ReadOnly => "write to read-only region",
            ViolationKind::BadRegion => "invalid or forged region ID",
            ViolationKind::UnknownKernel => "unregistered kernel",
            ViolationKind::ForgedPointer => "forged pointer class at runtime site",
        };
        f.write_str(s)
    }
}

/// One logged violation (the error-logging path of §5.5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViolationRecord {
    /// Kernel that violated.
    pub kernel_id: u16,
    /// Instruction site.
    pub site: (BlockId, usize),
    /// Offending warp address range (min, exclusive max).
    pub range: (u64, u64),
    /// Store or load.
    pub is_store: bool,
    /// Category.
    pub kind: ViolationKind,
}

/// Aggregate BCU statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BcuStats {
    /// Runtime checks performed (warp granularity).
    pub checks: u64,
    /// Checks satisfied by the L1 RCache.
    pub l1_hits: u64,
    /// Checks satisfied by the L2 RCache.
    pub l2_hits: u64,
    /// Checks that fetched bounds from the in-memory RBT.
    pub rbt_fetches: u64,
    /// Type 3 checks (no RCache involvement).
    pub type3_checks: u64,
    /// Accesses through unprotected (Type 1) pointers observed.
    pub unprotected: u64,
    /// Violations detected.
    pub violations: u64,
    /// Total visible stall cycles charged.
    pub stall_cycles: u64,
    /// RCache fills (either level) that displaced a resident entry.
    pub rcache_evictions: u64,
    /// Displacements where victim and newcomer belonged to different
    /// kernels — the cross-tenant contention signal under co-location.
    pub cross_kernel_evictions: u64,
}

impl BcuStats {
    /// L1 RCache hit rate over RBT-indexed checks, in `[0, 1]` (the Figs.
    /// 15/16 quantity); 1.0 when no such check occurred.
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l2_hits + self.rbt_fetches;
        if total == 0 {
            1.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }
}

struct CoreBcu {
    l1: L1RCache,
    l2: L2RCache,
}

/// Per-core observation inbox filled by sharded checks during a parallel
/// phase and folded into the global statistics/violation log by
/// [`MemGuard::merge_forked`] in canonical core order.
#[derive(Default)]
struct CorePending {
    stats: BcuStats,
    violations: Vec<ViolationRecord>,
}

/// One core's BCU: its RCache pair and its inbox. Behind a lock so the
/// engine's workers reach their cores through the shared
/// [`ShardedGuard`] view; only the worker advancing a core takes its
/// lock, so it is never contended.
struct CoreShard {
    rc: CoreBcu,
    pending: CorePending,
}

/// A core's shard through exclusive access: no lock taken. A poisoned
/// lock (a worker panicked mid-check; the engine re-raises that panic)
/// still holds valid RCache state.
fn shard_mut(m: &mut Mutex<CoreShard>) -> &mut CoreShard {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

impl BcuStats {
    /// Adds another statistics block field-by-field.
    fn absorb(&mut self, o: &BcuStats) {
        self.checks += o.checks;
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.rbt_fetches += o.rbt_fetches;
        self.type3_checks += o.type3_checks;
        self.unprotected += o.unprotected;
        self.violations += o.violations;
        self.stall_cycles += o.stall_cycles;
        self.rcache_evictions += o.rcache_evictions;
        self.cross_kernel_evictions += o.cross_kernel_evictions;
    }
}

/// The GPUShield bounds-checking unit for a whole GPU (one RCache pair per
/// core). Implements the simulator's [`MemGuard`] hook.
///
/// # Example
///
/// ```
/// use gpushield_core::{Bcu, BcuConfig};
/// use gpushield_driver::{encrypt_id, write_entry, BoundsEntry, ShieldSetup};
/// use gpushield_isa::{BlockId, MemSpace, SiteCheck, TaggedPtr};
/// use gpushield_mem::{AllocPolicy, VirtualMemorySpace};
/// use gpushield_sim::{GuardVerdict, MemAccess, MemGuard};
///
/// // Device memory with an RBT holding one 256-byte region.
/// let mut vm = VirtualMemorySpace::new();
/// let rbt = vm.alloc(gpushield_driver::RBT_BYTES, AllocPolicy::Isolated)?;
/// let buf = vm.alloc(256, AllocPolicy::Device512)?;
/// let setup = ShieldSetup { kernel_id: 1, rbt_base: rbt.va, key: 0xABCD };
/// write_entry(&mut vm, rbt.va, 100, &BoundsEntry {
///     valid: true, readonly: false, kernel_id: 1, base: buf.va, size: 256,
/// })?;
///
/// let mut bcu = Bcu::new(BcuConfig::default(), 1);
/// bcu.register_kernel(setup);
/// let access = MemAccess {
///     core: 0, kernel_id: 1, is_store: true, space: MemSpace::Global,
///     pointer: TaggedPtr::with_region_id(buf.va, encrypt_id(100, setup.key)),
///     site: (BlockId(0), 0), range: (buf.va, buf.va + 4),
///     site_check: SiteCheck::Runtime, transactions: 1, active_lanes: 32,
///     l1d_all_hit: true,
/// };
/// assert_eq!(bcu.check(&access, &vm).verdict, GuardVerdict::Allow);
/// let oob = MemAccess { range: (buf.va + 256, buf.va + 260), ..access };
/// assert_eq!(bcu.check(&oob, &vm).verdict, GuardVerdict::Fault);
/// # Ok::<(), gpushield_mem::MemFault>(())
/// ```
pub struct Bcu {
    cfg: BcuConfig,
    cores: Vec<Mutex<CoreShard>>,
    kernels: HashMap<u16, ShieldSetup>,
    stats: BcuStats,
    violations: Vec<ViolationRecord>,
}

impl Bcu {
    /// Creates a BCU with one RCache pair per core.
    pub fn new(cfg: BcuConfig, num_cores: usize) -> Self {
        Bcu {
            cfg,
            cores: (0..num_cores)
                .map(|_| {
                    Mutex::new(CoreShard {
                        rc: CoreBcu {
                            l1: L1RCache::new(cfg.l1_entries),
                            l2: L2RCache::new(cfg.l2_entries),
                        },
                        pending: CorePending::default(),
                    })
                })
                .collect(),
            kernels: HashMap::new(),
            stats: BcuStats::default(),
            violations: Vec::new(),
        }
    }

    /// Registers a kernel's RBT address and decryption key in every core
    /// (§5.4: "the driver stores the physical address of RBT for all cores
    /// the kernel will be running on").
    pub fn register_kernel(&mut self, setup: ShieldSetup) {
        self.kernels.insert(setup.kernel_id, setup);
    }

    /// Pre-fills every core's L2 RCache with one region's bounds entry,
    /// straight from the RBT the driver just wrote (§5.4 launch-time
    /// metadata setup left cache-resident). Used on the certified-elision
    /// path: eliding a region's provably-safe early accesses defers its
    /// first *checked* access past the cold-start phase, which would
    /// expose RBT-fetch latency that an uncertified run overlaps with
    /// cold data misses. Priming is metadata setup, not a check, so it
    /// touches no statistics counters.
    pub fn prime_region(&mut self, kernel_id: u16, id: u16, vm: &VirtualMemorySpace) {
        let Some(setup) = self.kernels.get(&kernel_id).copied() else {
            return;
        };
        let Ok(entry) = read_entry(vm, setup.rbt_base, id) else {
            return;
        };
        if !entry.valid {
            return;
        }
        let tag = (kernel_id, id);
        for core in &mut self.cores {
            shard_mut(core).rc.l2.fill(tag, entry);
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BcuStats {
        self.stats
    }

    /// Clears statistics and the violation log (keeps registrations and
    /// cache contents).
    pub fn reset_stats(&mut self) {
        self.stats = BcuStats::default();
        self.violations.clear();
    }

    /// The violation log (what the driver reports at kernel end or streams
    /// to the host through an SVM buffer, §5.5.2).
    pub fn violations(&self) -> &[ViolationRecord] {
        &self.violations
    }

    /// The configuration in use.
    pub fn config(&self) -> BcuConfig {
        self.cfg
    }
}

/// Logs a violation into the given sinks and builds the rejecting check
/// result. Free function so the serial guard and per-core shards share it.
fn violate_into(
    cfg: &BcuConfig,
    stats: &mut BcuStats,
    violations: &mut Vec<ViolationRecord>,
    access: &MemAccess,
    kind: ViolationKind,
    stall: u64,
    path: CheckPath,
) -> GuardCheck {
    stats.violations += 1;
    if violations.len() < 4096 {
        violations.push(ViolationRecord {
            kernel_id: access.kernel_id,
            site: access.site,
            range: access.range,
            is_store: access.is_store,
            kind,
        });
    }
    GuardCheck {
        verdict: if cfg.precise_faults {
            GuardVerdict::Fault
        } else {
            GuardVerdict::Squash
        },
        stall_cycles: stall,
        path,
    }
}

/// The Fig. 12 stall-visibility rule: checking overlaps the LSU
/// pipeline; only a single-transaction access that hits the L1 Dcache
/// exposes the part of the BCU path that exceeds the overlap budget.
///
/// In the per-thread ablation the comparator is occupied for one cycle
/// per active lane, so everything beyond the overlap budget becomes
/// visible regardless of how the data access fared.
fn visible_stall(cfg: &BcuConfig, access: &MemAccess, bcu_path: u64) -> u64 {
    if cfg.per_thread_checks {
        let path = bcu_path + access.active_lanes as u64;
        return path.saturating_sub(cfg.lsu_overlap.saturating_sub(1));
    }
    if access.transactions == 1 && access.l1d_all_hit {
        bcu_path.saturating_sub(cfg.lsu_overlap.saturating_sub(1))
    } else {
        0
    }
}

/// One warp-level bounds check against a single core's RCache pair.
///
/// This is the whole §5.5 algorithm; [`Bcu::check`] routes here with the
/// global statistic sinks, a sharded check with the core's inbox. The
/// result depends only on the core's own RCache history, the registration
/// table, and device memory — never on other cores — which is what makes
/// the forked-shard execution order-independent.
fn check_core(
    cfg: &BcuConfig,
    kernels: &HashMap<u16, ShieldSetup>,
    core: &mut CoreBcu,
    stats: &mut BcuStats,
    violations: &mut Vec<ViolationRecord>,
    access: &MemAccess,
    vm: &VirtualMemorySpace,
) -> GuardCheck {
    match access.pointer.class() {
        PtrClass::Unprotected => {
            if cfg.strict_runtime_tags && access.site_check == SiteCheck::Runtime {
                // A runtime site should only ever see Region pointers
                // under the serving config; an untagged value here was
                // forged from data, not issued by the driver.
                stats.checks += 1;
                return violate_into(
                    cfg,
                    stats,
                    violations,
                    access,
                    ViolationKind::ForgedPointer,
                    0,
                    CheckPath::Unchecked,
                );
            }
            // Type 1: static analysis already proved the access (or the
            // shield never tagged this pointer). No work, no stall.
            stats.unprotected += 1;
            GuardCheck::allow_free()
        }
        PtrClass::SizeEmbedded => {
            if cfg.strict_runtime_tags && access.site_check == SiteCheck::Runtime {
                // The attacker controls the embedded log2 size, so a
                // crafted Type 3 value would bound-check against bounds
                // of its own choosing — reject the class outright.
                stats.checks += 1;
                return violate_into(
                    cfg,
                    stats,
                    violations,
                    access,
                    ViolationKind::ForgedPointer,
                    0,
                    CheckPath::Unchecked,
                );
            }
            // Type 3: compare against the pointer-embedded log2 size —
            // no RCache, no RBT (§5.3.3).
            stats.checks += 1;
            stats.type3_checks += 1;
            let base = access.pointer.va();
            let log2 = u32::from(access.pointer.info()).min(46);
            let size = 1u64 << log2;
            let (lo, hi) = access.range;
            if lo >= base && hi <= base + size {
                GuardCheck {
                    verdict: GuardVerdict::Allow,
                    stall_cycles: 0,
                    path: CheckPath::SizeEmbedded,
                }
            } else {
                violate_into(
                    cfg,
                    stats,
                    violations,
                    access,
                    ViolationKind::OutOfBounds,
                    0,
                    CheckPath::SizeEmbedded,
                )
            }
        }
        PtrClass::Region => {
            stats.checks += 1;
            let Some(setup) = kernels.get(&access.kernel_id).copied() else {
                // No registration means no metadata was consulted.
                return violate_into(
                    cfg,
                    stats,
                    violations,
                    access,
                    ViolationKind::UnknownKernel,
                    0,
                    CheckPath::Unchecked,
                );
            };
            let id = decrypt_id(access.pointer.info(), setup.key);
            let tag = (access.kernel_id, id);
            let (entry, bcu_path, path) = if let Some(e) = core.l1.probe(tag) {
                stats.l1_hits += 1;
                // gather + L1 RCache + compare.
                (e, 1 + cfg.l1_latency + 1, CheckPath::L1RCache)
            } else if let Some(e) = core.l2.probe(tag) {
                stats.l2_hits += 1;
                if let Some(victim) = core.l1.fill(tag, e) {
                    stats.rcache_evictions += 1;
                    if victim.0 != tag.0 {
                        stats.cross_kernel_evictions += 1;
                    }
                }
                (
                    e,
                    1 + cfg.l1_latency + cfg.l2_latency + 1,
                    CheckPath::L2RCache,
                )
            } else {
                // Fetch from the RBT in device memory through the
                // translation-bypass path (§5.4). The latency largely
                // overlaps TLB misses (Fig. 11 argument); the visible
                // part is a fixed penalty when the data access was an
                // L1 hit.
                stats.rbt_fetches += 1;
                let e = read_entry(vm, setup.rbt_base, id).unwrap_or(BoundsEntry {
                    valid: false,
                    ..BoundsEntry::default()
                });
                for victim in [core.l2.fill(tag, e), core.l1.fill(tag, e)]
                    .into_iter()
                    .flatten()
                {
                    stats.rcache_evictions += 1;
                    if victim.0 != tag.0 {
                        stats.cross_kernel_evictions += 1;
                    }
                }
                (
                    e,
                    1 + cfg.l1_latency + cfg.l2_latency + cfg.rbt_fetch_penalty,
                    CheckPath::RbtFetch,
                )
            };
            let stall = visible_stall(cfg, access, bcu_path);
            if !entry.valid || entry.kernel_id != access.kernel_id {
                return violate_into(
                    cfg,
                    stats,
                    violations,
                    access,
                    ViolationKind::BadRegion,
                    stall,
                    path,
                );
            }
            if entry.readonly && access.is_store {
                return violate_into(
                    cfg,
                    stats,
                    violations,
                    access,
                    ViolationKind::ReadOnly,
                    stall,
                    path,
                );
            }
            let (lo, hi) = access.range;
            if !entry.in_bounds(lo, hi) {
                return violate_into(
                    cfg,
                    stats,
                    violations,
                    access,
                    ViolationKind::OutOfBounds,
                    stall,
                    path,
                );
            }
            stats.stall_cycles += stall;
            GuardCheck {
                verdict: GuardVerdict::Allow,
                stall_cycles: stall,
                path,
            }
        }
    }
}

impl ShardedGuard for Bcu {
    fn check_sharded(&self, access: &MemAccess, vm: &VirtualMemorySpace) -> GuardCheck {
        let mut shard = self.cores[access.core]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let CoreShard { rc, pending } = &mut *shard;
        check_core(
            &self.cfg,
            &self.kernels,
            rc,
            &mut pending.stats,
            &mut pending.violations,
            access,
            vm,
        )
    }

    fn on_kernel_end_sharded(&self, kernel_id: u16) {
        for core in &self.cores {
            let mut shard = core.lock().unwrap_or_else(PoisonError::into_inner);
            shard.rc.l1.flush_kernel(kernel_id);
            shard.rc.l2.flush_kernel(kernel_id);
        }
    }
}

impl MemGuard for Bcu {
    fn check(&mut self, access: &MemAccess, vm: &VirtualMemorySpace) -> GuardCheck {
        check_core(
            &self.cfg,
            &self.kernels,
            &mut shard_mut(&mut self.cores[access.core]).rc,
            &mut self.stats,
            &mut self.violations,
            access,
            vm,
        )
    }

    fn on_kernel_end(&mut self, kernel_id: u16) {
        for core in &mut self.cores {
            let rc = &mut shard_mut(core).rc;
            rc.l1.flush_kernel(kernel_id);
            rc.l2.flush_kernel(kernel_id);
        }
    }

    fn inject_metadata_fault(&mut self, core: usize, entropy: u64) -> bool {
        if self.cores.is_empty() {
            return false;
        }
        let n = self.cores.len();
        let c = &mut shard_mut(&mut self.cores[core % n]).rc;
        // Prefer the L1 (its entries are hotter, so the corruption is more
        // likely to be consumed before eviction); fall back to the L2.
        c.l1.poison(entropy) || c.l2.poison(entropy)
    }

    fn name(&self) -> &str {
        "gpushield"
    }

    fn supports_fork(&self, num_cores: usize) -> bool {
        num_cores == self.cores.len()
    }

    fn fork_cores(&mut self, num_cores: usize) -> Option<&(dyn ShardedGuard + '_)> {
        (num_cores == self.cores.len()).then_some(self as &dyn ShardedGuard)
    }

    fn merge_forked(&mut self) {
        for core in &mut self.cores {
            let p = &mut shard_mut(core).pending;
            self.stats.absorb(&p.stats);
            p.stats = BcuStats::default();
            for v in p.violations.drain(..) {
                if self.violations.len() < 4096 {
                    self.violations.push(v);
                }
            }
        }
    }
}

impl Bcu {
    /// Context switch (§6.2 point 3): both RCache levels flush entirely;
    /// the next kernel's RBT misses amortize with its TLB misses.
    pub fn on_context_switch(&mut self) {
        for core in &mut self.cores {
            let rc = &mut shard_mut(core).rc;
            rc.l1.flush_all();
            rc.l2.flush_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpushield_driver::{encrypt_id, write_entry};
    use gpushield_isa::{MemSpace, SiteCheck, TaggedPtr};
    use gpushield_mem::AllocPolicy;

    fn setup_env() -> (VirtualMemorySpace, ShieldSetup, u16, u64) {
        let mut vm = VirtualMemorySpace::new();
        let rbt = vm
            .alloc(gpushield_driver::RBT_BYTES, AllocPolicy::Isolated)
            .unwrap();
        let buf = vm.alloc(256, AllocPolicy::Device512).unwrap();
        let setup = ShieldSetup {
            kernel_id: 5,
            rbt_base: rbt.va,
            key: 0xFEED_F00D_1234_5678,
        };
        let id: u16 = 0x0AB;
        write_entry(
            &mut vm,
            rbt.va,
            id,
            &BoundsEntry {
                valid: true,
                readonly: false,
                kernel_id: 5,
                base: buf.va,
                size: 256,
            },
        )
        .unwrap();
        (vm, setup, id, buf.va)
    }

    fn access(ptr: TaggedPtr, range: (u64, u64), is_store: bool) -> MemAccess {
        MemAccess {
            core: 0,
            kernel_id: 5,
            is_store,
            space: MemSpace::Global,
            pointer: ptr,
            site: (BlockId(0), 0),
            range,
            site_check: SiteCheck::Runtime,
            transactions: 1,
            active_lanes: 1,
            l1d_all_hit: true,
        }
    }

    #[test]
    fn in_bounds_access_allowed_and_cached() {
        let (vm, setup, id, base) = setup_env();
        let mut bcu = Bcu::new(BcuConfig::default(), 1);
        bcu.register_kernel(setup);
        let ptr = TaggedPtr::with_region_id(base, encrypt_id(id, setup.key));
        // First access: RBT fetch.
        let r1 = bcu.check(&access(ptr, (base, base + 4), false), &vm);
        assert_eq!(r1.verdict, GuardVerdict::Allow);
        // Second: L1 RCache hit, zero stall under the default latencies.
        let r2 = bcu.check(&access(ptr, (base + 4, base + 8), false), &vm);
        assert_eq!(r2.verdict, GuardVerdict::Allow);
        assert_eq!(r2.stall_cycles, 0);
        let s = bcu.stats();
        assert_eq!(s.rbt_fetches, 1);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.violations, 0);
    }

    #[test]
    fn out_of_bounds_faults_precisely() {
        let (vm, setup, id, base) = setup_env();
        let mut bcu = Bcu::new(BcuConfig::default(), 1);
        bcu.register_kernel(setup);
        let ptr = TaggedPtr::with_region_id(base, encrypt_id(id, setup.key));
        let r = bcu.check(&access(ptr, (base + 256, base + 260), true), &vm);
        assert_eq!(r.verdict, GuardVerdict::Fault);
        assert_eq!(bcu.violations()[0].kind, ViolationKind::OutOfBounds);
    }

    #[test]
    fn squash_mode_logs_without_fault() {
        let (vm, setup, id, base) = setup_env();
        let cfg = BcuConfig {
            precise_faults: false,
            ..BcuConfig::default()
        };
        let mut bcu = Bcu::new(cfg, 1);
        bcu.register_kernel(setup);
        let ptr = TaggedPtr::with_region_id(base, encrypt_id(id, setup.key));
        let r = bcu.check(&access(ptr, (base + 300, base + 304), true), &vm);
        assert_eq!(r.verdict, GuardVerdict::Squash);
        assert_eq!(bcu.violations().len(), 1);
    }

    #[test]
    fn forged_id_is_rejected() {
        let (vm, setup, id, base) = setup_env();
        let mut bcu = Bcu::new(BcuConfig::default(), 1);
        bcu.register_kernel(setup);
        // Attacker writes a plausible-looking *plaintext* id into the
        // pointer without knowing the key: decryption scrambles it.
        let forged = TaggedPtr::with_region_id(base, id);
        let r = bcu.check(&access(forged, (base, base + 4), true), &vm);
        // Either the decrypted id hits an invalid entry (BadRegion) or, with
        // astronomically small probability, a valid one; with this key it
        // is invalid.
        assert_eq!(r.verdict, GuardVerdict::Fault);
        assert_eq!(bcu.violations()[0].kind, ViolationKind::BadRegion);
    }

    #[test]
    fn readonly_enforced_for_stores_only() {
        let (mut vm, setup, _, _) = setup_env();
        let ro_buf = vm.alloc(64, AllocPolicy::Device512).unwrap();
        let ro_id = 0x0CD;
        write_entry(
            &mut vm,
            setup.rbt_base,
            ro_id,
            &BoundsEntry {
                valid: true,
                readonly: true,
                kernel_id: 5,
                base: ro_buf.va,
                size: 64,
            },
        )
        .unwrap();
        let mut bcu = Bcu::new(BcuConfig::default(), 1);
        bcu.register_kernel(setup);
        let ptr = TaggedPtr::with_region_id(ro_buf.va, encrypt_id(ro_id, setup.key));
        let load = bcu.check(&access(ptr, (ro_buf.va, ro_buf.va + 4), false), &vm);
        assert_eq!(load.verdict, GuardVerdict::Allow);
        let store = bcu.check(&access(ptr, (ro_buf.va, ro_buf.va + 4), true), &vm);
        assert_eq!(store.verdict, GuardVerdict::Fault);
        assert_eq!(bcu.violations()[0].kind, ViolationKind::ReadOnly);
    }

    #[test]
    fn type3_checks_without_rcache() {
        let (vm, _, _, _) = setup_env();
        let mut bcu = Bcu::new(BcuConfig::default(), 1);
        let base = 0x10_0000;
        let ptr = TaggedPtr::with_log2_size(base, 9); // 512B
        let ok = bcu.check(&access(ptr, (base, base + 512), false), &vm);
        assert_eq!(ok.verdict, GuardVerdict::Allow);
        let bad = bcu.check(&access(ptr, (base + 512, base + 516), true), &vm);
        assert_eq!(bad.verdict, GuardVerdict::Fault);
        let under = bcu.check(&access(ptr, (base - 4, base), true), &vm);
        assert_eq!(under.verdict, GuardVerdict::Fault);
        assert_eq!(bcu.stats().type3_checks, 3);
        assert_eq!(bcu.stats().rbt_fetches, 0);
    }

    #[test]
    fn stall_rule_matches_fig12() {
        let (vm, setup, id, base) = setup_env();
        let mut bcu = Bcu::new(BcuConfig::default(), 1);
        bcu.register_kernel(setup);
        let ptr = TaggedPtr::with_region_id(base, encrypt_id(id, setup.key));
        // Prime the L2 (first access fetches from RBT).
        let _ = bcu.check(&access(ptr, (base, base + 4), false), &vm);
        bcu.on_kernel_end(5); // flush both levels
        let _ = bcu.check(&access(ptr, (base, base + 4), false), &vm);
        // Now resident in both; evict from L1 by filling it with others.
        // Easier: flush L1 only is not exposed — verify L1-hit (0 stall)
        // and multi-transaction hiding instead.
        let hit = bcu.check(&access(ptr, (base, base + 4), false), &vm);
        assert_eq!(hit.stall_cycles, 0, "L1 RCache hit is fully hidden");
        let mut multi = access(ptr, (base, base + 4), false);
        multi.transactions = 4;
        multi.l1d_all_hit = false;
        let hidden = bcu.check(&multi, &vm);
        assert_eq!(hidden.stall_cycles, 0, "multi-transaction hides the BCU");
    }

    #[test]
    fn two_cycle_l1_exposes_one_bubble() {
        let (vm, setup, id, base) = setup_env();
        let cfg = BcuConfig {
            l1_latency: 2,
            l2_latency: 5,
            ..BcuConfig::default()
        };
        let mut bcu = Bcu::new(cfg, 1);
        bcu.register_kernel(setup);
        let ptr = TaggedPtr::with_region_id(base, encrypt_id(id, setup.key));
        let _ = bcu.check(&access(ptr, (base, base + 4), false), &vm); // prime
        let hit = bcu.check(&access(ptr, (base, base + 4), false), &vm);
        // gather(1) + L1(2) + compare(1) = 4 vs overlap budget 3 → 1 bubble.
        assert_eq!(hit.stall_cycles, 1);
    }

    #[test]
    fn unregistered_kernel_fails_safe() {
        let (vm, _, id, base) = setup_env();
        let mut bcu = Bcu::new(BcuConfig::default(), 1);
        let ptr = TaggedPtr::with_region_id(base, id);
        let r = bcu.check(&access(ptr, (base, base + 4), false), &vm);
        assert_eq!(r.verdict, GuardVerdict::Fault);
        assert_eq!(bcu.violations()[0].kind, ViolationKind::UnknownKernel);
    }

    #[test]
    fn strict_mode_rejects_non_region_pointers_at_runtime_sites() {
        let (vm, setup, _, base) = setup_env();
        let cfg = BcuConfig {
            strict_runtime_tags: true,
            ..BcuConfig::default()
        };
        let mut bcu = Bcu::new(cfg, 1);
        bcu.register_kernel(setup);
        // A raw (untagged) VA smuggled in through data: class Unprotected.
        let raw = TaggedPtr::from_raw(base);
        let r = bcu.check(&access(raw, (base, base + 4), true), &vm);
        assert_eq!(r.verdict, GuardVerdict::Fault);
        assert_eq!(bcu.violations()[0].kind, ViolationKind::ForgedPointer);
        // A crafted Type 3 value claiming a huge power-of-two bound.
        let crafted = TaggedPtr::with_log2_size(base, 40);
        let r = bcu.check(&access(crafted, (base, base + 4), true), &vm);
        assert_eq!(r.verdict, GuardVerdict::Fault);
        assert_eq!(bcu.violations()[1].kind, ViolationKind::ForgedPointer);
        assert_eq!(bcu.stats().unprotected, 0);
        assert_eq!(bcu.stats().type3_checks, 0);
    }

    #[test]
    fn strict_mode_spares_static_sites_and_default_allows() {
        let (vm, setup, _, base) = setup_env();
        let cfg = BcuConfig {
            strict_runtime_tags: true,
            ..BcuConfig::default()
        };
        let mut bcu = Bcu::new(cfg, 1);
        bcu.register_kernel(setup);
        // A statically-proven site carries an untagged pointer by design.
        let mut proven = access(TaggedPtr::from_raw(base), (base, base + 4), false);
        proven.site_check = SiteCheck::Static;
        assert_eq!(bcu.check(&proven, &vm).verdict, GuardVerdict::Allow);
        // With strict mode off (the default) the same runtime-site access
        // passes unchecked — the exposure the serving config closes.
        let mut lax = Bcu::new(BcuConfig::default(), 1);
        lax.register_kernel(setup);
        let r = lax.check(
            &access(TaggedPtr::from_raw(base), (base, base + 4), true),
            &vm,
        );
        assert_eq!(r.verdict, GuardVerdict::Allow);
        assert_eq!(lax.stats().unprotected, 1);
    }

    #[test]
    fn rcache_evictions_attribute_cross_kernel_pressure() {
        let (mut vm, setup, _, _) = setup_env();
        // Two kernels sharing one core, each touching more regions than the
        // 2-entry L1 holds, forces displacement; victims from the other
        // kernel count as cross-kernel contention.
        let other = ShieldSetup {
            kernel_id: 6,
            key: 0x1357_9BDF_0246_8ACE,
            ..setup
        };
        let mut ids = Vec::new();
        for i in 0..4u16 {
            let buf = vm.alloc(64, AllocPolicy::Device512).ok();
            let Some(buf) = buf else { panic!("alloc") };
            for k in [5u16, 6] {
                let id = 0x100 + i * 2 + (k - 5);
                write_entry(
                    &mut vm,
                    setup.rbt_base,
                    id,
                    &BoundsEntry {
                        valid: true,
                        readonly: false,
                        kernel_id: k,
                        base: buf.va,
                        size: 64,
                    },
                )
                .ok();
                ids.push((k, id, buf.va));
            }
        }
        let cfg = BcuConfig {
            l1_entries: 2,
            l2_entries: 4,
            ..BcuConfig::default()
        };
        let mut bcu = Bcu::new(cfg, 1);
        bcu.register_kernel(setup);
        bcu.register_kernel(other);
        // Kernel-major order: kernel 5 warms both levels, then kernel 6's
        // fills displace its residents.
        ids.sort_by_key(|(k, id, _)| (*k, *id));
        for (k, id, va) in &ids {
            let key = if *k == 5 { setup.key } else { other.key };
            let ptr = TaggedPtr::with_region_id(*va, encrypt_id(*id, key));
            let mut a = access(ptr, (*va, *va + 4), false);
            a.kernel_id = *k;
            assert_eq!(bcu.check(&a, &vm).verdict, GuardVerdict::Allow);
        }
        let s = bcu.stats();
        assert!(s.rcache_evictions > 0, "tiny RCaches must evict");
        assert!(
            s.cross_kernel_evictions > 0,
            "interleaved kernels must displace each other"
        );
        assert!(s.cross_kernel_evictions <= s.rcache_evictions);
    }

    #[test]
    fn l1_hit_rate_reported() {
        let (vm, setup, id, base) = setup_env();
        let mut bcu = Bcu::new(BcuConfig::default(), 1);
        bcu.register_kernel(setup);
        let ptr = TaggedPtr::with_region_id(base, encrypt_id(id, setup.key));
        for _ in 0..10 {
            let _ = bcu.check(&access(ptr, (base, base + 4), false), &vm);
        }
        let s = bcu.stats();
        assert_eq!(s.rbt_fetches, 1);
        assert_eq!(s.l1_hits, 9);
        assert!((s.l1_hit_rate() - 0.9).abs() < 1e-12);
    }
}
