//! Deterministic fault injection into the protection substrate.
//!
//! GPUShield's value proposition is surviving corrupted or adversarial
//! metadata, so the simulator can corrupt its own protection state mid-run
//! and observe how the system degrades. A [`FaultPlan`] is a seeded,
//! pre-generated schedule of corruptions; each [`FaultSpec`] fires when the
//! run's global-memory access counter reaches its trigger point. A run
//! with a fault session simulates every core on one engine worker, so the
//! counter advances in one deterministic order — core by core within each
//! cycle quantum, global atomics at the quantum drain — and the same plan
//! against the same workload produces byte-identical behaviour on every
//! run and at any `sim_threads` setting.
//!
//! Four structures can be corrupted (see [`FaultKind`]): RBT entries in
//! device memory, the tag bits of a pointer under check, the BAT's
//! per-site check decision, and resident RCache entries. The harness on
//! top (the `fault_resilience` exhibit) classifies what each injection led
//! to: detection, a false fault, silent corruption, a watchdog-terminated
//! hang, or no observable effect.

use crate::guard::MemGuard;
use crate::launch::SiteCheck;
use gpushield_isa::TaggedPtr;
use gpushield_mem::VirtualMemorySpace;
use gpushield_runtime::rng::StdRng;
use std::fmt;

/// Which protection-metadata structure a fault corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// Flip one bit of a live RBT entry in device memory. Persistent: every
    /// later bounds fetch of that entry (after RCache eviction) sees the
    /// corrupted metadata.
    RbtBitFlip,
    /// XOR bits into the tag field (bits 63:48 — pointer class and
    /// encrypted region ID) of the pointer one check observes. Transient:
    /// models a soft error on the wires between AGU and BCU; the register
    /// file itself is not modified.
    TagMangle,
    /// Falsify the BAT `SiteCheck` record for one access: a statically
    /// proven site is downgraded to a runtime check, or a runtime site
    /// skips its check entirely.
    SiteCheckFalsify,
    /// Corrupt one resident L1/L2 RCache entry on the executing core.
    /// Persistent until that entry is evicted or flushed.
    RcachePoison,
}

impl FaultKind {
    /// Every fault kind, in sweep order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::RbtBitFlip,
        FaultKind::TagMangle,
        FaultKind::SiteCheckFalsify,
        FaultKind::RcachePoison,
    ];

    /// Stable machine-readable name (used in reports and results files).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::RbtBitFlip => "rbt-bit-flip",
            FaultKind::TagMangle => "tag-mangle",
            FaultKind::SiteCheckFalsify => "sitecheck-falsify",
            FaultKind::RcachePoison => "rcache-poison",
        }
    }

    /// Stable integer code for flight-recorder payloads.
    pub fn code(self) -> u8 {
        match self {
            FaultKind::RbtBitFlip => 0,
            FaultKind::TagMangle => 1,
            FaultKind::SiteCheckFalsify => 2,
            FaultKind::RcachePoison => 3,
        }
    }

    /// Inverse of [`FaultKind::code`].
    pub fn from_code(code: u8) -> Option<FaultKind> {
        FaultKind::ALL.get(usize::from(code)).copied()
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to corrupt.
    pub kind: FaultKind,
    /// Global-memory access sequence number at which the fault fires (the
    /// first access whose sequence number is `>= at_access` triggers it).
    pub at_access: u64,
    /// Deterministic entropy selecting the victim bit/entry.
    pub entropy: u64,
}

/// A seeded, pre-generated schedule of faults for one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan that injects nothing — running with it is behaviourally
    /// identical to an uninjected run.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// A plan holding exactly one fault.
    pub fn single(kind: FaultKind, at_access: u64, entropy: u64) -> Self {
        FaultPlan {
            specs: vec![FaultSpec {
                kind,
                at_access,
                entropy,
            }],
        }
    }

    /// Generates `count` faults drawn from `kinds`, with trigger points
    /// uniform in `[0, access_window)`. Fully determined by `seed`.
    pub fn generate(seed: u64, kinds: &[FaultKind], count: usize, access_window: u64) -> Self {
        assert!(!kinds.is_empty(), "no fault kinds to draw from");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut specs: Vec<FaultSpec> = (0..count)
            .map(|_| FaultSpec {
                kind: kinds[rng.gen_range(0..kinds.len() as u64) as usize],
                at_access: rng.gen_range(0..access_window.max(1)),
                entropy: rng.gen(),
            })
            .collect();
        // Stable sort: ties keep generation order, so the plan (and the
        // in-run injection order) is a pure function of the seed.
        specs.sort_by_key(|s| s.at_access);
        FaultPlan { specs }
    }

    /// The scheduled faults, sorted by trigger point.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Addresses of protection metadata the injector may corrupt, precomputed
/// by the host layer (the driver knows the RBT layout; the simulator does
/// not need to).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultTargets {
    /// `(va, len)` of each live RBT entry in device memory.
    pub rbt_entries: Vec<(u64, u64)>,
}

/// One fault that came due during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionRecord {
    /// The scheduled fault.
    pub spec: FaultSpec,
    /// Cycle at which it fired.
    pub cycle: u64,
    /// Access sequence number at which it fired.
    pub access: u64,
    /// False when the fault had no possible victim (e.g. an RBT flip with
    /// no live entries, or an RCache poison with empty caches) and
    /// therefore corrupted nothing.
    pub applied: bool,
}

/// Live injection state threaded through one simulated run.
#[derive(Debug, Clone, Default)]
pub struct FaultSession {
    plan: FaultPlan,
    targets: FaultTargets,
    next: usize,
    access_seq: u64,
    injected: Vec<InjectionRecord>,
}

impl FaultSession {
    /// Builds a session from a plan and the metadata addresses it may hit.
    pub fn new(plan: FaultPlan, targets: FaultTargets) -> Self {
        FaultSession {
            plan,
            targets,
            next: 0,
            access_seq: 0,
            injected: Vec::new(),
        }
    }

    /// Consumes one access sequence number (called once per warp-level
    /// global-memory instruction) and returns it.
    pub(crate) fn begin_access(&mut self) -> u64 {
        let s = self.access_seq;
        self.access_seq += 1;
        s
    }

    /// Pops the next scheduled fault whose trigger point has been reached.
    pub(crate) fn take_due(&mut self, seq: u64) -> Option<FaultSpec> {
        let spec = *self.plan.specs.get(self.next)?;
        if spec.at_access <= seq {
            self.next += 1;
            Some(spec)
        } else {
            None
        }
    }

    /// The metadata addresses available to the injector.
    pub(crate) fn targets(&self) -> &FaultTargets {
        &self.targets
    }

    /// Records one fired fault.
    pub(crate) fn record(&mut self, spec: FaultSpec, cycle: u64, access: u64, applied: bool) {
        self.injected.push(InjectionRecord {
            spec,
            cycle,
            access,
            applied,
        });
    }

    /// Every fault that came due, in firing order.
    pub fn injected(&self) -> &[InjectionRecord] {
        &self.injected
    }

    /// Faults that actually corrupted something.
    pub fn applied_count(&self) -> usize {
        self.injected.iter().filter(|r| r.applied).count()
    }

    /// Scheduled faults that never came due (the run ended first).
    pub fn pending(&self) -> usize {
        self.plan.specs.len() - self.next
    }

    /// Global-memory accesses observed so far.
    pub fn accesses_observed(&self) -> u64 {
        self.access_seq
    }

    /// Deterministic one-line-per-fault textual log.
    pub fn log(&self) -> String {
        let mut out = String::new();
        for r in &self.injected {
            out.push_str(&format!(
                "{} at access {} (cycle {}){}\n",
                r.spec.kind,
                r.access,
                r.cycle,
                if r.applied { "" } else { " [no target]" }
            ));
        }
        out
    }
}

/// Applies every fault scheduled for the current global-memory access:
/// pointer-tag mangling and site-check falsification act on the in-flight
/// `access` (its tagged pointer and check decision), RBT bit flips and
/// RCache poisoning corrupt the metadata the bounds check will consult.
/// `on_applied` hears of each fault that corrupted something. Returns the
/// (possibly mangled) pointer and (possibly falsified) decision.
pub(crate) fn apply_due_faults(
    fs: &mut FaultSession,
    vm: &VirtualMemorySpace,
    mut guard: Option<&mut dyn MemGuard>,
    core: usize,
    cycle: u64,
    access: (TaggedPtr, SiteCheck),
    mut on_applied: impl FnMut(FaultKind),
) -> (TaggedPtr, SiteCheck) {
    let (mut ptr, mut decision) = access;
    let seq = fs.begin_access();
    while let Some(spec) = fs.take_due(seq) {
        let applied = match spec.kind {
            FaultKind::TagMangle => {
                ptr = mangle_pointer(ptr, spec.entropy);
                true
            }
            FaultKind::SiteCheckFalsify => {
                decision = match decision {
                    SiteCheck::Static => SiteCheck::Runtime,
                    _ => SiteCheck::Static,
                };
                true
            }
            FaultKind::RbtBitFlip => flip_rbt_bit(vm, fs.targets(), spec.entropy),
            FaultKind::RcachePoison => guard
                .as_deref_mut()
                .is_some_and(|g| g.inject_metadata_fault(core, spec.entropy)),
        };
        fs.record(spec, cycle, seq, applied);
        if applied {
            on_applied(spec.kind);
        }
    }
    (ptr, decision)
}

/// XORs 1–3 entropy-chosen bits into the tag field (bits 63:48) of `ptr`.
pub(crate) fn mangle_pointer(ptr: TaggedPtr, entropy: u64) -> TaggedPtr {
    let nbits = 1 + entropy % 3;
    let mut raw = ptr.raw();
    let mut e = entropy;
    for _ in 0..nbits {
        raw ^= 1u64 << (48 + (e % 16));
        e = e.rotate_right(11) ^ 0x9e37_79b9_7f4a_7c15;
    }
    TaggedPtr::from_raw(raw)
}

/// Flips one entropy-chosen bit of one live RBT entry via the
/// translation-bypass path (the same path the hardware uses). Returns
/// whether a bit was flipped.
pub(crate) fn flip_rbt_bit(vm: &VirtualMemorySpace, targets: &FaultTargets, entropy: u64) -> bool {
    if targets.rbt_entries.is_empty() {
        return false;
    }
    let (va, len) = targets.rbt_entries[(entropy as usize) % targets.rbt_entries.len()];
    if len == 0 {
        return false;
    }
    let bit = (entropy >> 8) % (len * 8);
    let byte_va = va + bit / 8;
    let mut b = [0u8; 1];
    if vm.read_bypass(byte_va, &mut b).is_err() {
        return false;
    }
    b[0] ^= 1 << (bit % 8);
    vm.write_bypass(byte_va, &b).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_generation_is_deterministic() {
        let a = FaultPlan::generate(42, &FaultKind::ALL, 16, 1000);
        let b = FaultPlan::generate(42, &FaultKind::ALL, 16, 1000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a
            .specs()
            .windows(2)
            .all(|w| w[0].at_access <= w[1].at_access));
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::generate(1, &FaultKind::ALL, 16, 1000);
        let b = FaultPlan::generate(2, &FaultKind::ALL, 16, 1000);
        assert_ne!(a, b);
    }

    #[test]
    fn session_fires_specs_in_order() {
        let plan = FaultPlan {
            specs: vec![
                FaultSpec {
                    kind: FaultKind::TagMangle,
                    at_access: 2,
                    entropy: 7,
                },
                FaultSpec {
                    kind: FaultKind::RbtBitFlip,
                    at_access: 2,
                    entropy: 9,
                },
                FaultSpec {
                    kind: FaultKind::RcachePoison,
                    at_access: 5,
                    entropy: 1,
                },
            ],
        };
        let mut s = FaultSession::new(plan, FaultTargets::default());
        assert_eq!(s.take_due(0), None);
        assert_eq!(s.take_due(2).unwrap().entropy, 7);
        assert_eq!(s.take_due(2).unwrap().entropy, 9);
        assert_eq!(s.take_due(2), None);
        assert_eq!(s.take_due(9).unwrap().entropy, 1, "late faults still fire");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn mangle_changes_only_tag_bits() {
        let p = TaggedPtr::unprotected(0x1234_5678);
        for e in 0..64u64 {
            let m = mangle_pointer(p, e.wrapping_mul(0x9E37_79B9));
            assert_eq!(m.va(), p.va(), "VA bits untouched");
            assert_ne!(m.raw(), p.raw(), "tag bits changed");
        }
    }

    #[test]
    fn rbt_flip_without_targets_is_a_noop() {
        let vm = VirtualMemorySpace::new();
        assert!(!flip_rbt_bit(&vm, &FaultTargets::default(), 123));
    }

    #[test]
    fn empty_plan_session_observes_but_never_fires() {
        let mut s = FaultSession::new(FaultPlan::empty(), FaultTargets::default());
        for _ in 0..10 {
            let seq = s.begin_access();
            assert_eq!(s.take_due(seq), None);
        }
        assert_eq!(s.accesses_observed(), 10);
        assert!(s.injected().is_empty());
    }
}
