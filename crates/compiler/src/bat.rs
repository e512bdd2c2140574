//! The Bounds-Analysis Table: per-site check decisions, per-pointer
//! classes, and statically detected violations (paper §5.3, Fig. 5's BAT).

use crate::absval::Origin;
use crate::analysis::{
    analyze_kernel, origin_size, protected_site_width, protected_space, resolve_site, transfer,
    LaunchKnowledge,
};
use gpushield_isa::{
    AddrExpr, BlockId, Cfg, CheckPlan, Instr, Kernel, MemSpace, Operand, PtrClass, SiteCheck,
};
use std::collections::HashMap;
use std::fmt;

/// Static-analysis configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisConfig {
    /// Enable Type 3 (size-embedded) pointers for Method A/C addressing
    /// (§5.3.3). Requires the driver to pad allocations to powers of two.
    pub enable_type3: bool,
    /// Enable redundant-check elision: a Type 2 site whose address
    /// expression was already checked on every incoming path (with no
    /// intervening redefinition of its registers) is upgraded to Type 1.
    /// Sound only under precise faulting — a squashed violation at the
    /// covering site would otherwise let the elided site run unchecked —
    /// so it is off by default and opted into per launch.
    pub enable_elision: bool,
}

/// An out-of-bounds access proven at compile time (reported to the user
/// immediately, §5.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticViolation {
    /// Offending instruction site.
    pub site: (BlockId, usize),
    /// Region accessed.
    pub origin: Origin,
    /// Proven offset bounds (bytes).
    pub offset_lo: i128,
    /// Upper offset bound (bytes).
    pub offset_hi: i128,
    /// The region's size.
    pub size: u64,
}

impl fmt::Display for StaticViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "static out-of-bounds at {}:{}: {} offset [{}, {}] vs size {}",
            self.site.0, self.site.1, self.origin, self.offset_lo, self.offset_hi, self.size
        )
    }
}

/// The compiler's full output for one kernel + launch configuration.
#[derive(Debug, Clone)]
pub struct BoundsAnalysis {
    /// Per-site decisions consumed by the hardware (attached to the binary
    /// and handed to the driver, Fig. 9 step ③).
    pub plan: CheckPlan,
    /// Pointer class the driver should tag each kernel argument with.
    pub param_class: Vec<PtrClass>,
    /// Pointer class for each local variable's base.
    pub local_class: Vec<PtrClass>,
    /// Statically proven violations.
    pub violations: Vec<StaticViolation>,
    /// Sites proven safe (Type 1).
    pub sites_static: usize,
    /// Sites requiring runtime RBT checks (Type 2).
    pub sites_runtime: usize,
    /// Sites using embedded-size checks (Type 3).
    pub sites_type3: usize,
    /// All protected-space memory sites.
    pub sites_total: usize,
    /// The region each resolvable site was proven to address, keyed by
    /// site. Sites whose base could not be traced are absent. The driver's
    /// soundness auditor uses this to turn per-site check claims into
    /// concrete virtual-address windows.
    pub site_origins: HashMap<(BlockId, usize), Origin>,
    /// Sites upgraded from Type 2 to Type 1 by redundant-check elision
    /// (empty unless [`AnalysisConfig::enable_elision`]), sorted. Their
    /// in-bounds guarantee is the *region* entry of their origin — the
    /// covering runtime check — not an interval proof of their own.
    pub elided_sites: Vec<(BlockId, usize)>,
    /// Worklist iterations the interval fixpoint consumed — a widening
    /// health diagnostic (bounded far below the fuel ceiling for any
    /// well-behaved kernel; see the nested-loop termination test).
    pub fixpoint_iterations: u32,
}

impl BoundsAnalysis {
    /// Fraction of sites whose runtime check was eliminated, in `[0, 1]`.
    pub fn static_fraction(&self) -> f64 {
        if self.sites_total == 0 {
            0.0
        } else {
            self.sites_static as f64 / self.sites_total as f64
        }
    }
}

/// Runs the LLVM-style static bounds analysis of §5.3 on `kernel` with the
/// launch-time knowledge `know`, producing the Bounds-Analysis Table.
///
/// # Example
///
/// ```
/// use gpushield_compiler::{analyze, AnalysisConfig, ArgInfo, LaunchKnowledge};
/// use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand};
///
/// // out[tid] = tid — provably in bounds for a 64-element buffer.
/// let mut b = KernelBuilder::new("iota");
/// let out = b.param_buffer("out", false);
/// let tid = b.global_thread_id();
/// let off = b.shl(tid, Operand::Imm(2));
/// b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
/// b.ret();
/// let k = b.finish()?;
///
/// let know = LaunchKnowledge {
///     args: vec![ArgInfo::Buffer { size: 64 * 4 }],
///     local_sizes: vec![],
///     block: 16,
///     grid: 4,
///     heap_size: None,
/// };
/// let bat = analyze(&k, &know, AnalysisConfig::default());
/// assert_eq!(bat.sites_static, 1);
/// assert_eq!(bat.sites_total, 1);
/// # Ok::<(), gpushield_isa::ValidateError>(())
/// ```
pub fn analyze(kernel: &Kernel, know: &LaunchKnowledge, cfg: AnalysisConfig) -> BoundsAnalysis {
    classify(kernel, &site_facts(kernel, know), cfg, None)
}

/// What the interval fixpoint established about one protected site.
#[derive(Debug, Clone, Copy)]
enum SiteFact {
    /// The base could not be traced to a region: a runtime check.
    Unresolved,
    /// Proven in bounds (Type 1).
    InBounds(Origin),
    /// Proven out of bounds: reported as a violation, and checked at
    /// runtime.
    OutOfBounds(Origin),
    /// Neither: Type 3 when the configuration and the addressing method
    /// allow it, else Type 2.
    Unproven { origin: Origin, method: char },
}

/// The half of [`analyze`] that no [`AnalysisConfig`] affects: the interval
/// fixpoint's verdict on every protected site. Compute it once per
/// (kernel, launch knowledge) with [`site_facts`] and [`classify`] it under
/// each configuration needed.
#[derive(Debug)]
pub struct SiteFacts {
    /// Protected sites in program order.
    sites: Vec<((BlockId, usize), SiteFact)>,
    violations: Vec<StaticViolation>,
    iterations: u32,
}

/// Runs the interval fixpoint on `kernel` under `know` and resolves every
/// protected-space memory site: the configuration-independent half of
/// [`analyze`].
pub fn site_facts(kernel: &Kernel, know: &LaunchKnowledge) -> SiteFacts {
    let result = analyze_kernel(kernel, know);
    let mut sites = Vec::new();
    let mut violations = Vec::new();
    for (bi, blk) in kernel.blocks().iter().enumerate() {
        let Some(entry) = &result.in_states[bi] else {
            continue; // unreachable block: never executes, nothing to check
        };
        // Only the states at protected sites are read, so the walk stops
        // at the block's last one (and skips a block without any).
        let Some(last) = blk
            .instrs()
            .iter()
            .rposition(|i| protected_site_width(i).is_some())
        else {
            continue;
        };
        let mut st = entry.clone();
        let mut cmp_defs = HashMap::new();
        for (ii, instr) in blk.instrs()[..=last].iter().enumerate() {
            if let Some(width) = protected_site_width(instr) {
                let site = (BlockId(bi as u32), ii);
                let fact = match resolve_site(instr, &st, kernel, know) {
                    None => SiteFact::Unresolved,
                    Some(sa) => {
                        let unproven = SiteFact::Unproven {
                            origin: sa.origin,
                            method: sa.method,
                        };
                        match origin_size(sa.origin, kernel, know) {
                            Some(size) => {
                                let limit = i128::from(size) - i128::from(width);
                                if sa.offset.within(0, limit) {
                                    SiteFact::InBounds(sa.origin)
                                } else if sa.offset.lo() > limit || sa.offset.hi() < 0 {
                                    violations.push(StaticViolation {
                                        site,
                                        origin: sa.origin,
                                        offset_lo: sa.offset.lo(),
                                        offset_hi: sa.offset.hi(),
                                        size,
                                    });
                                    SiteFact::OutOfBounds(sa.origin)
                                } else {
                                    unproven
                                }
                            }
                            None => unproven,
                        }
                    }
                };
                sites.push((site, fact));
            }
            transfer(instr, &mut st, &mut cmp_defs, kernel, know);
        }
    }
    SiteFacts {
        sites,
        violations,
        iterations: result.iterations,
    }
}

/// Classifies every site of `facts` under `cfg`, producing the
/// Bounds-Analysis Table [`analyze`] would. `graph` is `kernel`'s CFG when
/// the caller already has one; elision builds it otherwise.
pub fn classify(
    kernel: &Kernel,
    facts: &SiteFacts,
    cfg: AnalysisConfig,
    graph: Option<&Cfg>,
) -> BoundsAnalysis {
    let mut plan = CheckPlan::all_runtime();
    // Raw per-site decisions plus the origin of each dynamic site, for
    // the pointer-class consolidation pass.
    let mut site_origin: HashMap<(BlockId, usize), Origin> = HashMap::new();
    let mut tentative: Vec<((BlockId, usize), SiteCheck)> = Vec::new();
    for &(site, fact) in &facts.sites {
        let decision = match fact {
            SiteFact::Unresolved => SiteCheck::Runtime,
            SiteFact::InBounds(origin) => {
                site_origin.insert(site, origin);
                SiteCheck::Static
            }
            SiteFact::OutOfBounds(origin) => {
                site_origin.insert(site, origin);
                SiteCheck::Runtime
            }
            SiteFact::Unproven { origin, method } => {
                site_origin.insert(site, origin);
                maybe_type3(cfg, method, origin)
            }
        };
        tentative.push((site, decision));
    }

    // Consolidation: a pointer carries exactly one tag, so a region with
    // any Runtime (Type 2) site must be tagged Type 2 — its would-be
    // Type 3 sites are downgraded to Runtime.
    let mut region_has_runtime: HashMap<Origin, bool> = HashMap::new();
    for (site, d) in &tentative {
        if *d == SiteCheck::Runtime {
            if let Some(o) = site_origin.get(site) {
                region_has_runtime.insert(*o, true);
            }
        }
    }
    let mut sites_static = 0;
    let mut sites_runtime = 0;
    let mut sites_type3 = 0;
    let mut region_class: HashMap<Origin, PtrClass> = HashMap::new();
    for (site, d) in tentative {
        let origin = site_origin.get(&site).copied();
        let d = match d {
            SiteCheck::SizeEmbedded
                if origin
                    .map(|o| region_has_runtime.get(&o).copied().unwrap_or(false))
                    .unwrap_or(true) =>
            {
                SiteCheck::Runtime
            }
            other => other,
        };
        match d {
            SiteCheck::Static => sites_static += 1,
            SiteCheck::Runtime => {
                sites_runtime += 1;
                if let Some(o) = origin {
                    region_class.insert(o, PtrClass::Region);
                }
            }
            SiteCheck::SizeEmbedded => {
                sites_type3 += 1;
                if let Some(o) = origin {
                    region_class.entry(o).or_insert(PtrClass::SizeEmbedded);
                }
            }
        }
        plan.set(site, d);
    }
    // A site whose base could not be resolved still needs a tag to check
    // against at runtime; conservatively tag every buffer that has no class
    // yet as Region when any unresolved runtime site exists, otherwise
    // Unprotected. Unresolved sites use Method B pointers whose tag flows
    // from whichever buffer they were derived from, so Region is the safe
    // default for all buffer arguments that were not proven all-static.
    let any_unresolved = plan
        .iter()
        .any(|(s, d)| d == SiteCheck::Runtime && !site_origin.contains_key(&s));
    let param_class = (0..kernel.params().len() as u8)
        .map(|p| {
            if !kernel.params()[usize::from(p)].is_buffer() {
                PtrClass::Unprotected
            } else {
                match region_class.get(&Origin::Param(p)) {
                    Some(c) => *c,
                    None if any_unresolved => PtrClass::Region,
                    None => PtrClass::Unprotected,
                }
            }
        })
        .collect();
    let local_class = (0..kernel.locals().len() as u8)
        .map(|v| match region_class.get(&Origin::Local(v)) {
            Some(c) => *c,
            None if any_unresolved => PtrClass::Region,
            None => PtrClass::Unprotected,
        })
        .collect();

    let mut elided_sites = Vec::new();
    if cfg.enable_elision {
        elided_sites = match graph {
            Some(g) => elide_redundant_checks(kernel, g, &mut plan),
            None => elide_redundant_checks(kernel, &Cfg::build(kernel), &mut plan),
        };
        sites_static += elided_sites.len();
        sites_runtime -= elided_sites.len();
    }

    BoundsAnalysis {
        sites_total: sites_static + sites_runtime + sites_type3,
        plan,
        param_class,
        local_class,
        violations: facts.violations.clone(),
        sites_static,
        sites_runtime,
        sites_type3,
        site_origins: site_origin,
        elided_sites,
        fixpoint_iterations: facts.iterations,
    }
}

/// What a dominating runtime check established for one address expression:
/// the widest access checked and whether any checking site was a write
/// (stores may only ride on a checked *store*, which also exercised the
/// region's read-only bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Avail {
    width: u64,
    store: bool,
}

type AvailState = HashMap<(AddrExpr, MemSpace), Avail>;

fn addr_mentions(addr: &AddrExpr, r: gpushield_isa::VReg) -> bool {
    let ops: [Option<Operand>; 2] = match addr {
        AddrExpr::BindingTable { offset, .. } => [Some(*offset), None],
        AddrExpr::Flat { addr } => [Some(*addr), None],
        AddrExpr::BaseOffset { base, offset } => [Some(*base), Some(*offset)],
    };
    ops.iter()
        .flatten()
        .any(|op| matches!(op, Operand::Reg(x) if *x == r))
}

/// Available-expressions dataflow over the Type 2 sites of `plan`: a site
/// is upgraded to [`SiteCheck::Static`] when, on *every* path reaching it,
/// an identical address expression (same [`AddrExpr`] and space, registers
/// not redefined in between) was already checked at a Type 2 site with at
/// least this site's width — and, for writes, that covering check was
/// itself a write. Intersection at joins makes this the dataflow form of
/// "dominated by an identical-region check"; it is strictly more precise
/// than a dominator-tree walk because a check on each arm of a diamond
/// also covers the join.
fn elide_redundant_checks(
    kernel: &Kernel,
    cfg: &Cfg,
    plan: &mut CheckPlan,
) -> Vec<(BlockId, usize)> {
    let nblocks = kernel.blocks().len();

    // Per-block walk: from an entry state, computes the exit state and —
    // in the decision pass — records sites whose key is available at the
    // point of the access.
    let walk = |bi: usize, st: &mut AvailState, elided: Option<&mut Vec<(BlockId, usize)>>| {
        let mut elided = elided;
        for (ii, instr) in kernel.blocks()[bi].instrs().iter().enumerate() {
            if let Instr::Ld {
                addr, space, width, ..
            }
            | Instr::St {
                addr, space, width, ..
            }
            | Instr::AtomAdd {
                addr, space, width, ..
            } = instr
            {
                let site = (BlockId(bi as u32), ii);
                if protected_space(*space) && plan.get(site) == SiteCheck::Runtime {
                    let key = (*addr, *space);
                    let is_write = !matches!(instr, Instr::Ld { .. });
                    if let Some(out) = elided.as_deref_mut() {
                        if let Some(a) = st.get(&key) {
                            if a.width >= width.bytes() && (a.store || !is_write) {
                                out.push(site);
                            }
                        }
                    }
                    let e = st.entry(key).or_insert(Avail {
                        width: 0,
                        store: false,
                    });
                    e.width = e.width.max(width.bytes());
                    e.store |= is_write;
                }
            }
            if let Some(r) = instr.dst() {
                st.retain(|(addr, _), _| !addr_mentions(addr, r));
            }
        }
    };

    let meet = |a: &AvailState, b: &AvailState| -> AvailState {
        let mut out = AvailState::new();
        for (k, va) in a {
            if let Some(vb) = b.get(k) {
                out.insert(
                    *k,
                    Avail {
                        width: va.width.min(vb.width),
                        store: va.store && vb.store,
                    },
                );
            }
        }
        out
    };

    // Fixpoint on block-entry states; `None` is ⊤ (block not yet reached),
    // so loops converge from above as in classic available expressions.
    let mut in_states: Vec<Option<AvailState>> = vec![None; nblocks];
    in_states[0] = Some(AvailState::new());
    let mut changed = true;
    while changed {
        changed = false;
        for bi in 0..nblocks {
            let Some(entry) = in_states[bi].clone() else {
                continue;
            };
            let mut st = entry;
            walk(bi, &mut st, None);
            for s in cfg.successors(BlockId(bi as u32)) {
                let si = s.0 as usize;
                let new = match &in_states[si] {
                    None => st.clone(),
                    Some(old) => meet(old, &st),
                };
                if in_states[si].as_ref() != Some(&new) {
                    in_states[si] = Some(new);
                    changed = true;
                }
            }
        }
    }

    let mut elided = Vec::new();
    for (bi, state) in in_states.iter().enumerate() {
        let Some(entry) = state.clone() else {
            continue;
        };
        let mut st = entry;
        walk(bi, &mut st, Some(&mut elided));
    }
    elided.sort_unstable();
    for site in &elided {
        plan.set(*site, SiteCheck::Static);
    }
    elided
}

fn maybe_type3(cfg: AnalysisConfig, method: char, origin: Origin) -> SiteCheck {
    if cfg.enable_type3 && (method == 'A' || method == 'C') && origin != Origin::Heap {
        SiteCheck::SizeEmbedded
    } else {
        SiteCheck::Runtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ArgInfo;
    use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand};

    fn know(sizes: &[u64], block: u32, grid: u32) -> LaunchKnowledge {
        LaunchKnowledge {
            args: sizes.iter().map(|s| ArgInfo::Buffer { size: *s }).collect(),
            local_sizes: vec![],
            block,
            grid,
            heap_size: None,
        }
    }

    #[test]
    fn affine_tid_access_is_static() {
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        let k = b.finish().unwrap();
        let bat = analyze(&k, &know(&[1024 * 4], 256, 4), AnalysisConfig::default());
        assert_eq!(bat.sites_static, 1);
        assert_eq!(bat.param_class[0], PtrClass::Unprotected);
        assert!(bat.violations.is_empty());
    }

    #[test]
    fn undersized_buffer_needs_runtime_check() {
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        let k = b.finish().unwrap();
        // 1024 threads but only 512 elements: offsets may exceed the size.
        let bat = analyze(&k, &know(&[512 * 4], 256, 4), AnalysisConfig::default());
        assert_eq!(bat.sites_runtime, 1);
        assert_eq!(bat.param_class[0], PtrClass::Region);
    }

    #[test]
    fn guarded_access_is_proven_by_refinement() {
        // if (tid < n) out[tid] = 1 — the §6.4 software-check idiom.
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let n = b.param_scalar("n");
        let tid = b.global_thread_id();
        let c = b.lt(tid, n);
        b.if_then(c, |b| {
            let off = b.shl(tid, Operand::Imm(2));
            b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        });
        b.ret();
        let k = b.finish().unwrap();
        let knowledge = LaunchKnowledge {
            args: vec![
                ArgInfo::Buffer { size: 100 * 4 },
                ArgInfo::Scalar { value: Some(100) },
            ],
            local_sizes: vec![],
            block: 256,
            grid: 16,
            heap_size: None,
        };
        let bat = analyze(&k, &knowledge, AnalysisConfig::default());
        assert_eq!(bat.sites_static, 1, "guard should prove the access safe");
    }

    #[test]
    fn counted_loop_is_proven_by_widening_plus_refinement() {
        // for i in 0..n: out[i] = i, n known = buffer length.
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let n = b.param_scalar("n");
        b.for_loop(Operand::Imm(0), n, 1, |b, i| {
            let off = b.shl(i, Operand::Imm(2));
            b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), i);
        });
        b.ret();
        let k = b.finish().unwrap();
        let knowledge = LaunchKnowledge {
            args: vec![
                ArgInfo::Buffer { size: 64 * 4 },
                ArgInfo::Scalar { value: Some(64) },
            ],
            local_sizes: vec![],
            block: 32,
            grid: 1,
            heap_size: None,
        };
        let bat = analyze(&k, &knowledge, AnalysisConfig::default());
        assert_eq!(bat.sites_static, 1);
    }

    #[test]
    fn indirect_access_stays_runtime() {
        // out[idx[tid]] = 1 — graph-style indirection.
        let mut b = KernelBuilder::new("k");
        let idx = b.param_buffer("idx", true);
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let ioff = b.shl(tid, Operand::Imm(2));
        let j = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(idx, ioff));
        let off = b.shl(j, Operand::Imm(2));
        b.st(
            MemSpace::Global,
            MemWidth::W4,
            b.base_offset(out, off),
            Operand::Imm(1),
        );
        b.ret();
        let k = b.finish().unwrap();
        let bat = analyze(
            &k,
            &know(&[64 * 4, 64 * 4], 16, 4),
            AnalysisConfig::default(),
        );
        assert_eq!(bat.sites_static, 1, "the index load itself is affine");
        assert_eq!(bat.sites_runtime, 1, "the indirect store is not");
        assert_eq!(bat.param_class[1], PtrClass::Region);
    }

    #[test]
    fn guaranteed_overflow_is_reported_statically() {
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        b.st(
            MemSpace::Global,
            MemWidth::W4,
            b.base_offset(out, Operand::Imm(4096)),
            Operand::Imm(0xBAD),
        );
        b.ret();
        let k = b.finish().unwrap();
        let bat = analyze(&k, &know(&[64], 1, 1), AnalysisConfig::default());
        assert_eq!(bat.violations.len(), 1);
        assert_eq!(bat.violations[0].size, 64);
        assert_eq!(bat.violations[0].offset_lo, 4096);
    }

    #[test]
    fn type3_applies_to_method_c_sites_without_runtime_peers() {
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let n = b.param_scalar("n"); // unknown scalar → unprovable offset
        let off4 = b.shl(n, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off4), n);
        b.ret();
        let k = b.finish().unwrap();
        let knowledge = LaunchKnowledge {
            args: vec![
                ArgInfo::Buffer { size: 256 },
                ArgInfo::Scalar { value: None },
            ],
            local_sizes: vec![],
            block: 16,
            grid: 1,
            heap_size: None,
        };
        let with = analyze(
            &k,
            &knowledge,
            AnalysisConfig {
                enable_type3: true,
                ..AnalysisConfig::default()
            },
        );
        assert_eq!(with.sites_type3, 1);
        assert_eq!(with.param_class[0], PtrClass::SizeEmbedded);
        let without = analyze(&k, &knowledge, AnalysisConfig::default());
        assert_eq!(without.sites_runtime, 1);
    }

    #[test]
    fn shared_memory_sites_are_not_counted() {
        let mut b = KernelBuilder::new("k");
        b.shared_mem(256);
        let tid = b.mov(b.thread_id());
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Shared, MemWidth::W4, b.flat(off), tid);
        b.ret();
        let k = b.finish().unwrap();
        let bat = analyze(&k, &know(&[], 16, 1), AnalysisConfig::default());
        assert_eq!(bat.sites_total, 0);
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use crate::analysis::ArgInfo;
    use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand};

    fn know1(size: u64, block: u32, grid: u32) -> LaunchKnowledge {
        LaunchKnowledge {
            args: vec![ArgInfo::Buffer { size }],
            local_sizes: vec![],
            block,
            grid,
            heap_size: Some(1 << 20),
        }
    }

    #[test]
    fn heap_pointers_are_always_runtime() {
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let p = b.malloc(Operand::Imm(64));
        b.st(
            MemSpace::Global,
            MemWidth::W4,
            b.base_offset(p, Operand::Imm(0)),
            Operand::Imm(1),
        );
        b.st(
            MemSpace::Global,
            MemWidth::W4,
            b.base_offset(out, Operand::Imm(0)),
            Operand::Imm(1),
        );
        b.ret();
        let k = b.finish().unwrap();
        let bat = analyze(&k, &know1(4096, 16, 1), AnalysisConfig::default());
        // The heap store is runtime; the out store is provable.
        assert_eq!(bat.sites_runtime, 1);
        assert_eq!(bat.sites_static, 1);
    }

    #[test]
    fn select_joins_both_arms() {
        // off = sel(cond, 0, huge) — the huge arm must keep the site
        // runtime even though one arm is safe.
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let c = b.lt(tid, Operand::Imm(4));
        let off = b.sel(c, Operand::Imm(0), Operand::Imm(1 << 20));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        let k = b.finish().unwrap();
        let bat = analyze(&k, &know1(4096, 16, 1), AnalysisConfig::default());
        assert_eq!(bat.sites_runtime, 1);
    }

    #[test]
    fn ne_guard_does_not_prove_bounds() {
        // if (tid != 5) out[tid] — inequality refines nothing useful.
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let c = b.cmp(gpushield_isa::CmpOp::Ne, tid, Operand::Imm(5));
        b.if_then(c, |b| {
            let off = b.shl(tid, Operand::Imm(2));
            b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        });
        b.ret();
        let k = b.finish().unwrap();
        // 64 threads but a 32-element buffer: unsafe, must stay runtime.
        let bat = analyze(&k, &know1(32 * 4, 64, 1), AnalysisConfig::default());
        assert_eq!(bat.sites_runtime, 1);
    }

    #[test]
    fn eq_guard_pins_the_index() {
        // if (tid == 3) out[tid] = 1 — equality proves the exact slot.
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let c = b.eq(tid, Operand::Imm(3));
        b.if_then(c, |b| {
            let off = b.shl(tid, Operand::Imm(2));
            b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        });
        b.ret();
        let k = b.finish().unwrap();
        let bat = analyze(&k, &know1(16, 64, 4), AnalysisConfig::default());
        assert_eq!(bat.sites_static, 1, "tid==3 → offset 12 < 16");
    }

    #[test]
    fn flat_addressing_resolves_through_pointer_arithmetic() {
        // Method B: full address materialised in a register — the operand
        // tree walks back through the add to the buffer base (Fig. 8).
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        let full = b.add(out, off);
        let addr = b.flat(full);
        b.st(MemSpace::Global, MemWidth::W4, addr, tid);
        b.ret();
        let k = b.finish().unwrap();
        let bat = analyze(&k, &know1(64 * 4, 16, 4), AnalysisConfig::default());
        assert_eq!(bat.sites_static, 1, "flat form must still be provable");
        let bad = analyze(&k, &know1(16 * 4, 16, 4), AnalysisConfig::default());
        assert_eq!(bad.sites_runtime, 1);
    }

    #[test]
    fn provable_local_variable_is_unprotected() {
        let mut b = KernelBuilder::new("k");
        let v = b.local_var("arr", 4);
        let base = b.local_base(v);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Local, MemWidth::W4, b.base_offset(base, off), tid);
        b.ret();
        let k = b.finish().unwrap();
        let know = LaunchKnowledge {
            args: vec![],
            local_sizes: vec![64 * 4], // 64 threads × 4B word
            block: 16,
            grid: 4,
            heap_size: None,
        };
        let bat = analyze(&k, &know, AnalysisConfig::default());
        assert_eq!(bat.sites_static, 1);
        assert_eq!(bat.local_class[0], gpushield_isa::PtrClass::Unprotected);
    }

    #[test]
    fn fig13_kmeans_swap_guard_proves_everything() {
        // The paper's Fig. 13 kernel: the hoisted `if (tid < npoints)`
        // plus the feature loop — all sites provable when sizes line up.
        let mut b = KernelBuilder::new("swap");
        let feat = b.param_buffer("feat", true);
        let feat_swap = b.param_buffer("feat_swap", false);
        let npoints = b.param_scalar("npoints");
        const NF: i64 = 4;
        let tid = b.global_thread_id();
        let c = b.lt(tid, npoints);
        b.if_then(c, |b| {
            b.for_loop(Operand::Imm(0), Operand::Imm(NF), 1, |b, i| {
                let src_row = b.mul(tid, Operand::Imm(NF));
                let sidx = b.add(src_row, i);
                let soff = b.shl(sidx, Operand::Imm(2));
                let v = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(feat, soff));
                let dcol = b.mul(i, npoints);
                let didx = b.add(dcol, tid);
                let doff = b.shl(didx, Operand::Imm(2));
                b.st(
                    MemSpace::Global,
                    MemWidth::W4,
                    b.base_offset(feat_swap, doff),
                    v,
                );
            });
        });
        b.ret();
        let k = b.finish().unwrap();
        let np = 512u64;
        let know = LaunchKnowledge {
            args: vec![
                ArgInfo::Buffer {
                    size: np * NF as u64 * 4,
                },
                ArgInfo::Buffer {
                    size: np * NF as u64 * 4,
                },
                ArgInfo::Scalar { value: Some(np) },
            ],
            local_sizes: vec![],
            block: 256,
            grid: 4,
            heap_size: None,
        };
        let bat = analyze(&k, &know, AnalysisConfig::default());
        assert_eq!(bat.sites_static, bat.sites_total);
        assert_eq!(bat.sites_total, 2);
    }

    #[test]
    fn clamp_idiom_is_proven_through_min_max() {
        // idx = min(max(tid - 1, 0), n - 1) — the pathfinder edge clamp.
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let n = b.param_scalar("n");
        let tid = b.global_thread_id();
        let m1 = b.sub(tid, Operand::Imm(1));
        let lo = b.max(m1, Operand::Imm(0));
        let nm1 = b.sub(n, Operand::Imm(1));
        let idx = b.min(lo, nm1);
        let off = b.shl(idx, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        let k = b.finish().unwrap();
        let know = LaunchKnowledge {
            args: vec![
                ArgInfo::Buffer { size: 64 * 4 },
                ArgInfo::Scalar { value: Some(64) },
            ],
            local_sizes: vec![],
            block: 256, // far more threads than elements — the clamp saves it
            grid: 4,
            heap_size: None,
        };
        let bat = analyze(&k, &know, AnalysisConfig::default());
        assert_eq!(bat.sites_static, 1, "clamped index must be provable");
    }

    fn elide_cfg() -> AnalysisConfig {
        AnalysisConfig {
            enable_elision: true,
            ..AnalysisConfig::default()
        }
    }

    #[test]
    fn repeated_identical_access_is_elided_with_store_discipline() {
        // Three accesses to out[tid<<2] on an undersized buffer: the first
        // load checks; the store may NOT ride on a load-only check (it
        // must exercise the read-only bit itself); the second load rides
        // on either check.
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        let v = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(out, off));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), v);
        let _ = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(out, off));
        b.ret();
        let k = b.finish().unwrap();
        let know = know1(16, 64, 4); // 64 threads, 4 elements: unprovable
        let plain = analyze(&k, &know, AnalysisConfig::default());
        assert_eq!(plain.sites_runtime, 3);
        assert!(plain.elided_sites.is_empty());

        let bat = analyze(&k, &know, elide_cfg());
        assert_eq!(bat.elided_sites.len(), 1, "only the trailing load");
        assert_eq!(bat.sites_static, 1);
        assert_eq!(bat.sites_runtime, 2);
        let elided = bat.elided_sites[0];
        assert_eq!(bat.plan.get(elided), SiteCheck::Static);
        // The trailing load is the last memory instruction in block 0.
        assert!(matches!(k.blocks()[0].instrs()[elided.1], Instr::Ld { .. }));
    }

    #[test]
    fn store_rides_on_a_dominating_store_check() {
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        let k = b.finish().unwrap();
        let bat = analyze(&k, &know1(16, 64, 4), elide_cfg());
        assert_eq!(bat.sites_runtime, 1);
        assert_eq!(bat.elided_sites.len(), 1);
    }

    #[test]
    fn register_redefinition_kills_availability() {
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        let _ = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(out, off));
        // Same register, new value: the old check no longer covers it.
        let off2 = b.add(off, Operand::Imm(4));
        b.assign(off, off2);
        let _ = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(out, off));
        b.ret();
        let k = b.finish().unwrap();
        let bat = analyze(&k, &know1(16, 64, 4), elide_cfg());
        assert!(bat.elided_sites.is_empty(), "redefinition must kill");
        assert_eq!(bat.sites_runtime, 2);
    }

    #[test]
    fn join_is_covered_only_when_every_path_checks() {
        // Check on one arm only: the join access keeps its check. Check on
        // both arms: the join access is elided (this is where dataflow is
        // stronger than a dominator-tree walk).
        let build = |both: bool| {
            let mut b = KernelBuilder::new("k");
            let out = b.param_buffer("out", false);
            let tid = b.global_thread_id();
            let off = b.shl(tid, Operand::Imm(2));
            let c = b.lt(tid, Operand::Imm(32));
            b.if_then_else(
                c,
                |b| {
                    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
                },
                |b| {
                    if both {
                        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
                    }
                },
            );
            b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
            b.ret();
            b.finish().unwrap()
        };
        let know = know1(16, 64, 4);
        let one_arm = analyze(&build(false), &know, elide_cfg());
        assert!(one_arm.elided_sites.is_empty());
        let both_arms = analyze(&build(true), &know, elide_cfg());
        assert_eq!(both_arms.elided_sites.len(), 1);
        assert_eq!(both_arms.elided_sites[0].0, BlockId(3), "the join block");
    }

    #[test]
    fn narrower_checks_do_not_cover_wider_accesses() {
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(3));
        let _ = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(out, off));
        let _ = b.ld(MemSpace::Global, MemWidth::W8, b.base_offset(out, off));
        b.ret();
        let k = b.finish().unwrap();
        let bat = analyze(&k, &know1(16, 64, 4), elide_cfg());
        assert!(bat.elided_sites.is_empty(), "W8 exceeds the W4 check");
        // The other way around is covered.
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(3));
        let _ = b.ld(MemSpace::Global, MemWidth::W8, b.base_offset(out, off));
        let _ = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(out, off));
        b.ret();
        let k = b.finish().unwrap();
        let bat = analyze(&k, &know1(16, 64, 4), elide_cfg());
        assert_eq!(bat.elided_sites.len(), 1);
    }

    #[test]
    fn site_origins_cover_every_resolvable_site() {
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        let k = b.finish().unwrap();
        let bat = analyze(&k, &know1(64 * 4, 16, 4), AnalysisConfig::default());
        assert_eq!(bat.site_origins.len(), 1);
        assert_eq!(
            bat.site_origins.values().next().copied(),
            Some(Origin::Param(0))
        );
    }

    #[test]
    fn atomics_are_classified_like_stores() {
        let mut b = KernelBuilder::new("k");
        let hist = b.param_buffer("hist", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        let _ = b.atom_add(
            MemSpace::Global,
            MemWidth::W4,
            b.base_offset(hist, off),
            Operand::Imm(1),
        );
        b.ret();
        let k = b.finish().unwrap();
        let safe = analyze(&k, &know1(64 * 4, 16, 4), AnalysisConfig::default());
        assert_eq!(safe.sites_static, 1);
        let unsafe_ = analyze(&k, &know1(16, 16, 4), AnalysisConfig::default());
        assert_eq!(unsafe_.sites_runtime, 1);
        assert_eq!(unsafe_.violations.len(), 0, "some threads are in bounds");
    }
}
