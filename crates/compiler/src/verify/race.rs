//! Shared-memory race detection between consecutive barriers.
//!
//! GPUVerify-style two-thread reasoning specialised to this IR: shared
//! memory is private to a workgroup, so a data race is two accesses from
//! *distinct* threads of the same workgroup, at least one a non-atomic
//! write, touching overlapping bytes inside the same *barrier epoch* (the
//! region between two `Bar`s, where nothing orders the threads).
//!
//! Three ingredients:
//!
//! 1. **Affine addresses.** A forward fixpoint evaluates every register as
//!    `k·tid + c` with *interval* coefficients ([`Lin`]): `%tid` is
//!    `1·tid + 0`, uniform values have `k = 0`, and anything non-affine
//!    (loaded data, `tid·tid`) widens to `k = 0, c = ⊤` — which can never
//!    be proven disjoint, so over-approximation errs toward reporting.
//!    Branch edges refine the feasible `tid` range through comparisons on
//!    registers that hold exactly `tid` (`if (tid < s)` guards).
//! 2. **Barrier epochs.** Every epoch start (kernel entry and each `Bar`)
//!    scans forward over the CFG, collecting shared accesses until the
//!    next `Bar` on each path. Two accesses can race only when some epoch
//!    contains both — including an access paired with itself, which is how
//!    `sh[f(tid)]` with a non-injective `f` is caught.
//! 3. **Disjointness solving.** For a conflicting pair with singleton
//!    coefficients, the byte ranges `[k·t₁+c₁, +w₁)` and `[k·t₂+c₂, +w₂)`
//!    overlap for distinct `t₁ ≠ t₂` iff the integer window
//!    `-w₁ < k·Δ + (c₂-c₁) < w₂` admits a non-zero `Δ = t₂ - t₁` within
//!    the guard-refined thread ranges. No admissible `Δ` is a proof of
//!    race freedom for the pair.

use super::{Diagnostic, Pass, PassContext, Severity};
use crate::affine::{aff_bin, aff_un, negate, swap, Aff};
use crate::analysis::LaunchKnowledge;
use crate::interval::{Interval, NEG_INF, POS_INF};
use gpushield_isa::{
    AddrExpr, BinOp, BlockId, CmpOp, Instr, Kernel, MemSpace, Operand, ParamKind, Special, VReg,
};
use std::collections::HashMap;

/// The shared-memory race pass (`"race"`).
pub struct SharedRacePass;

/// Per-path abstract state: register values plus the feasible local-tid
/// range under the guards taken so far.
#[derive(Debug, Clone, PartialEq)]
struct State {
    regs: Vec<Aff>,
    tid: Interval,
}

type Fact = (CmpOp, Operand, Operand);

fn eval(op: Operand, st: &State, kernel: &Kernel, know: &LaunchKnowledge) -> Aff {
    match op {
        Operand::Reg(VReg(r)) => st.regs[usize::from(r)],
        Operand::Imm(i) => Aff::uniform(Interval::constant(i128::from(i))),
        Operand::Param(p) => match kernel.params()[usize::from(p)].kind() {
            ParamKind::Scalar => match know.args.get(usize::from(p)) {
                Some(crate::analysis::ArgInfo::Scalar { value: Some(v) }) => {
                    Aff::uniform(Interval::constant(i128::from(*v)))
                }
                _ => Aff::top(),
            },
            // A buffer pointer flowing into a *shared* address is already
            // nonsense; ⊤ keeps it unprovable.
            ParamKind::Buffer { .. } => Aff::top(),
        },
        Operand::LocalBase(_) => Aff::top(),
        Operand::Special(s) => match s {
            Special::ThreadId => Aff::tid(),
            // The lane index is `tid mod warp_width` — tid-dependent but
            // not affine in tid; ⊤ keeps it unprovable.
            Special::LaneId => Aff::top(),
            Special::BlockDim => Aff::uniform(Interval::constant(i128::from(know.block))),
            Special::GridDim => Aff::uniform(Interval::constant(i128::from(know.grid))),
            // Shared memory is block-local: both threads of a candidate
            // race share one `ctaid`, so the block index folds to a
            // uniform interval rather than staying symbolic.
            Special::BlockId => Aff::uniform(Interval::range(0, i128::from(know.grid) - 1)),
        },
    }
}

/// Transfers one instruction; maintains `cmp_defs` so branch conditions
/// trace back to their comparison (entries die when any mentioned register
/// is redefined).
fn transfer(
    instr: &Instr,
    st: &mut State,
    cmp_defs: &mut HashMap<u16, Fact>,
    kernel: &Kernel,
    know: &LaunchKnowledge,
) {
    let write = |st: &mut State, cmp_defs: &mut HashMap<u16, Fact>, dst: VReg, v: Aff| {
        st.regs[usize::from(dst.0)] = v;
        cmp_defs.retain(|key, (_, a, b)| {
            *key != dst.0 && *a != Operand::Reg(dst) && *b != Operand::Reg(dst)
        });
    };
    match instr {
        Instr::Mov { dst, src } => {
            let v = eval(*src, st, kernel, know);
            write(st, cmp_defs, *dst, v);
        }
        Instr::Un { op, dst, a } => {
            let v = aff_un(*op, eval(*a, st, kernel, know));
            write(st, cmp_defs, *dst, v);
        }
        Instr::Bin { op, dst, a, b } => {
            let v = aff_bin(*op, eval(*a, st, kernel, know), eval(*b, st, kernel, know));
            write(st, cmp_defs, *dst, v);
        }
        Instr::Cmp { op, dst, a, b } => {
            let (op, a, b) = (*op, *a, *b);
            write(st, cmp_defs, *dst, Aff::uniform(Interval::range(0, 1)));
            cmp_defs.insert(dst.0, (op, a, b));
        }
        Instr::Sel { dst, a, b, .. } => {
            let v = eval(*a, st, kernel, know).join(&eval(*b, st, kernel, know));
            write(st, cmp_defs, *dst, v);
        }
        Instr::Ld { dst, .. } | Instr::AtomAdd { dst, .. } | Instr::Malloc { dst, .. } => {
            write(st, cmp_defs, *dst, Aff::top());
        }
        Instr::St { .. } | Instr::Free { .. } | Instr::Bar => {}
        Instr::Bra { .. } | Instr::Jmp { .. } | Instr::Ret => {}
    }
}

fn meet_tid(op: CmpOp, tid: Interval, bound: &Interval) -> Option<Interval> {
    let constraint = match op {
        CmpOp::Lt => Interval::range(NEG_INF, bound.hi().saturating_sub(1)),
        CmpOp::Le => Interval::range(NEG_INF, bound.hi()),
        CmpOp::Gt => Interval::range(bound.lo().saturating_add(1), POS_INF),
        CmpOp::Ge => Interval::range(bound.lo(), POS_INF),
        CmpOp::Eq => *bound,
        CmpOp::Ne => return Some(tid),
    };
    tid.intersect(&constraint)
}

/// Refines the feasible tid range along a branch edge where `(op, a, b)`
/// holds. Only comparisons of a register holding exactly `tid` against a
/// uniform value refine; everything else passes through. Returns `false`
/// when the edge is infeasible.
fn refine_edge(st: &mut State, fact: Fact, kernel: &Kernel, know: &LaunchKnowledge) -> bool {
    let (op, a, b) = fact;
    for (lhs, rhs, op) in [(a, b, op), (b, a, swap(op))] {
        let lhs_lin = eval(lhs, st, kernel, know);
        if lhs_lin != Aff::tid() {
            continue;
        }
        let rhs_lin = eval(rhs, st, kernel, know);
        if !rhs_lin.is_uniform() {
            continue;
        }
        match meet_tid(op, st.tid, &rhs_lin.c) {
            Some(m) => st.tid = m,
            None => return false,
        }
    }
    true
}

const WIDEN_AFTER: u32 = 4;
const VISIT_FUEL: u32 = 20_000;

/// Runs the affine fixpoint; returns per-block entry states (`None` =
/// unreachable).
fn analyze_lin(kernel: &Kernel, know: &LaunchKnowledge) -> Vec<Option<State>> {
    let nblocks = kernel.blocks().len();
    let nregs = usize::from(kernel.num_regs()).max(1);
    let mut in_states: Vec<Option<State>> = vec![None; nblocks];
    in_states[0] = Some(State {
        regs: vec![Aff::uniform(Interval::constant(0)); nregs],
        tid: Interval::range(0, i128::from(know.block) - 1),
    });
    let mut visits = vec![0u32; nblocks];
    let mut work = vec![0usize];
    let mut fuel = VISIT_FUEL;
    while let Some(b) = work.pop() {
        if fuel == 0 {
            break; // sound: remaining states keep their last (wider) value
        }
        fuel -= 1;
        let mut st = in_states[b].clone().expect("worklist blocks have states");
        let mut cmp_defs: HashMap<u16, Fact> = HashMap::new();
        let instrs = kernel.blocks()[b].instrs();
        for instr in instrs {
            transfer(instr, &mut st, &mut cmp_defs, kernel, know);
        }
        let mut edges: Vec<(usize, Option<Fact>)> = Vec::new();
        match instrs.last() {
            Some(Instr::Jmp { target }) => edges.push((target.0 as usize, None)),
            Some(Instr::Bra {
                cond,
                taken,
                not_taken,
            }) => {
                let fact = match cond {
                    Operand::Reg(VReg(c)) => cmp_defs.get(c).copied(),
                    _ => None,
                };
                edges.push((taken.0 as usize, fact));
                edges.push((
                    not_taken.0 as usize,
                    fact.map(|(op, a, b)| (negate(op), a, b)),
                ));
            }
            _ => {}
        }
        for (succ, fact) in edges {
            let mut out = st.clone();
            if let Some(f) = fact {
                if !refine_edge(&mut out, f, kernel, know) {
                    continue;
                }
            }
            let changed = match &in_states[succ] {
                None => {
                    in_states[succ] = Some(out);
                    true
                }
                Some(old) => {
                    let widen = visits[succ] >= WIDEN_AFTER;
                    let mut merged = State {
                        regs: Vec::with_capacity(old.regs.len()),
                        tid: old.tid.union(&out.tid),
                    };
                    if widen {
                        merged.tid = old.tid.widen(&merged.tid);
                    }
                    for (o, n) in old.regs.iter().zip(out.regs.iter()) {
                        let j = o.join(n);
                        merged.regs.push(if widen { o.widen(&j) } else { j });
                    }
                    if merged != *old {
                        in_states[succ] = Some(merged);
                        true
                    } else {
                        false
                    }
                }
            };
            if changed {
                visits[succ] += 1;
                work.push(succ);
            }
        }
    }
    in_states
}

/// One shared-memory access with its abstract address `k·tid + c`.
#[derive(Debug, Clone, Copy)]
struct SharedAccess {
    site: (BlockId, usize),
    store: bool,
    atomic: bool,
    k: Interval,
    c: Interval,
    tid: Interval,
    width: i128,
}

fn addr_lin(addr: &AddrExpr, st: &State, kernel: &Kernel, know: &LaunchKnowledge) -> Aff {
    match addr {
        AddrExpr::Flat { addr } => eval(*addr, st, kernel, know),
        AddrExpr::BaseOffset { base, offset } => aff_bin(
            BinOp::Add,
            eval(*base, st, kernel, know),
            eval(*offset, st, kernel, know),
        ),
        AddrExpr::BindingTable { .. } => Aff::top(),
    }
}

/// Collects the shared accesses of the epoch starting at `start` (a block
/// index and the instruction index *after* the epoch-opening `Bar`, or
/// `(0, 0)` for kernel entry), scanning each path until the next `Bar`.
fn epoch_accesses(
    start: (usize, usize),
    kernel: &Kernel,
    states: &[Option<State>],
    know: &LaunchKnowledge,
) -> Vec<SharedAccess> {
    let nblocks = kernel.blocks().len();
    let mut accesses = Vec::new();
    let mut visited = vec![false; nblocks];
    // (block, from_index). The opening scan starts mid-block; revisits via
    // back edges start at 0 and use the `visited` set.
    let mut stack = vec![start];
    while let Some((b, from)) = stack.pop() {
        if from == 0 {
            if visited[b] {
                continue;
            }
            visited[b] = true;
        }
        let Some(entry) = &states[b] else { continue };
        let mut st = entry.clone();
        let mut cmp_defs: HashMap<u16, Fact> = HashMap::new();
        let mut stopped = false;
        for (ii, instr) in kernel.blocks()[b].instrs().iter().enumerate() {
            if ii >= from {
                if matches!(instr, Instr::Bar) {
                    stopped = true;
                    break;
                }
                let shared = match instr {
                    Instr::Ld {
                        addr,
                        space: MemSpace::Shared,
                        width,
                        ..
                    } => Some((addr, false, false, width)),
                    Instr::St {
                        addr,
                        space: MemSpace::Shared,
                        width,
                        ..
                    } => Some((addr, true, false, width)),
                    Instr::AtomAdd {
                        addr,
                        space: MemSpace::Shared,
                        width,
                        ..
                    } => Some((addr, true, true, width)),
                    _ => None,
                };
                if let Some((addr, store, atomic, width)) = shared {
                    let lin = addr_lin(addr, &st, kernel, know);
                    // The race eval folds `ctaid` to a uniform interval, so
                    // the block coefficient is always zero; anything else
                    // would be unsolvable and degrades to ⊤ defensively.
                    let (k, c) = if lin.b == Interval::constant(0) {
                        (lin.t, lin.c)
                    } else {
                        (Interval::constant(0), Interval::full())
                    };
                    accesses.push(SharedAccess {
                        site: (BlockId(b as u32), ii),
                        store,
                        atomic,
                        k,
                        c,
                        tid: st.tid,
                        width: width.bytes() as i128,
                    });
                }
            }
            transfer(instr, &mut st, &mut cmp_defs, kernel, know);
        }
        if !stopped {
            // Successor entry states already carry edge-refined tid ranges
            // from the fixpoint, so the walk itself needs no refinement.
            match kernel.blocks()[b].instrs().last() {
                Some(Instr::Jmp { target }) => stack.push((target.0 as usize, 0)),
                Some(Instr::Bra {
                    taken, not_taken, ..
                }) => {
                    stack.push((taken.0 as usize, 0));
                    stack.push((not_taken.0 as usize, 0));
                }
                _ => {}
            }
        }
    }
    accesses
}

fn div_floor(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

fn div_ceil_(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    -((-a).div_euclid(b))
}

/// Is there an integer `Δ ∈ [dmin, dmax] \ {0}` with `lo < k·Δ < hi`
/// (`k > 0`)?
fn window_has_nonzero(k: i128, lo: i128, hi: i128, dmin: i128, dmax: i128) -> bool {
    let wlo = div_floor(lo, k) + 1;
    let whi = div_ceil_(hi, k) - 1;
    let l = wlo.max(dmin);
    let h = whi.min(dmax);
    if l > h {
        return false;
    }
    !(l == 0 && h == 0)
}

fn singleton(i: &Interval) -> Option<i128> {
    (i.lo() == i.hi()).then(|| i.lo())
}

/// `None` = provably disjoint for distinct threads; `Some(reason)` = may
/// race.
fn pair_conflict(a1: &SharedAccess, a2: &SharedAccess, block: u32) -> Option<String> {
    if !(a1.store || a2.store) {
        return None; // load/load
    }
    if a1.atomic && a2.atomic {
        return None; // atomics serialize against each other
    }
    let full = Interval::range(0, i128::from(block) - 1);
    let (Some(r1), Some(r2)) = (a1.tid.intersect(&full), a2.tid.intersect(&full)) else {
        return None; // a guard excludes every thread: unreachable access
    };
    let (Some(k1), Some(c1), Some(k2), Some(c2)) = (
        singleton(&a1.k),
        singleton(&a1.c),
        singleton(&a2.k),
        singleton(&a2.c),
    ) else {
        return Some("address is not provably affine in tid".to_string());
    };
    let (w1, w2) = (a1.width, a2.width);
    if k1 == k2 {
        let e = c2 - c1;
        if k1 == 0 {
            // Both uniform: same address for every thread.
            let overlap = c1 < c2 + w2 && c2 < c1 + w1;
            let two_threads = r1.lo() != r1.hi() || r2.lo() != r2.hi() || r1.lo() != r2.lo();
            return (overlap && two_threads)
                .then(|| format!("threads share the fixed address 0x{:x}", c1.max(c2)));
        }
        // Overlap for Δ = t2 - t1 iff -w1 < kΔ + e < w2, i.e.
        // -w1 - e < kΔ < w2 - e; Δ = 0 is the same thread (no race).
        let (k, lo, hi) = if k1 > 0 {
            (k1, -w1 - e, w2 - e)
        } else {
            // kΔ ∈ (lo, hi) ⟺ (-k)(-Δ) ∈ (lo, hi); mirror Δ's range.
            (-k1, -w1 - e, w2 - e)
        };
        let (dmin, dmax) = if k1 > 0 {
            (r2.lo() - r1.hi(), r2.hi() - r1.lo())
        } else {
            (-(r2.hi() - r1.lo()), -(r2.lo() - r1.hi()))
        };
        return window_has_nonzero(k, lo, hi, dmin, dmax).then(|| {
            format!("stride {k1} cannot separate offsets {c1} and {c2} for width {w1}/{w2}")
        });
    }
    if k1 == 0 || k2 == 0 {
        // One fixed address, one strided: solve for the strided thread.
        let (cf, wf, rf, ks, cs, ws, rs) = if k1 == 0 {
            (c1, w1, &r1, k2, c2, w2, &r2)
        } else {
            (c2, w2, &r2, k1, c1, w1, &r1)
        };
        // Overlap iff cf - cs - ws < ks·t < cf - cs + wf.
        let (k, lo, hi, tmin, tmax) = if ks > 0 {
            (ks, cf - cs - ws, cf - cs + wf, rs.lo(), rs.hi())
        } else {
            (-ks, cf - cs - ws, cf - cs + wf, -rs.hi(), -rs.lo())
        };
        let wlo = div_floor(lo, k) + 1;
        let whi = div_ceil_(hi, k) - 1;
        let l = wlo.max(tmin);
        let h = whi.min(tmax);
        if l > h {
            return None;
        }
        // Some strided thread t hits the fixed address; the fixed access
        // races unless the only such t is also the only fixed-side thread.
        let t = if ks > 0 { l } else { -l };
        let lone_hit = l == h && rf.lo() == rf.hi() && rf.lo() == t;
        return (!lone_hit)
            .then(|| format!("stride-{ks} accesses reach the fixed address 0x{cf:x}"));
    }
    // Different non-zero strides: fall back to whole-range separation.
    let span1 = a1.k.mul(&r1).add(&a1.c);
    let span2 = a2.k.mul(&r2).add(&a2.c);
    let disjoint = span1.hi() + w1 <= span2.lo() || span2.hi() + w2 <= span1.lo();
    (!disjoint).then(|| format!("strides {k1} and {k2} not provably disjoint"))
}

impl Pass for SharedRacePass {
    fn id(&self) -> &'static str {
        "race"
    }

    fn run(&self, ctx: &PassContext<'_>) -> Vec<Diagnostic> {
        let kernel = ctx.kernel;
        if kernel.shared_bytes() == 0 {
            return Vec::new();
        }
        let states = analyze_lin(kernel, ctx.know);
        // Epoch starts: entry, plus the instruction after every Bar.
        let mut starts = vec![(0usize, 0usize)];
        for (bi, blk) in kernel.blocks().iter().enumerate() {
            for (ii, instr) in blk.instrs().iter().enumerate() {
                if matches!(instr, Instr::Bar) {
                    starts.push((bi, ii + 1));
                }
            }
        }
        let mut out: Vec<Diagnostic> = Vec::new();
        let mut reported: Vec<((BlockId, usize), (BlockId, usize))> = Vec::new();
        for start in starts {
            let accesses = epoch_accesses(start, kernel, &states, ctx.know);
            for i in 0..accesses.len() {
                for j in i..accesses.len() {
                    let (a1, a2) = (&accesses[i], &accesses[j]);
                    if i == j && !a1.store {
                        continue;
                    }
                    let pair = (a1.site.min(a2.site), a1.site.max(a2.site));
                    if reported.contains(&pair) {
                        continue;
                    }
                    if let Some(reason) = pair_conflict(a1, a2, ctx.know.block) {
                        reported.push(pair);
                        out.push(Diagnostic {
                            pass: self.id(),
                            severity: Severity::Error,
                            kernel: kernel.name().to_string(),
                            block: Some(a1.site.0),
                            pc: Some(a1.site.1),
                            message: format!(
                                "possible shared-memory race between {}:{} and {}:{} \
                                 in the same barrier epoch: {reason}",
                                a1.site.0, a1.site.1, a2.site.0, a2.site.1
                            ),
                        });
                    }
                }
            }
        }
        out.sort_by_key(|d| (d.block, d.pc));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ArgInfo;
    use gpushield_isa::{Cfg, KernelBuilder, MemWidth};

    fn run_with(kernel: &Kernel, block: u32) -> Vec<Diagnostic> {
        let know = LaunchKnowledge {
            args: kernel
                .params()
                .iter()
                .map(|p| match p.kind() {
                    ParamKind::Buffer { .. } => ArgInfo::Buffer { size: 4096 },
                    ParamKind::Scalar => ArgInfo::Scalar { value: None },
                })
                .collect(),
            local_sizes: vec![],
            block,
            grid: 1,
            heap_size: None,
        };
        let cfg = Cfg::build(kernel);
        let idoms = cfg.immediate_dominators();
        let ipdoms = cfg.immediate_post_dominators();
        SharedRacePass.run(&PassContext {
            kernel,
            know: &know,
            cfg: &cfg,
            idoms: &idoms,
            ipdoms: &ipdoms,
            facts: &crate::site_facts(kernel, &know),
        })
    }

    /// sh[4·tid] = tid; v = sh[4·(tid+1)] — neighbour read without a
    /// barrier: a textbook race.
    fn racy_kernel(with_barrier: bool) -> Kernel {
        let mut b = KernelBuilder::new(if with_barrier { "fixed" } else { "racy" });
        b.shared_mem(33 * 4);
        let t = b.mov(b.thread_id());
        let off = b.shl(t, Operand::Imm(2));
        b.st(MemSpace::Shared, MemWidth::W4, b.flat(off), t);
        if with_barrier {
            b.bar();
        }
        let t1 = b.add(t, Operand::Imm(1));
        let noff = b.shl(t1, Operand::Imm(2));
        let _ = b.ld(MemSpace::Shared, MemWidth::W4, b.flat(noff));
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn neighbour_read_without_barrier_is_flagged() {
        let ds = run_with(&racy_kernel(false), 32);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].severity, Severity::Error);
        assert!(ds[0].message.contains("race"));
    }

    #[test]
    fn barrier_corrected_variant_is_clean() {
        assert!(run_with(&racy_kernel(true), 32).is_empty());
    }

    #[test]
    fn same_stride_stores_are_race_free() {
        let mut b = KernelBuilder::new("k");
        b.shared_mem(32 * 4);
        let t = b.mov(b.thread_id());
        let off = b.shl(t, Operand::Imm(2));
        b.st(MemSpace::Shared, MemWidth::W4, b.flat(off), t);
        b.ret();
        assert!(run_with(&b.finish().unwrap(), 32).is_empty());
    }

    #[test]
    fn all_threads_storing_to_slot_zero_is_flagged() {
        let mut b = KernelBuilder::new("k");
        b.shared_mem(4);
        let t = b.mov(b.thread_id());
        b.st(MemSpace::Shared, MemWidth::W4, b.flat(Operand::Imm(0)), t);
        b.ret();
        let ds = run_with(&b.finish().unwrap(), 32);
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn guarded_single_writer_is_clean() {
        // if (tid == 0) sh[0] = 1 — the guard leaves one feasible thread.
        let mut b = KernelBuilder::new("k");
        b.shared_mem(4);
        let t = b.mov(b.thread_id());
        let is0 = b.eq(t, Operand::Imm(0));
        b.if_then(is0, |b| {
            b.st(
                MemSpace::Shared,
                MemWidth::W4,
                b.flat(Operand::Imm(0)),
                Operand::Imm(1),
            );
        });
        b.ret();
        assert!(run_with(&b.finish().unwrap(), 32).is_empty());
    }

    #[test]
    fn unrolled_tree_reduction_is_proven_race_free() {
        // The registry's reduction shape: guarded strided loads/stores with
        // a barrier between levels.
        let block = 16u32;
        let mut b = KernelBuilder::new("reduce");
        b.shared_mem(u64::from(block) * 4);
        let t = b.mov(b.thread_id());
        let off = b.shl(t, Operand::Imm(2));
        b.st(MemSpace::Shared, MemWidth::W4, b.flat(off), t);
        b.bar();
        let mut s = block / 2;
        while s >= 1 {
            let c = b.lt(t, Operand::Imm(i64::from(s)));
            b.if_then(c, |b| {
                let peer = b.add(t, Operand::Imm(i64::from(s)));
                let poff = b.shl(peer, Operand::Imm(2));
                let pv = b.ld(MemSpace::Shared, MemWidth::W4, b.flat(poff));
                let moff = b.shl(t, Operand::Imm(2));
                let mv = b.ld(MemSpace::Shared, MemWidth::W4, b.flat(moff));
                let sum = b.add(mv, pv);
                b.st(MemSpace::Shared, MemWidth::W4, b.flat(moff), sum);
            });
            b.bar();
            s /= 2;
        }
        b.ret();
        let ds = run_with(&b.finish().unwrap(), block);
        assert!(ds.is_empty(), "false positives: {ds:?}");
    }

    #[test]
    fn missing_level_barrier_in_reduction_is_flagged() {
        let block = 16u32;
        let mut b = KernelBuilder::new("reduce_bad");
        b.shared_mem(u64::from(block) * 4);
        let t = b.mov(b.thread_id());
        let off = b.shl(t, Operand::Imm(2));
        b.st(MemSpace::Shared, MemWidth::W4, b.flat(off), t);
        b.bar();
        // Two tree levels with NO barrier between them: level 2's read of
        // sh[tid+4] races with level 1's write of sh[tid].
        for s in [8i64, 4] {
            let c = b.lt(t, Operand::Imm(s));
            b.if_then(c, |b| {
                let peer = b.add(t, Operand::Imm(s));
                let poff = b.shl(peer, Operand::Imm(2));
                let pv = b.ld(MemSpace::Shared, MemWidth::W4, b.flat(poff));
                let moff = b.shl(t, Operand::Imm(2));
                let mv = b.ld(MemSpace::Shared, MemWidth::W4, b.flat(moff));
                let sum = b.add(mv, pv);
                b.st(MemSpace::Shared, MemWidth::W4, b.flat(moff), sum);
            });
        }
        b.ret();
        let ds = run_with(&b.finish().unwrap(), block);
        assert!(!ds.is_empty(), "the missing barrier must be caught");
    }

    #[test]
    fn atomic_accumulation_is_race_free() {
        let mut b = KernelBuilder::new("k");
        b.shared_mem(4);
        let t = b.mov(b.thread_id());
        let _ = b.atom_add(MemSpace::Shared, MemWidth::W4, b.flat(Operand::Imm(0)), t);
        b.ret();
        assert!(run_with(&b.finish().unwrap(), 32).is_empty());
    }
}
