//! Fixpoint abstract interpretation over the kernel CFG.
//!
//! Implements the data-flow analysis of paper §5.3.2: operand values are
//! filled from launch knowledge (argument sizes, scalar values, grid
//! geometry) or from hardware maxima, loops are handled with widening, and
//! branch conditions refine ranges on the outgoing edges — which is what
//! lets `if (tid < n)`-guarded accesses and counted loops be proven safe.

use crate::absval::{AbsVal, Origin};
use crate::affine::{negate, swap};
use crate::interval::Interval;
use gpushield_isa::{CmpOp, Instr, Kernel, MemSpace, Operand, ParamKind, Special, VReg};
use std::collections::{HashMap, VecDeque};

/// What the driver knows about one kernel argument at launch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgInfo {
    /// A buffer of `size` bytes.
    Buffer {
        /// Allocation size in bytes (the `size` column of the BAT in
        /// Fig. 5).
        size: u64,
    },
    /// A scalar, with its value when the host passes a compile-time-known
    /// constant (Fig. 8's "Arg. Info & Constants").
    Scalar {
        /// Known value, if any.
        value: Option<u64>,
    },
}

/// Launch-time knowledge the analysis may use (paper Fig. 5: the host-code
/// analysis supplies buffer sizes and constants; `get_global_id` is bounded
/// by the launch geometry).
#[derive(Debug, Clone)]
pub struct LaunchKnowledge {
    /// Per-argument information, parallel to the kernel's parameter list.
    pub args: Vec<ArgInfo>,
    /// Total size of each local variable's interleaved region, in bytes.
    pub local_sizes: Vec<u64>,
    /// Workitems per workgroup.
    pub block: u32,
    /// Workgroups in the grid.
    pub grid: u32,
    /// Device heap size, when configured.
    pub heap_size: Option<u64>,
}

impl LaunchKnowledge {
    /// Buffer size for argument `p`, if it is a buffer.
    pub fn buffer_size(&self, p: u8) -> Option<u64> {
        match self.args.get(usize::from(p)) {
            Some(ArgInfo::Buffer { size }) => Some(*size),
            _ => None,
        }
    }

    /// The compile-time view of this launch: scalar argument *values* are
    /// blanked while buffer/local sizes and the grid geometry — which the
    /// driver always knows — are kept. The relational prover runs under
    /// this view so its [`crate::SiteProof`] certificates stay valid for
    /// any scalar values the host may pass; the driver then discharges
    /// them against the concrete values at launch.
    pub fn value_less(&self) -> LaunchKnowledge {
        LaunchKnowledge {
            args: self
                .args
                .iter()
                .map(|a| match a {
                    ArgInfo::Scalar { .. } => ArgInfo::Scalar { value: None },
                    buf => *buf,
                })
                .collect(),
            local_sizes: self.local_sizes.clone(),
            block: self.block,
            grid: self.grid,
            heap_size: self.heap_size,
        }
    }
}

const WIDEN_AFTER: u32 = 4;
pub(crate) const VISIT_FUEL: u32 = 50_000;

/// A branch condition traced back to its comparison: `(op, lhs, rhs)`.
type Fact = (CmpOp, Operand, Operand);

pub(crate) struct AnalysisResult {
    /// Abstract state at each block entry (`None` = unreachable).
    pub in_states: Vec<Option<Vec<AbsVal>>>,
    /// Worklist iterations the fixpoint consumed (out of [`VISIT_FUEL`]);
    /// pinned by the widening-termination tests.
    pub iterations: u32,
}

pub(crate) fn eval_operand(
    op: Operand,
    st: &[AbsVal],
    kernel: &Kernel,
    know: &LaunchKnowledge,
) -> AbsVal {
    match op {
        Operand::Reg(VReg(r)) => st[usize::from(r)],
        Operand::Imm(i) => AbsVal::constant(i128::from(i)),
        Operand::Param(p) => match kernel.params()[usize::from(p)].kind() {
            ParamKind::Buffer { .. } => AbsVal::Ptr(Origin::Param(p), Interval::constant(0)),
            ParamKind::Scalar => match know.args.get(usize::from(p)) {
                Some(ArgInfo::Scalar { value: Some(v) }) => AbsVal::constant(i128::from(*v)),
                _ => AbsVal::top(),
            },
        },
        Operand::LocalBase(v) => AbsVal::Ptr(Origin::Local(v), Interval::constant(0)),
        Operand::Special(s) => AbsVal::Num(match s {
            Special::ThreadId => Interval::range(0, i128::from(know.block) - 1),
            Special::BlockId => Interval::range(0, i128::from(know.grid) - 1),
            Special::BlockDim => Interval::constant(i128::from(know.block)),
            Special::GridDim => Interval::constant(i128::from(know.grid)),
            // Lane index is bounded by the widest SIMT width we model.
            Special::LaneId => Interval::range(0, 63),
        }),
    }
}

/// Transfers one non-terminator instruction; updates the `cmp_defs` map so
/// branch conditions can be traced back to their comparison.
pub(crate) fn transfer(
    instr: &Instr,
    st: &mut [AbsVal],
    cmp_defs: &mut HashMap<u16, Fact>,
    kernel: &Kernel,
    know: &LaunchKnowledge,
) {
    let write = |st: &mut [AbsVal], cmp_defs: &mut HashMap<u16, _>, dst: VReg, v: AbsVal| {
        st[usize::from(dst.0)] = v;
        cmp_defs.remove(&dst.0);
    };
    match instr {
        Instr::Mov { dst, src } => {
            let v = eval_operand(*src, st, kernel, know);
            write(st, cmp_defs, *dst, v);
        }
        Instr::Un { op, dst, a } => {
            let v = AbsVal::un(*op, &eval_operand(*a, st, kernel, know));
            write(st, cmp_defs, *dst, v);
        }
        Instr::Bin { op, dst, a, b } => {
            let v = AbsVal::bin(
                *op,
                &eval_operand(*a, st, kernel, know),
                &eval_operand(*b, st, kernel, know),
            );
            write(st, cmp_defs, *dst, v);
        }
        Instr::Cmp { op, dst, a, b } => {
            let v = AbsVal::cmp(
                *op,
                &eval_operand(*a, st, kernel, know),
                &eval_operand(*b, st, kernel, know),
            );
            write(st, cmp_defs, *dst, v);
            cmp_defs.insert(dst.0, (*op, *a, *b));
        }
        Instr::Sel { dst, a, b, .. } => {
            let v = eval_operand(*a, st, kernel, know).join(&eval_operand(*b, st, kernel, know));
            write(st, cmp_defs, *dst, v);
        }
        Instr::Ld { dst, .. } | Instr::AtomAdd { dst, .. } => {
            // Loaded data is unknown (this is precisely why indirect graph
            // workloads defeat static analysis, §8.3).
            write(st, cmp_defs, *dst, AbsVal::top());
        }
        Instr::Malloc { dst, .. } => {
            let v = AbsVal::Ptr(Origin::Heap, Interval::full());
            write(st, cmp_defs, *dst, v);
        }
        Instr::St { .. } | Instr::Free { .. } | Instr::Bar => {}
        Instr::Bra { .. } | Instr::Jmp { .. } | Instr::Ret => {}
    }
}

fn meet_bound(op: CmpOp, x: Interval, bound: Interval) -> Option<Interval> {
    let constraint = match op {
        CmpOp::Lt => Interval::range(crate::interval::NEG_INF, bound.hi().saturating_sub(1)),
        CmpOp::Le => Interval::range(crate::interval::NEG_INF, bound.hi()),
        CmpOp::Gt => Interval::range(bound.lo().saturating_add(1), crate::interval::POS_INF),
        CmpOp::Ge => Interval::range(bound.lo(), crate::interval::POS_INF),
        CmpOp::Eq => bound,
        CmpOp::Ne => return Some(x),
    };
    x.intersect(&constraint)
}

/// Refines `st` along a branch edge where `(op, a, b)` is known to hold.
/// Returns `false` when the edge is infeasible.
fn refine_edge(
    st: &mut [AbsVal],
    op: CmpOp,
    a: Operand,
    b: Operand,
    kernel: &Kernel,
    know: &LaunchKnowledge,
) -> bool {
    // Refine register `a` against the value of `b`, then symmetrically.
    let sides = [(a, b, op), (b, a, swap(op))];
    for (lhs, rhs, op) in sides {
        let Operand::Reg(VReg(r)) = lhs else { continue };
        let rhs_val = eval_operand(rhs, st, kernel, know);
        match (st[usize::from(r)], rhs_val) {
            (AbsVal::Num(x), AbsVal::Num(bound)) => match meet_bound(op, x, bound) {
                Some(m) => st[usize::from(r)] = AbsVal::Num(m),
                None => return false,
            },
            (AbsVal::Ptr(o1, x), AbsVal::Ptr(o2, bound)) if o1 == o2 => {
                match meet_bound(op, x, bound) {
                    Some(m) => st[usize::from(r)] = AbsVal::Ptr(o1, m),
                    None => return false,
                }
            }
            _ => {}
        }
    }
    true
}

/// Runs the fixpoint analysis and returns per-block entry states.
pub(crate) fn analyze_kernel(kernel: &Kernel, know: &LaunchKnowledge) -> AnalysisResult {
    let nblocks = kernel.blocks().len();
    let nregs = usize::from(kernel.num_regs());
    let mut in_states: Vec<Option<Vec<AbsVal>>> = vec![None; nblocks];
    let mut visits = vec![0u32; nblocks];
    // Registers start as zero in hardware.
    in_states[0] = Some(vec![AbsVal::constant(0); nregs.max(1)]);
    let mut work: VecDeque<usize> = VecDeque::from([0usize]);
    let mut fuel = VISIT_FUEL;

    while let Some(b) = work.pop_front() {
        if fuel == 0 {
            break; // Sound: remaining states stay at their last (wider) value.
        }
        fuel -= 1;
        let mut st = in_states[b].clone().expect("worklist blocks have states");
        let mut cmp_defs: HashMap<u16, Fact> = HashMap::new();
        let instrs = kernel.blocks()[b].instrs();
        for instr in instrs {
            transfer(instr, &mut st, &mut cmp_defs, kernel, know);
        }
        // Build (successor, refinement) edges from the terminator.
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
        for (succ, refinement) in edges {
            let mut out = st.clone();
            if let Some((op, a, b)) = refinement {
                if !refine_edge(&mut out, op, a, b, kernel, know) {
                    continue; // infeasible edge
                }
            }
            let changed = match &in_states[succ] {
                None => {
                    in_states[succ] = Some(out);
                    true
                }
                Some(old) => {
                    let widen = visits[succ] >= WIDEN_AFTER;
                    let mut merged = Vec::with_capacity(old.len());
                    let mut any = false;
                    for (o, n) in old.iter().zip(out.iter()) {
                        let j = o.join(n);
                        let j = if widen { o.widen(&j) } else { j };
                        if j != *o {
                            any = true;
                        }
                        merged.push(j);
                    }
                    if any {
                        in_states[succ] = Some(merged);
                    }
                    any
                }
            };
            if changed {
                visits[succ] += 1;
                if !work.contains(&succ) {
                    work.push_back(succ);
                }
            }
        }
    }

    // Narrowing: widening blasts loop-variable bounds to ±∞ and the branch
    // refinement then re-derives the real bound on the body edge, but the
    // widened join at the body entry discards it. Two decreasing passes
    // recompute block entries purely from predecessor edges, recovering
    // bounds like `iv ∈ [0, n-1]` inside counted loops. Soundness: each
    // pass recomputes entries from sound predecessor states, so results
    // stay sound over-approximations.
    for _ in 0..2 {
        let mut new_in: Vec<Option<Vec<AbsVal>>> = vec![None; nblocks];
        new_in[0] = Some(vec![AbsVal::constant(0); nregs.max(1)]);
        for (b, entry_opt) in in_states.iter().enumerate().take(nblocks) {
            let Some(entry) = entry_opt else { continue };
            let mut st = entry.clone();
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
                        fact.map(|(op, a, bb)| (negate(op), a, bb)),
                    ));
                }
                _ => {}
            }
            for (succ, refinement) in edges {
                let mut out = st.clone();
                if let Some((op, a, bb)) = refinement {
                    if !refine_edge(&mut out, op, a, bb, kernel, know) {
                        continue;
                    }
                }
                match &mut new_in[succ] {
                    None => new_in[succ] = Some(out),
                    Some(old) => {
                        for (o, n) in old.iter_mut().zip(out.iter()) {
                            *o = o.join(n);
                        }
                    }
                }
            }
        }
        in_states = new_in;
    }

    AnalysisResult {
        in_states,
        iterations: VISIT_FUEL - fuel,
    }
}

/// Resolved abstract address of a memory site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SiteAddress {
    pub origin: Origin,
    pub offset: Interval,
    /// Fig. 2 addressing method: 'A', 'B', or 'C'.
    pub method: char,
}

/// Resolves the address expression of a memory instruction under state
/// `st`; `None` when the base cannot be traced to a protected region.
pub(crate) fn resolve_site(
    instr: &Instr,
    st: &[AbsVal],
    kernel: &Kernel,
    know: &LaunchKnowledge,
) -> Option<SiteAddress> {
    let addr = match instr {
        Instr::Ld { addr, .. } | Instr::St { addr, .. } | Instr::AtomAdd { addr, .. } => addr,
        _ => return None,
    };
    match addr {
        gpushield_isa::AddrExpr::BaseOffset { base, offset } => {
            match eval_operand(*base, st, kernel, know) {
                AbsVal::Ptr(o, boff) => Some(SiteAddress {
                    origin: o,
                    offset: boff.add(&eval_operand(*offset, st, kernel, know).as_num()),
                    method: 'C',
                }),
                _ => None,
            }
        }
        gpushield_isa::AddrExpr::BindingTable { bti, offset } => Some(SiteAddress {
            origin: Origin::Param(*bti),
            offset: eval_operand(*offset, st, kernel, know).as_num(),
            method: 'A',
        }),
        gpushield_isa::AddrExpr::Flat { addr } => match eval_operand(*addr, st, kernel, know) {
            AbsVal::Ptr(o, i) => Some(SiteAddress {
                origin: o,
                offset: i,
                method: 'B',
            }),
            _ => None,
        },
    }
}

/// Size in bytes of the region `origin`, when known.
pub(crate) fn origin_size(origin: Origin, kernel: &Kernel, know: &LaunchKnowledge) -> Option<u64> {
    match origin {
        Origin::Param(p) => {
            // Only buffers have sizes; scalars can never be proven.
            match kernel.params().get(usize::from(p))?.kind() {
                ParamKind::Buffer { .. } => know.buffer_size(p),
                ParamKind::Scalar => None,
            }
        }
        Origin::Local(v) => know.local_sizes.get(usize::from(v)).copied(),
        Origin::Heap => None, // coarse runtime-only protection (§5.2.1)
    }
}

/// True when accesses in `space` are subject to GPUShield protection.
pub(crate) fn protected_space(space: MemSpace) -> bool {
    matches!(
        space,
        MemSpace::Global | MemSpace::Local | MemSpace::Const | MemSpace::Texture
    )
}

/// The access width in bytes when `instr` is a protected memory site (a
/// load, store or atomic in a protected space); `None` otherwise.
pub(crate) fn protected_site_width(instr: &Instr) -> Option<u64> {
    match instr {
        Instr::Ld { space, width, .. }
        | Instr::St { space, width, .. }
        | Instr::AtomAdd { space, width, .. }
            if protected_space(*space) =>
        {
            Some(width.bytes())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand};

    /// Pathological triple-nested loop whose accumulator couples all three
    /// induction variables: the concrete iteration space is cubic in `n`,
    /// so the only way the fixpoint terminates promptly is the widening
    /// discipline (every header widens after `WIDEN_AFTER` visits).
    #[test]
    fn nested_loop_widening_terminates_in_bounded_iterations() {
        let mut b = KernelBuilder::new("nested");
        let out = b.param_buffer("out", false);
        let n = b.param_scalar("n");
        let acc = b.mov(Operand::Imm(0));
        b.for_loop(Operand::Imm(0), n, 1, |b, i| {
            b.for_loop(Operand::Imm(0), n, 1, |b, j| {
                b.for_loop(Operand::Imm(0), n, 1, |b, k| {
                    let t1 = b.add(i, j);
                    let t2 = b.add(t1, k);
                    let t3 = b.add(acc, t2);
                    b.assign(acc, t3);
                    let off = b.and(t3, Operand::Imm(0xfc));
                    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), t3);
                });
            });
        });
        b.ret();
        let k = b.finish().unwrap();
        let know = LaunchKnowledge {
            args: vec![
                ArgInfo::Buffer { size: 256 },
                ArgInfo::Scalar { value: None },
            ],
            local_sizes: vec![],
            block: 64,
            grid: 4,
            heap_size: None,
        };
        let res = analyze_kernel(&k, &know);
        assert!(res.iterations < VISIT_FUEL, "fixpoint exhausted its fuel");
        assert!(
            res.iterations <= 200,
            "nested-loop fixpoint took {} worklist iterations",
            res.iterations
        );
    }
}
