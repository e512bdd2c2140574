//! Barrier divergence: `Bar` under thread-dependent control flow.
//!
//! A workgroup barrier only completes when *every* thread of the workgroup
//! reaches it. If a branch whose condition differs between threads of the
//! same workgroup guards a `Bar`, some threads wait at the barrier while
//! others took the far arm and never arrive — on real GPUs this deadlocks
//! or (worse) silently releases the barrier early, depending on the part.
//!
//! Detection is a forward taint fixpoint: a value is *thread-dependent*
//! (tainted) when it derives from `%tid`/`%laneid`, loaded data, an atomic
//! result, or a `malloc` pointer; parameters, immediates and the workgroup
//! geometry specials are uniform. (`%ctaid` is uniform *within* a
//! workgroup, which is the scope of a barrier.) A branch with a tainted
//! condition diverges; its influence region is every block reachable from
//! its successors strictly before the immediate post-dominator, where the
//! SIMT stack reconverges the warp. Any `Bar` inside such a region is
//! reported as an [`Severity::Error`].
//!
//! Taint only over-approximates (a uniform value may be called tainted,
//! never the reverse), so a silent pass is a proof of barrier convergence
//! under the SIMT reconvergence model.

use super::{Diagnostic, Pass, PassContext, Severity};
use gpushield_isa::{BlockId, Instr, Operand, Special};

/// The barrier-divergence pass (`"divergence"`).
pub struct BarrierDivergencePass;

type RegSet = u128;

fn operand_tainted(op: Operand, taint: RegSet) -> bool {
    match op {
        Operand::Reg(r) => taint & (1u128 << r.0.min(127)) != 0,
        Operand::Special(Special::ThreadId | Special::LaneId) => true,
        Operand::Special(_) | Operand::Imm(_) | Operand::Param(_) | Operand::LocalBase(_) => false,
    }
}

impl Pass for BarrierDivergencePass {
    fn id(&self) -> &'static str {
        "divergence"
    }

    fn run(&self, ctx: &PassContext<'_>) -> Vec<Diagnostic> {
        let kernel = ctx.kernel;
        let nblocks = kernel.blocks().len();

        // Taint fixpoint: IN[b] = ∪ OUT[preds]; monotone increasing.
        let mut in_taint: Vec<RegSet> = vec![0; nblocks];
        let mut work = vec![0usize];
        let mut out_taint = vec![0u128; nblocks];
        while let Some(b) = work.pop() {
            let mut t = in_taint[b];
            for instr in kernel.blocks()[b].instrs() {
                let dst_tainted = match instr {
                    // Loaded data, atomic results and heap pointers differ
                    // per lane regardless of operand taint.
                    Instr::Ld { .. } | Instr::AtomAdd { .. } | Instr::Malloc { .. } => true,
                    _ => instr.sources().iter().any(|op| operand_tainted(*op, t)),
                };
                if let Some(r) = instr.dst() {
                    let bit = 1u128 << r.0.min(127);
                    if dst_tainted {
                        t |= bit;
                    } else {
                        t &= !bit;
                    }
                }
            }
            out_taint[b] = t;
            for s in ctx.cfg.successors(BlockId(b as u32)) {
                let si = s.0 as usize;
                let merged = in_taint[si] | t;
                if merged != in_taint[si] {
                    in_taint[si] = merged;
                    work.push(si);
                }
            }
        }

        // For every tainted branch, scan the region before reconvergence.
        let mut out = Vec::new();
        for (bi, blk) in kernel.blocks().iter().enumerate() {
            let Some(Instr::Bra { cond, .. }) = blk.instrs().last() else {
                continue;
            };
            if !operand_tainted(*cond, out_taint[bi]) {
                continue;
            }
            let stop = ctx.ipdoms[bi];
            let mut visited = vec![false; nblocks];
            let mut stack: Vec<usize> = ctx
                .cfg
                .successors(BlockId(bi as u32))
                .iter()
                .map(|s| s.0 as usize)
                .collect();
            while let Some(r) = stack.pop() {
                if visited[r] || Some(BlockId(r as u32)) == stop {
                    continue;
                }
                visited[r] = true;
                for (ii, instr) in kernel.blocks()[r].instrs().iter().enumerate() {
                    if matches!(instr, Instr::Bar) {
                        out.push(Diagnostic {
                            pass: self.id(),
                            severity: Severity::Error,
                            kernel: kernel.name().to_string(),
                            block: Some(BlockId(r as u32)),
                            pc: Some(ii),
                            message: format!(
                                "barrier reachable under thread-dependent branch at \
                                 bb{bi} before reconvergence — threads that take the \
                                 other arm never arrive"
                            ),
                        });
                    }
                }
                for s in ctx.cfg.successors(BlockId(r as u32)) {
                    stack.push(s.0 as usize);
                }
            }
        }
        // A barrier under two distinct divergent branches is reported once
        // per branch by construction; dedupe identical findings.
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{ArgInfo, LaunchKnowledge};
    use gpushield_isa::{Kernel, KernelBuilder, MemSpace, MemWidth};

    fn run(kernel: &Kernel) -> Vec<Diagnostic> {
        let know = LaunchKnowledge {
            args: vec![ArgInfo::Scalar { value: None }],
            local_sizes: vec![],
            block: 32,
            grid: 1,
            heap_size: None,
        };
        let cfg = gpushield_isa::Cfg::build(kernel);
        let idoms = cfg.immediate_dominators();
        let ipdoms = cfg.immediate_post_dominators();
        BarrierDivergencePass.run(&PassContext {
            kernel,
            know: &know,
            cfg: &cfg,
            idoms: &idoms,
            ipdoms: &ipdoms,
            facts: &crate::site_facts(kernel, &know),
        })
    }

    #[test]
    fn barrier_under_tid_branch_is_flagged() {
        let mut b = KernelBuilder::new("k");
        b.shared_mem(256);
        let t = b.mov(b.thread_id());
        let c = b.lt(t, Operand::Imm(4));
        b.if_then(c, |b| {
            b.bar();
        });
        b.ret();
        let k = b.finish().unwrap();
        let ds = run(&k);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].severity, Severity::Error);
    }

    #[test]
    fn barrier_at_reconvergence_point_is_clean() {
        let mut b = KernelBuilder::new("k");
        b.shared_mem(256);
        let t = b.mov(b.thread_id());
        let c = b.lt(t, Operand::Imm(4));
        b.if_then(c, |b| {
            let _ = b.add(t, Operand::Imm(1));
        });
        b.bar(); // join block — all threads reconverged
        b.ret();
        let k = b.finish().unwrap();
        assert!(run(&k).is_empty());
    }

    #[test]
    fn barrier_under_uniform_branch_is_clean() {
        let mut b = KernelBuilder::new("k");
        b.shared_mem(256);
        let n = b.param_scalar("n");
        let v = b.mov(n);
        let c = b.lt(v, Operand::Imm(4));
        b.if_then(c, |b| {
            b.bar(); // every thread sees the same n: no divergence
        });
        b.ret();
        let k = b.finish().unwrap();
        assert!(run(&k).is_empty());
    }

    #[test]
    fn barrier_under_data_dependent_branch_is_flagged() {
        // The branch condition comes from loaded data — divergent even
        // though %tid never appears.
        let mut b = KernelBuilder::new("k");
        b.shared_mem(256);
        let buf = b.param_buffer("buf", true);
        let v = b.ld(
            MemSpace::Global,
            MemWidth::W4,
            b.base_offset(buf, Operand::Imm(0)),
        );
        let c = b.lt(v, Operand::Imm(4));
        b.if_then(c, |b| {
            b.bar();
        });
        b.ret();
        let k = b.finish().unwrap();
        assert_eq!(run(&k).len(), 1);
    }

    #[test]
    fn retainting_is_killed_by_uniform_redefinition() {
        let mut b = KernelBuilder::new("k");
        b.shared_mem(256);
        let t = b.mov(b.thread_id());
        b.assign(t, Operand::Imm(3)); // now uniform again
        let c = b.lt(t, Operand::Imm(4));
        b.if_then(c, |b| {
            b.bar();
        });
        b.ret();
        let k = b.finish().unwrap();
        assert!(run(&k).is_empty());
    }
}
