//! Def-before-use: flags registers read on some path before any write.
//!
//! Forward "definitely assigned" dataflow over the CFG: a register is
//! definitely assigned at a point iff every path from the entry writes it
//! first. The meet at joins is set intersection, so the analysis only
//! shrinks — it can miss a *benign* read (one that happens to sit after a
//! write on every feasible path the intervals cannot see) but never
//! invents one. Hardware zeroes the register file at launch, so a read of
//! a never-written register is defined behaviour (it yields 0); findings
//! are therefore [`Severity::Warning`]s: almost always a kernel bug, never
//! a crash.

use super::{Diagnostic, Pass, PassContext, Severity};
use gpushield_isa::{BlockId, Instr, Operand, VReg};

/// The def-before-use pass (`"defuse"`).
pub struct DefBeforeUsePass;

/// Bit-set of definitely-assigned registers (≤ `u128::BITS` registers is
/// ample: kernels declare well under 128).
type RegSet = u128;

fn reads_of(instr: &Instr) -> Vec<VReg> {
    instr
        .sources()
        .into_iter()
        .filter_map(|op| match op {
            Operand::Reg(r) => Some(r),
            _ => None,
        })
        .collect()
}

impl Pass for DefBeforeUsePass {
    fn id(&self) -> &'static str {
        "defuse"
    }

    fn run(&self, ctx: &PassContext<'_>) -> Vec<Diagnostic> {
        let kernel = ctx.kernel;
        let nblocks = kernel.blocks().len();
        let nregs = usize::from(kernel.num_regs()).min(128);

        // Forward fixpoint: IN[b] = ∩ OUT[preds]; OUT = IN ∪ defs(b).
        // `None` = unvisited (⊤, the full set), so intersection is a no-op
        // until a real state arrives.
        let mut in_sets: Vec<Option<RegSet>> = vec![None; nblocks];
        in_sets[0] = Some(0);
        let mut work = vec![0usize];
        while let Some(b) = work.pop() {
            let mut set = in_sets[b].expect("worklist blocks have states");
            for instr in kernel.blocks()[b].instrs() {
                if let Some(r) = instr.dst() {
                    if usize::from(r.0) < nregs {
                        set |= 1u128 << r.0;
                    }
                }
            }
            for s in ctx.cfg.successors(BlockId(b as u32)) {
                let si = s.0 as usize;
                let merged = match in_sets[si] {
                    None => set,
                    Some(old) => old & set,
                };
                if in_sets[si] != Some(merged) {
                    in_sets[si] = Some(merged);
                    work.push(si);
                }
            }
        }

        // Report the first offending read of each register (per block, so a
        // register used uninitialised on two paths surfaces on both).
        let mut out = Vec::new();
        for (bi, blk) in kernel.blocks().iter().enumerate() {
            let Some(mut set) = in_sets[bi] else { continue };
            let mut flagged: RegSet = 0;
            for (ii, instr) in blk.instrs().iter().enumerate() {
                for r in reads_of(instr) {
                    let bit = 1u128 << r.0.min(127);
                    if usize::from(r.0) < nregs && set & bit == 0 && flagged & bit == 0 {
                        flagged |= bit;
                        out.push(Diagnostic {
                            pass: self.id(),
                            severity: Severity::Warning,
                            kernel: kernel.name().to_string(),
                            block: Some(BlockId(bi as u32)),
                            pc: Some(ii),
                            message: format!(
                                "register {r} may be read before any write \
                                 (hardware zero-fill masks the bug)"
                            ),
                        });
                    }
                }
                if let Some(r) = instr.dst() {
                    if usize::from(r.0) < nregs {
                        set |= 1u128 << r.0;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{ArgInfo, LaunchKnowledge};
    use gpushield_isa::{BasicBlock, CmpOp, Kernel, KernelBuilder, Special};

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
        DefBeforeUsePass.run(&PassContext {
            kernel,
            know: &know,
            cfg: &cfg,
            idoms: &idoms,
            ipdoms: &ipdoms,
            facts: &crate::site_facts(kernel, &know),
        })
    }

    #[test]
    fn straight_line_defined_use_is_clean() {
        let mut b = KernelBuilder::new("k");
        let t = b.mov(b.thread_id());
        let _ = b.add(t, Operand::Imm(1));
        b.ret();
        let k = b.finish().unwrap();
        assert!(run(&k).is_empty());
    }

    #[test]
    fn read_before_any_write_is_flagged() {
        // r1 = r0 + 1 with r0 never written: hand-built (the builder cannot
        // express this).
        let blk = BasicBlock::from_instrs(vec![
            Instr::Bin {
                op: gpushield_isa::BinOp::Add,
                dst: VReg(1),
                a: Operand::Reg(VReg(0)),
                b: Operand::Imm(1),
            },
            Instr::Ret,
        ]);
        let k = Kernel::from_raw("k".to_string(), vec![], vec![], vec![blk], 2, 0).unwrap();
        let ds = run(&k);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].severity, Severity::Warning);
        assert!(ds[0].message.contains("r0"));
    }

    #[test]
    fn one_armed_definition_is_flagged_after_join() {
        // if (tid < 4) r1 = 7; use r1  — r1 unassigned on the else path.
        let b0 = BasicBlock::from_instrs(vec![
            Instr::Cmp {
                op: CmpOp::Lt,
                dst: VReg(0),
                a: Operand::Special(Special::ThreadId),
                b: Operand::Imm(4),
            },
            Instr::Bra {
                cond: Operand::Reg(VReg(0)),
                taken: BlockId(1),
                not_taken: BlockId(2),
            },
        ]);
        let b1 = BasicBlock::from_instrs(vec![
            Instr::Mov {
                dst: VReg(1),
                src: Operand::Imm(7),
            },
            Instr::Jmp { target: BlockId(2) },
        ]);
        let b2 = BasicBlock::from_instrs(vec![
            Instr::Bin {
                op: gpushield_isa::BinOp::Add,
                dst: VReg(2),
                a: Operand::Reg(VReg(1)),
                b: Operand::Imm(1),
            },
            Instr::Ret,
        ]);
        let k = Kernel::from_raw("k".to_string(), vec![], vec![], vec![b0, b1, b2], 3, 0).unwrap();
        let ds = run(&k);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].block, Some(BlockId(2)));
    }

    #[test]
    fn both_armed_definition_is_clean() {
        let b0 = BasicBlock::from_instrs(vec![
            Instr::Cmp {
                op: CmpOp::Lt,
                dst: VReg(0),
                a: Operand::Special(Special::ThreadId),
                b: Operand::Imm(4),
            },
            Instr::Bra {
                cond: Operand::Reg(VReg(0)),
                taken: BlockId(1),
                not_taken: BlockId(2),
            },
        ]);
        let arm = |v: i64| {
            BasicBlock::from_instrs(vec![
                Instr::Mov {
                    dst: VReg(1),
                    src: Operand::Imm(v),
                },
                Instr::Jmp { target: BlockId(3) },
            ])
        };
        let b3 = BasicBlock::from_instrs(vec![
            Instr::Bin {
                op: gpushield_isa::BinOp::Add,
                dst: VReg(2),
                a: Operand::Reg(VReg(1)),
                b: Operand::Imm(1),
            },
            Instr::Ret,
        ]);
        let k = Kernel::from_raw(
            "k".to_string(),
            vec![],
            vec![],
            vec![b0, arm(7), arm(9), b3],
            3,
            0,
        )
        .unwrap();
        assert!(run(&k).is_empty());
    }
}
