//! Control-flow-graph analysis: predecessors/successors, post-dominators,
//! and the SIMT reconvergence table.
//!
//! GPUs reconverge diverged warps at the *immediate post-dominator* of the
//! divergent branch (Nvidia's `SSY`/`BSSY` points). The simulator's SIMT
//! stack consumes the [`ReconvergenceTable`] computed here; the compiler's
//! abstract interpreter reuses the same [`Cfg`].

use crate::instr::BlockId;
use crate::kernel::Kernel;

/// Control-flow graph of a kernel, with a virtual exit node so kernels with
/// multiple `Ret` blocks still have a single post-dominator root.
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    /// Index of the virtual exit node (== number of real blocks).
    exit: usize,
}

impl Cfg {
    /// Builds the CFG of `kernel`.
    pub fn build(kernel: &Kernel) -> Self {
        let n = kernel.blocks().len();
        let exit = n;
        let mut succs = vec![Vec::new(); n + 1];
        let mut preds = vec![Vec::new(); n + 1];
        for (i, blk) in kernel.blocks().iter().enumerate() {
            let ss = blk.successors();
            if ss.is_empty() {
                // Ret (or malformed; validation catches that) flows to exit.
                succs[i].push(exit);
                preds[exit].push(i);
            } else {
                for s in ss {
                    succs[i].push(s.0 as usize);
                    preds[s.0 as usize].push(i);
                }
            }
        }
        Cfg { succs, preds, exit }
    }

    /// Successor blocks of `b` (virtual exit excluded).
    pub fn successors(&self, b: BlockId) -> Vec<BlockId> {
        self.succs[b.0 as usize]
            .iter()
            .filter(|&&s| s != self.exit)
            .map(|&s| BlockId(s as u32))
            .collect()
    }

    /// Predecessor blocks of `b`.
    pub fn predecessors(&self, b: BlockId) -> Vec<BlockId> {
        self.preds[b.0 as usize]
            .iter()
            .map(|&p| BlockId(p as u32))
            .collect()
    }

    /// Number of real blocks.
    pub fn len(&self) -> usize {
        self.exit
    }

    /// True when the kernel has no blocks (never the case for built kernels).
    pub fn is_empty(&self) -> bool {
        self.exit == 0
    }

    /// Reverse post-order of the reversed CFG starting at the virtual exit,
    /// as indices into the internal node numbering.
    fn reverse_cfg_rpo(&self) -> Vec<usize> {
        let n = self.exit + 1;
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        // Iterative DFS over predecessors-as-successors (the reversed graph).
        let mut stack: Vec<(usize, usize)> = vec![(self.exit, 0)];
        visited[self.exit] = true;
        while let Some(&(node, idx)) = stack.last() {
            if idx < self.preds[node].len() {
                stack.last_mut().expect("non-empty stack").1 += 1;
                let next = self.preds[node][idx];
                if !visited[next] {
                    visited[next] = true;
                    stack.push((next, 0));
                }
            } else {
                order.push(node);
                stack.pop();
            }
        }
        order.reverse();
        order
    }

    /// Computes immediate post-dominators using the Cooper–Harvey–Kennedy
    /// iterative algorithm on the reversed CFG. Returns, for each real
    /// block, its immediate post-dominator (`None` when the ipdom is the
    /// virtual exit, i.e. the block post-dominates everything after it).
    pub fn immediate_post_dominators(&self) -> Vec<Option<BlockId>> {
        let n = self.exit + 1;
        let rpo = self.reverse_cfg_rpo();
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = i;
        }
        let mut idom = vec![usize::MAX; n];
        idom[self.exit] = self.exit;

        let intersect = |idom: &[usize], rpo_pos: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_pos[a] > rpo_pos[b] {
                    a = idom[a];
                }
                while rpo_pos[b] > rpo_pos[a] {
                    b = idom[b];
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // Predecessors in the reversed graph are CFG successors.
                let mut new_idom = usize::MAX;
                for &s in &self.succs[b] {
                    if idom[s] != usize::MAX && rpo_pos[s] != usize::MAX {
                        new_idom = if new_idom == usize::MAX {
                            s
                        } else {
                            intersect(&idom, &rpo_pos, new_idom, s)
                        };
                    }
                }
                if new_idom != usize::MAX && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }

        (0..self.exit)
            .map(|b| {
                let d = idom[b];
                if d == usize::MAX || d == self.exit {
                    None
                } else {
                    Some(BlockId(d as u32))
                }
            })
            .collect()
    }

    /// Reverse post-order of the forward CFG starting at the entry block,
    /// as indices into the internal node numbering (the virtual exit is
    /// reachable and included but callers only look at real blocks).
    fn forward_rpo(&self) -> Vec<usize> {
        let n = self.exit + 1;
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        visited[0] = true;
        while let Some(&(node, idx)) = stack.last() {
            if idx < self.succs[node].len() {
                stack.last_mut().expect("non-empty stack").1 += 1;
                let next = self.succs[node][idx];
                if !visited[next] {
                    visited[next] = true;
                    stack.push((next, 0));
                }
            } else {
                order.push(node);
                stack.pop();
            }
        }
        order.reverse();
        order
    }

    /// Computes immediate (forward) dominators using the same
    /// Cooper–Harvey–Kennedy iteration as [`Cfg::immediate_post_dominators`],
    /// rooted at the entry block. Returns, for each real block, its
    /// immediate dominator; the entry block and any block unreachable from
    /// the entry map to `None`.
    pub fn immediate_dominators(&self) -> Vec<Option<BlockId>> {
        let n = self.exit + 1;
        let rpo = self.forward_rpo();
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = i;
        }
        let mut idom = vec![usize::MAX; n];
        idom[0] = 0;

        let intersect = |idom: &[usize], rpo_pos: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_pos[a] > rpo_pos[b] {
                    a = idom[a];
                }
                while rpo_pos[b] > rpo_pos[a] {
                    b = idom[b];
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom = usize::MAX;
                for &p in &self.preds[b] {
                    if idom[p] != usize::MAX && rpo_pos[p] != usize::MAX {
                        new_idom = if new_idom == usize::MAX {
                            p
                        } else {
                            intersect(&idom, &rpo_pos, new_idom, p)
                        };
                    }
                }
                if new_idom != usize::MAX && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }

        (0..self.exit)
            .map(|b| {
                let d = idom[b];
                if b == 0 || d == usize::MAX {
                    None
                } else {
                    Some(BlockId(d as u32))
                }
            })
            .collect()
    }

    /// True when block `a` dominates block `b` under the `idoms` tree
    /// returned by [`Cfg::immediate_dominators`] (every block dominates
    /// itself; the entry block dominates every reachable block).
    pub fn dominates(idoms: &[Option<BlockId>], a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match idoms.get(cur.0 as usize).copied().flatten() {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }
}

/// Per-branch reconvergence points: for every block ending in a divergent
/// branch, the block where diverged lanes re-join.
#[derive(Debug, Clone)]
pub struct ReconvergenceTable {
    /// Immediate post-dominator of each block, indexed by block id.
    ipdom: Vec<Option<BlockId>>,
}

impl ReconvergenceTable {
    /// Computes the table for `kernel`.
    pub fn build(kernel: &Kernel) -> Self {
        ReconvergenceTable {
            ipdom: Cfg::build(kernel).immediate_post_dominators(),
        }
    }

    /// The reconvergence block for a branch in `block`; `None` means lanes
    /// only re-join at kernel exit.
    pub fn reconvergence_point(&self, block: BlockId) -> Option<BlockId> {
        self.ipdom.get(block.0 as usize).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::instr::Operand;

    #[test]
    fn diamond_reconverges_at_join() {
        let mut b = KernelBuilder::new("k");
        let t = b.mov(b.thread_id());
        let c = b.lt(t, Operand::Imm(4));
        b.if_then_else(
            c,
            |b| {
                let _ = b.add(t, Operand::Imm(1));
            },
            |b| {
                let _ = b.sub(t, Operand::Imm(1));
            },
        );
        b.ret();
        let k = b.finish().unwrap();
        // Blocks: 0 entry(bra), 1 then, 2 else, 3 join.
        let table = ReconvergenceTable::build(&k);
        assert_eq!(table.reconvergence_point(BlockId(0)), Some(BlockId(3)));
    }

    #[test]
    fn loop_header_ipdom_is_exit_block() {
        let mut b = KernelBuilder::new("k");
        let n = b.param_scalar("n");
        b.for_loop(Operand::Imm(0), n, 1, |b, i| {
            let _ = b.add(i, Operand::Imm(0));
        });
        b.ret();
        let k = b.finish().unwrap();
        // Blocks: 0 entry, 1 header, 2 body, 3 exit.
        let table = ReconvergenceTable::build(&k);
        assert_eq!(table.reconvergence_point(BlockId(1)), Some(BlockId(3)));
    }

    #[test]
    fn straight_line_has_no_reconvergence_needs() {
        let mut b = KernelBuilder::new("k");
        b.ret();
        let k = b.finish().unwrap();
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.len(), 1);
        assert!(cfg.successors(BlockId(0)).is_empty());
    }

    #[test]
    fn forward_dominators_on_diamond() {
        let mut b = KernelBuilder::new("k");
        let t = b.mov(b.thread_id());
        let c = b.lt(t, Operand::Imm(4));
        b.if_then_else(
            c,
            |b| {
                let _ = b.add(t, Operand::Imm(1));
            },
            |b| {
                let _ = b.sub(t, Operand::Imm(1));
            },
        );
        b.ret();
        let k = b.finish().unwrap();
        // Blocks: 0 entry(bra), 1 then, 2 else, 3 join.
        let cfg = Cfg::build(&k);
        let idoms = cfg.immediate_dominators();
        assert_eq!(idoms[0], None);
        assert_eq!(idoms[1], Some(BlockId(0)));
        assert_eq!(idoms[2], Some(BlockId(0)));
        // Neither arm dominates the join; the branch block does.
        assert_eq!(idoms[3], Some(BlockId(0)));
        assert!(Cfg::dominates(&idoms, BlockId(0), BlockId(3)));
        assert!(!Cfg::dominates(&idoms, BlockId(1), BlockId(3)));
        assert!(Cfg::dominates(&idoms, BlockId(2), BlockId(2)));
    }

    #[test]
    fn forward_dominators_on_loop() {
        let mut b = KernelBuilder::new("k");
        let n = b.param_scalar("n");
        b.for_loop(Operand::Imm(0), n, 1, |b, i| {
            let _ = b.add(i, Operand::Imm(0));
        });
        b.ret();
        let k = b.finish().unwrap();
        // Blocks: 0 entry, 1 header, 2 body, 3 exit.
        let cfg = Cfg::build(&k);
        let idoms = cfg.immediate_dominators();
        assert_eq!(idoms[1], Some(BlockId(0)));
        // The back edge from the body does not lower the header's idom.
        assert_eq!(idoms[2], Some(BlockId(1)));
        assert_eq!(idoms[3], Some(BlockId(1)));
        assert!(Cfg::dominates(&idoms, BlockId(1), BlockId(2)));
        assert!(!Cfg::dominates(&idoms, BlockId(2), BlockId(3)));
    }

    #[test]
    fn forward_dominators_on_multi_exit() {
        use crate::instr::{CmpOp, Instr, VReg};
        use crate::kernel::BasicBlock;
        // 0: cmp + bra -> {1, 2}; both arms Ret (two real exits).
        let b0 = BasicBlock::from_instrs(vec![
            Instr::Cmp {
                op: CmpOp::Lt,
                dst: VReg(0),
                a: Operand::Special(crate::instr::Special::ThreadId),
                b: Operand::Imm(2),
            },
            Instr::Bra {
                cond: Operand::Reg(VReg(0)),
                taken: BlockId(1),
                not_taken: BlockId(2),
            },
        ]);
        let b1 = BasicBlock::from_instrs(vec![Instr::Ret]);
        let b2 = BasicBlock::from_instrs(vec![Instr::Ret]);
        let k = Kernel::from_raw(
            "multi_exit".to_string(),
            vec![],
            vec![],
            vec![b0, b1, b2],
            1,
            0,
        )
        .unwrap();
        let cfg = Cfg::build(&k);
        let idoms = cfg.immediate_dominators();
        assert_eq!(idoms, vec![None, Some(BlockId(0)), Some(BlockId(0))]);
        // Post-dominators still meet only at the virtual exit.
        let ipdoms = cfg.immediate_post_dominators();
        assert_eq!(ipdoms[0], None);
        assert!(!Cfg::dominates(&idoms, BlockId(1), BlockId(2)));
    }

    #[test]
    fn predecessors_track_branches() {
        let mut b = KernelBuilder::new("k");
        let t = b.mov(b.thread_id());
        let c = b.lt(t, Operand::Imm(4));
        b.if_then(c, |_| {});
        b.ret();
        let k = b.finish().unwrap();
        let cfg = Cfg::build(&k);
        // Join block (2) has preds entry (0) and then (1).
        let mut preds = cfg.predecessors(BlockId(2));
        preds.sort();
        assert_eq!(preds, vec![BlockId(0), BlockId(1)]);
    }
}
