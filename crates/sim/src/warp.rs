//! Warp (sub-workgroup) state: registers, the SIMT reconvergence stack, and
//! functional execution of scalar/control instructions.
//!
//! Divergence follows the classic immediate-post-dominator scheme (§2.1):
//! a divergent branch pushes both sides onto the stack with the branch
//! block's ipdom as reconvergence point; reaching the reconvergence block
//! pops one side and resumes the other, and the merged continuation runs
//! once both sides arrive.

use gpushield_isa::{
    BinOp, BlockId, CmpOp, Instr, Kernel, Operand, ReconvergenceTable, Special, UnOp, VReg,
};

/// Lane capacity of a warp: the active mask is a `u64` with lane `l` at
/// bit `l`, and an operand row is a `[u64; MAX_LANES]` stack array.
pub(crate) const MAX_LANES: usize = 64;

/// One operand's value in every lane of a warp (`row[..width]` is live).
pub(crate) type Row = [u64; MAX_LANES];

/// Per-launch uniform values needed to evaluate operands.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecCtx<'a> {
    pub args: &'a [u64],
    pub local_bases: &'a [u64],
    pub block_dim: u64,
    pub grid_dim: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct StackEntry {
    /// Next instruction; `None` means "finished, pop me".
    pub pc: Option<(BlockId, usize)>,
    pub mask: u64,
    /// Reconvergence block: arriving here pops this entry.
    pub rpc: Option<BlockId>,
}

/// What `exec_simple` asks the core to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimpleOutcome {
    /// Instruction fully handled; pc already advanced.
    Done,
    /// Warp retired (all stack entries popped).
    Retired,
    /// A memory / barrier / heap instruction: the core must handle it (pc
    /// has *not* been advanced). Carries the pc and the instruction there.
    NeedsCore {
        /// The `(block, index)` of the instruction.
        pc: (BlockId, usize),
        /// The instruction itself.
        instr: Instr,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct Warp {
    pub launch_idx: usize,
    pub wg: u64,
    pub warp_in_wg: usize,
    pub width: usize,
    pub regs: Vec<u64>,
    pub stack: Vec<StackEntry>,
    pub ready_at: u64,
    pub at_barrier: bool,
    /// Blocked forever on an exhausted device-heap allocator (only set
    /// under `GpuConfig::malloc_blocks_on_exhaustion`); the deadlock
    /// detector reports these as `HeapDeadlock` rather than spinning.
    pub blocked: bool,
    pub done: bool,
    /// Monotonic dispatch sequence for greedy-then-oldest scheduling.
    pub age: u64,
}

impl Warp {
    pub fn new(
        launch_idx: usize,
        wg: u64,
        warp_in_wg: usize,
        width: usize,
        lanes: usize,
        num_regs: u16,
        age: u64,
    ) -> Self {
        let exist_mask = lane_mask(lanes);
        Warp {
            launch_idx,
            wg,
            warp_in_wg,
            width,
            regs: vec![0; usize::from(num_regs) * width],
            stack: vec![StackEntry {
                pc: Some((BlockId(0), 0)),
                mask: exist_mask,
                rpc: None,
            }],
            ready_at: 0,
            at_barrier: false,
            blocked: false,
            done: false,
            age,
        }
    }

    pub fn active_mask(&self) -> u64 {
        self.stack.last().map(|e| e.mask).unwrap_or(0)
    }

    pub fn pc(&self) -> Option<(BlockId, usize)> {
        self.stack.last().and_then(|e| e.pc)
    }

    fn reg(&self, r: VReg, lane: usize) -> u64 {
        self.regs[usize::from(r.0) * self.width + lane]
    }

    pub fn set_reg(&mut self, r: VReg, lane: usize, v: u64) {
        self.regs[usize::from(r.0) * self.width + lane] = v;
    }

    /// Global thread id components for `lane`.
    fn special(&self, s: Special, lane: usize, ctx: &ExecCtx<'_>) -> u64 {
        match s {
            Special::ThreadId => (self.warp_in_wg * self.width + lane) as u64,
            Special::BlockId => self.wg,
            Special::BlockDim => ctx.block_dim,
            Special::GridDim => ctx.grid_dim,
            Special::LaneId => lane as u64,
        }
    }

    /// Writes `op`'s value in every lane into `row[..width]`, matching the
    /// operand once for the whole warp instruction.
    pub fn load_row(&self, op: Operand, ctx: &ExecCtx<'_>, row: &mut Row) {
        let row = &mut row[..self.width];
        let iota = |row: &mut [u64], first: u64| {
            for (v, i) in row.iter_mut().zip(first..) {
                *v = i;
            }
        };
        match op {
            Operand::Reg(r) => {
                let base = usize::from(r.0) * self.width;
                row.copy_from_slice(&self.regs[base..base + self.width]);
            }
            Operand::Special(Special::ThreadId) => {
                iota(row, (self.warp_in_wg * self.width) as u64);
            }
            Operand::Special(Special::LaneId) => iota(row, 0),
            // Every remaining operand is uniform across the warp.
            _ => row.fill(self.eval(op, 0, ctx)),
        }
    }

    /// Writes `row` into register `dst` for the lanes set in `mask`; lanes
    /// outside it keep their value.
    pub fn store_row(&mut self, dst: VReg, mask: u64, row: &Row) {
        let base = usize::from(dst.0) * self.width;
        let out = &mut self.regs[base..base + self.width];
        let row = &row[..out.len()];
        if mask == lane_mask(out.len()) {
            out.copy_from_slice(row);
        } else {
            for (lane, (o, v)) in out.iter_mut().zip(row).enumerate() {
                if mask >> lane & 1 != 0 {
                    *o = *v;
                }
            }
        }
    }

    /// `row[..width]` with every masked-off lane as `None`.
    pub fn active_lanes<'r>(&self, row: &'r Row) -> impl Iterator<Item = Option<u64>> + 'r {
        let mask = self.active_mask();
        row[..self.width]
            .iter()
            .enumerate()
            .map(move |(lane, &v)| (mask >> lane & 1 != 0).then_some(v))
    }

    /// One lane's value of `op`: the per-lane reference the row loaders
    /// agree with, used where a single uniform value is needed.
    pub fn eval(&self, op: Operand, lane: usize, ctx: &ExecCtx<'_>) -> u64 {
        match op {
            Operand::Reg(r) => self.reg(r, lane),
            Operand::Imm(i) => i as u64,
            Operand::Param(p) => ctx.args[usize::from(p)],
            Operand::LocalBase(v) => ctx.local_bases[usize::from(v)],
            Operand::Special(s) => self.special(s, lane, ctx),
        }
    }

    /// Advances the program counter past a non-terminator instruction.
    pub fn advance_pc(&mut self) {
        if let Some(e) = self.stack.last_mut() {
            if let Some((b, i)) = e.pc {
                e.pc = Some((b, i + 1));
            }
        }
    }

    /// Transfers control to `target`, honouring reconvergence pops.
    fn enter_block(&mut self, target: BlockId) {
        let pops = self
            .stack
            .last()
            .map(|e| e.rpc == Some(target))
            .unwrap_or(false);
        if pops {
            self.stack.pop();
            self.drain_finished();
        } else if let Some(e) = self.stack.last_mut() {
            e.pc = Some((target, 0));
        }
    }

    /// Pops continuation entries whose pc is `None` (exit continuations).
    fn drain_finished(&mut self) {
        while matches!(self.stack.last(), Some(e) if e.pc.is_none()) {
            self.stack.pop();
        }
        if self.stack.is_empty() {
            self.done = true;
        }
    }

    /// Computes ALU instruction `instr`'s result row into `x` and returns
    /// its destination. Source rows are copied out before the caller's
    /// `store_row`, so a destination aliasing a source reads the
    /// pre-instruction values.
    fn alu_row(&self, instr: Instr, ctx: &ExecCtx<'_>, x: &mut Row) -> VReg {
        let w = self.width;
        let mut y: Row = [0; MAX_LANES];
        match instr {
            Instr::Mov { dst, src } => {
                self.load_row(src, ctx, x);
                dst
            }
            Instr::Un { op, dst, a } => {
                self.load_row(a, ctx, x);
                un_row(op, &mut x[..w]);
                dst
            }
            Instr::Bin { op, dst, a, b } => {
                self.load_row(a, ctx, x);
                self.load_row(b, ctx, &mut y);
                bin_row(op, &mut x[..w], &y[..w]);
                dst
            }
            Instr::Cmp { op, dst, a, b } => {
                self.load_row(a, ctx, x);
                self.load_row(b, ctx, &mut y);
                cmp_row(op, &mut x[..w], &y[..w]);
                dst
            }
            Instr::Sel { dst, cond, a, b } => {
                let mut c: Row = [0; MAX_LANES];
                self.load_row(cond, ctx, &mut c);
                self.load_row(a, ctx, x);
                self.load_row(b, ctx, &mut y);
                for ((x, y), c) in x[..w].iter_mut().zip(&y[..w]).zip(&c[..w]) {
                    if *c == 0 {
                        *x = *y;
                    }
                }
                dst
            }
            other => unreachable!("{other:?} is not an ALU instruction"),
        }
    }

    /// Executes one scalar/control instruction functionally. Returns
    /// [`SimpleOutcome::NeedsCore`] for memory, barrier, and heap
    /// instructions, which the core handles with timing.
    pub fn exec_simple(
        &mut self,
        kernel: &Kernel,
        recon: &ReconvergenceTable,
        ctx: &ExecCtx<'_>,
    ) -> SimpleOutcome {
        let (block, idx) = match self.pc() {
            Some(pc) => pc,
            None => {
                self.drain_finished();
                return SimpleOutcome::Retired;
            }
        };
        let instr = kernel.block(block).instrs()[idx];
        let mask = self.active_mask();
        match instr {
            Instr::Mov { .. }
            | Instr::Un { .. }
            | Instr::Bin { .. }
            | Instr::Cmp { .. }
            | Instr::Sel { .. } => {
                let mut x: Row = [0; MAX_LANES];
                let dst = self.alu_row(instr, ctx, &mut x);
                self.store_row(dst, mask, &x);
                self.advance_pc();
                SimpleOutcome::Done
            }
            Instr::Jmp { target } => {
                self.enter_block(target);
                if self.done {
                    SimpleOutcome::Retired
                } else {
                    SimpleOutcome::Done
                }
            }
            Instr::Bra {
                cond,
                taken,
                not_taken,
            } => {
                let mut c: Row = [0; MAX_LANES];
                self.load_row(cond, ctx, &mut c);
                let t_mask = c[..self.width]
                    .iter()
                    .enumerate()
                    .fold(0u64, |m, (lane, c)| m | u64::from(*c != 0) << lane)
                    & mask;
                let nt_mask = mask & !t_mask;
                if nt_mask == 0 {
                    self.enter_block(taken);
                } else if t_mask == 0 {
                    self.enter_block(not_taken);
                } else {
                    // Divergence: convert the current entry into the merged
                    // continuation at the reconvergence point, then push the
                    // not-taken and taken sides. A side whose entry block
                    // *is* the reconvergence point has already reconverged
                    // and is not pushed (its lanes are covered by the
                    // continuation's mask).
                    let rpc = recon.reconvergence_point(block);
                    {
                        let top = self.stack.last_mut().expect("running warp has stack");
                        top.pc = rpc.map(|b| (b, 0));
                    }
                    if Some(not_taken) != rpc {
                        self.stack.push(StackEntry {
                            pc: Some((not_taken, 0)),
                            mask: nt_mask,
                            rpc,
                        });
                    }
                    if Some(taken) != rpc {
                        self.stack.push(StackEntry {
                            pc: Some((taken, 0)),
                            mask: t_mask,
                            rpc,
                        });
                    }
                    self.drain_finished();
                }
                if self.done {
                    SimpleOutcome::Retired
                } else {
                    SimpleOutcome::Done
                }
            }
            Instr::Ret => {
                self.stack.pop();
                self.drain_finished();
                if self.stack.is_empty() {
                    self.done = true;
                    SimpleOutcome::Retired
                } else {
                    SimpleOutcome::Done
                }
            }
            Instr::Ld { .. }
            | Instr::St { .. }
            | Instr::AtomAdd { .. }
            | Instr::Bar
            | Instr::Malloc { .. }
            | Instr::Free { .. } => SimpleOutcome::NeedsCore {
                pc: (block, idx),
                instr,
            },
        }
    }
}

/// The mask with lanes `0..lanes` set (`lanes <= MAX_LANES`).
fn lane_mask(lanes: usize) -> u64 {
    if lanes >= MAX_LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

// The row kernels below match the op once and hand `eval_*` a constant
// op, so each arm compiles to a branch-free lane loop; `eval_*` stays the
// one definition of every op's semantics.

#[inline(always)]
fn map_row(x: &mut [u64], f: impl Fn(u64) -> u64) {
    for x in x {
        *x = f(*x);
    }
}

#[inline(always)]
fn zip_row(x: &mut [u64], y: &[u64], f: impl Fn(u64, u64) -> u64) {
    for (x, y) in x.iter_mut().zip(y) {
        *x = f(*x, *y);
    }
}

/// `x[l] = op(x[l])` in every lane.
fn un_row(op: UnOp, x: &mut [u64]) {
    use UnOp::*;
    match op {
        Not => map_row(x, |a| eval_un(Not, a)),
        Neg => map_row(x, |a| eval_un(Neg, a)),
        Abs => map_row(x, |a| eval_un(Abs, a)),
    }
}

/// `x[l] = x[l] op y[l]` in every lane.
fn bin_row(op: BinOp, x: &mut [u64], y: &[u64]) {
    use BinOp::*;
    match op {
        Add => zip_row(x, y, |a, b| eval_bin(Add, a, b)),
        Sub => zip_row(x, y, |a, b| eval_bin(Sub, a, b)),
        Mul => zip_row(x, y, |a, b| eval_bin(Mul, a, b)),
        Div => zip_row(x, y, |a, b| eval_bin(Div, a, b)),
        Rem => zip_row(x, y, |a, b| eval_bin(Rem, a, b)),
        And => zip_row(x, y, |a, b| eval_bin(And, a, b)),
        Or => zip_row(x, y, |a, b| eval_bin(Or, a, b)),
        Xor => zip_row(x, y, |a, b| eval_bin(Xor, a, b)),
        Shl => zip_row(x, y, |a, b| eval_bin(Shl, a, b)),
        Shr => zip_row(x, y, |a, b| eval_bin(Shr, a, b)),
        Min => zip_row(x, y, |a, b| eval_bin(Min, a, b)),
        Max => zip_row(x, y, |a, b| eval_bin(Max, a, b)),
    }
}

/// `x[l] = (x[l] op y[l]) as 0/1` in every lane.
fn cmp_row(op: CmpOp, x: &mut [u64], y: &[u64]) {
    use CmpOp::*;
    match op {
        Eq => zip_row(x, y, |a, b| u64::from(eval_cmp(Eq, a, b))),
        Ne => zip_row(x, y, |a, b| u64::from(eval_cmp(Ne, a, b))),
        Lt => zip_row(x, y, |a, b| u64::from(eval_cmp(Lt, a, b))),
        Le => zip_row(x, y, |a, b| u64::from(eval_cmp(Le, a, b))),
        Gt => zip_row(x, y, |a, b| u64::from(eval_cmp(Gt, a, b))),
        Ge => zip_row(x, y, |a, b| u64::from(eval_cmp(Ge, a, b))),
    }
}

#[inline(always)]
fn eval_un(op: UnOp, x: u64) -> u64 {
    match op {
        UnOp::Not => !x,
        UnOp::Neg => (x as i64).wrapping_neg() as u64,
        UnOp::Abs => (x as i64).wrapping_abs() as u64,
    }
}

#[inline(always)]
fn eval_bin(op: BinOp, x: u64, y: u64) -> u64 {
    let (sx, sy) = (x as i64, y as i64);
    match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if sy == 0 {
                0
            } else {
                sx.wrapping_div(sy) as u64
            }
        }
        BinOp::Rem => {
            if sy == 0 {
                0
            } else {
                sx.wrapping_rem(sy) as u64
            }
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x << (y & 63),
        BinOp::Shr => x >> (y & 63),
        BinOp::Min => sx.min(sy) as u64,
        BinOp::Max => sx.max(sy) as u64,
    }
}

#[inline(always)]
fn eval_cmp(op: CmpOp, x: u64, y: u64) -> bool {
    let (sx, sy) = (x as i64, y as i64);
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => sx < sy,
        CmpOp::Le => sx <= sy,
        CmpOp::Gt => sx > sy,
        CmpOp::Ge => sx >= sy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpushield_isa::{BasicBlock, KernelBuilder, LocalVar, Param, ParamKind, ValidateError};

    fn ctx<'a>(args: &'a [u64]) -> ExecCtx<'a> {
        ExecCtx {
            args,
            local_bases: &[],
            block_dim: 8,
            grid_dim: 2,
        }
    }

    fn run_warp(kernel: &Kernel, width: usize, args: &[u64]) -> Warp {
        let recon = ReconvergenceTable::build(kernel);
        let mut w = Warp::new(0, 0, 0, width, width, kernel.num_regs(), 0);
        let c = ctx(args);
        let mut fuel = 100_000;
        while !w.done {
            match w.exec_simple(kernel, &recon, &c) {
                SimpleOutcome::Done => {}
                SimpleOutcome::Retired => break,
                SimpleOutcome::NeedsCore { .. } => panic!("test kernels must be ALU-only"),
            }
            fuel -= 1;
            assert!(fuel > 0, "kernel did not terminate");
        }
        w
    }

    #[test]
    fn divergent_if_else_merges_lane_results() {
        // r = tid < 2 ? 100 : 200, via real divergence.
        let mut b = KernelBuilder::new("div");
        let t = b.mov(b.thread_id());
        let c = b.lt(t, Operand::Imm(2));
        let out = b.mov(Operand::Imm(0));
        b.if_then_else(
            c,
            |b| b.assign(out, Operand::Imm(100)),
            |b| b.assign(out, Operand::Imm(200)),
        );
        // Post-join arithmetic executes with the full mask again.
        let fin = b.add(out, Operand::Imm(5));
        b.ret();
        let k = b.finish().unwrap();
        let w = run_warp(&k, 4, &[]);
        let vals: Vec<u64> = (0..4).map(|l| w.reg(fin, l)).collect();
        assert_eq!(vals, vec![105, 105, 205, 205]);
    }

    #[test]
    fn data_dependent_loop_trip_counts() {
        // acc = sum over i in 0..tid of 1 → acc == tid, divergent loop exit.
        let mut b = KernelBuilder::new("loop");
        let t = b.mov(b.thread_id());
        let acc = b.mov(Operand::Imm(0));
        b.for_loop(Operand::Imm(0), t, 1, |b, _i| {
            let n = b.add(acc, Operand::Imm(1));
            b.assign(acc, n);
        });
        let fin = b.mov(acc);
        b.ret();
        let k = b.finish().unwrap();
        let w = run_warp(&k, 4, &[]);
        let vals: Vec<u64> = (0..4).map(|l| w.reg(fin, l)).collect();
        assert_eq!(vals, vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_divergence() {
        // out = (tid<2) ? ((tid<1) ? 1 : 2) : 3
        let mut b = KernelBuilder::new("nest");
        let t = b.mov(b.thread_id());
        let out = b.mov(Operand::Imm(0));
        let outer = b.lt(t, Operand::Imm(2));
        b.if_then_else(
            outer,
            |b| {
                let inner = b.lt(t, Operand::Imm(1));
                b.if_then_else(
                    inner,
                    |b| b.assign(out, Operand::Imm(1)),
                    |b| b.assign(out, Operand::Imm(2)),
                );
            },
            |b| b.assign(out, Operand::Imm(3)),
        );
        let fin = b.mov(out);
        b.ret();
        let k = b.finish().unwrap();
        let w = run_warp(&k, 4, &[]);
        let vals: Vec<u64> = (0..4).map(|l| w.reg(fin, l)).collect();
        assert_eq!(vals, vec![1, 2, 3, 3]);
    }

    #[test]
    fn partial_warp_masks_missing_lanes() {
        let mut b = KernelBuilder::new("partial");
        let t = b.mov(b.thread_id());
        let _ = b.add(t, Operand::Imm(1));
        b.ret();
        let k = b.finish().unwrap();
        let mut w = Warp::new(0, 0, 0, 4, 2, k.num_regs(), 0);
        assert_eq!(w.active_mask(), 0b0011);
        let recon = ReconvergenceTable::build(&k);
        let c = ctx(&[]);
        while !w.done {
            if w.exec_simple(&k, &recon, &c) == SimpleOutcome::Retired {
                break;
            }
        }
        assert!(w.done);
    }

    #[test]
    fn select_is_predication_not_divergence() {
        let mut b = KernelBuilder::new("sel");
        let t = b.mov(b.thread_id());
        let c = b.lt(t, Operand::Imm(2));
        let v = b.sel(c, Operand::Imm(7), Operand::Imm(9));
        b.ret();
        let k = b.finish().unwrap();
        let w = run_warp(&k, 4, &[]);
        let vals: Vec<u64> = (0..4).map(|l| w.reg(v, l)).collect();
        assert_eq!(vals, vec![7, 7, 9, 9]);
    }

    const WIDTH: usize = 8;
    const MASKS: [u64; 3] = [0xFF, 0b1011_0110, 0b0001_0000];
    const OPERANDS: [Operand; 12] = [
        Operand::Reg(VReg(0)),
        Operand::Reg(VReg(1)),
        Operand::Imm(-3),
        Operand::Imm(5),
        Operand::Param(0),
        Operand::Param(1),
        Operand::LocalBase(0),
        Operand::Special(Special::ThreadId),
        Operand::Special(Special::BlockId),
        Operand::Special(Special::BlockDim),
        Operand::Special(Special::GridDim),
        Operand::Special(Special::LaneId),
    ];

    /// A kernel of `blocks` (the i-th is `BlockId(i)`) declaring the
    /// parameters and local variable that `OPERANDS` reference.
    fn kernel_of(blocks: Vec<Vec<Instr>>) -> Result<Kernel, ValidateError> {
        Kernel::from_raw(
            "rows".into(),
            vec![
                Param::new("p0", ParamKind::Scalar),
                Param::new("p1", ParamKind::Scalar),
            ],
            vec![LocalVar::new("l0", 8)],
            blocks.into_iter().map(BasicBlock::from_instrs).collect(),
            4,
            0,
        )
    }

    /// Warp 2 of workgroup 3 with `mask` active. Registers 0 and 1 hold
    /// zeros (division by zero, branch conditions), all-ones, `i64::MIN`
    /// over -1 in lane 6 (the overflowing division) and shift counts at
    /// and past 63.
    fn warp_with(mask: u64) -> Warp {
        let mut w = Warp::new(0, 3, 2, WIDTH, WIDTH, 4, 0);
        let r0 = [0, 1, u64::MAX, 63, 0, 64, i64::MIN as u64, 12345];
        let r1 = [5, 0, 3, 2, u64::MAX, 0, u64::MAX, 1 << 40];
        w.regs[..WIDTH].copy_from_slice(&r0);
        w.regs[WIDTH..2 * WIDTH].copy_from_slice(&r1);
        for (i, r) in w.regs[2 * WIDTH..].iter_mut().enumerate() {
            *r = 0xA5A5_0000 + i as u64;
        }
        w.stack[0].mask = mask;
        w
    }

    fn row_ctx() -> ExecCtx<'static> {
        ExecCtx {
            args: &[0xDEAD_BEEF, (-9i64) as u64],
            local_bases: &[0x7000_0000],
            block_dim: 64,
            grid_dim: 5,
        }
    }

    /// Runs the one-instruction kernel on the row path and on the
    /// per-lane `eval` reference and asserts they leave identical
    /// registers, with lanes outside the mask untouched.
    fn check_alu(instr: Instr, mask: u64) -> Result<(), ValidateError> {
        let k = kernel_of(vec![vec![instr, Instr::Ret]])?;
        let recon = ReconvergenceTable::build(&k);
        let ctx = row_ctx();
        let before = warp_with(mask);

        let mut rows = before.clone();
        assert_eq!(rows.exec_simple(&k, &recon, &ctx), SimpleOutcome::Done);

        let mut lanes = before.clone();
        let dst = match instr {
            Instr::Mov { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::Sel { dst, .. } => dst,
            other => unreachable!("{other:?} is not an ALU instruction"),
        };
        for lane in (0..WIDTH).filter(|l| mask >> l & 1 != 0) {
            let e = |op| before.eval(op, lane, &ctx);
            let v = match instr {
                Instr::Mov { src, .. } => e(src),
                Instr::Un { op, a, .. } => eval_un(op, e(a)),
                Instr::Bin { op, a, b, .. } => eval_bin(op, e(a), e(b)),
                Instr::Cmp { op, a, b, .. } => u64::from(eval_cmp(op, e(a), e(b))),
                Instr::Sel { cond, a, b, .. } => e(if e(cond) != 0 { a } else { b }),
                _ => unreachable!(),
            };
            lanes.set_reg(dst, lane, v);
        }
        assert_eq!(rows.regs, lanes.regs, "{instr:?} under mask {mask:#b}");
        for lane in (0..WIDTH).filter(|l| mask >> l & 1 == 0) {
            assert_eq!(
                rows.reg(dst, lane),
                before.reg(dst, lane),
                "{instr:?} lane {lane}"
            );
        }
        assert_eq!(rows.pc(), Some((BlockId(0), 1)));
        Ok(())
    }

    #[test]
    fn row_execution_matches_per_lane_eval() -> Result<(), ValidateError> {
        use gpushield_isa::{BinOp::*, CmpOp::*, UnOp::*};
        let bins = [Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Min, Max];
        let cmps = [Eq, Ne, Lt, Le, Gt, Ge];
        // Register 0 is also a source operand, so dst aliases a source.
        for dst in [VReg(0), VReg(3)] {
            for mask in MASKS {
                for a in OPERANDS {
                    check_alu(Instr::Mov { dst, src: a }, mask)?;
                    for op in [Not, Neg, Abs] {
                        check_alu(Instr::Un { op, dst, a }, mask)?;
                    }
                    for b in OPERANDS {
                        for op in bins {
                            check_alu(Instr::Bin { op, dst, a, b }, mask)?;
                        }
                        for op in cmps {
                            check_alu(Instr::Cmp { op, dst, a, b }, mask)?;
                        }
                        for cond in OPERANDS {
                            check_alu(Instr::Sel { dst, cond, a, b }, mask)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn row_branch_matches_per_lane_eval() -> Result<(), ValidateError> {
        let (taken, not_taken, join) = (BlockId(1), BlockId(2), BlockId(3));
        let mut divergent = 0;
        for mask in MASKS {
            for cond in OPERANDS {
                let k = kernel_of(vec![
                    vec![Instr::Bra {
                        cond,
                        taken,
                        not_taken,
                    }],
                    vec![Instr::Jmp { target: join }],
                    vec![Instr::Jmp { target: join }],
                    vec![Instr::Ret],
                ])?;
                let recon = ReconvergenceTable::build(&k);
                let ctx = row_ctx();
                let mut w = warp_with(mask);
                let t = (0..WIDTH)
                    .filter(|&l| mask >> l & 1 != 0 && w.eval(cond, l, &ctx) != 0)
                    .fold(0u64, |m, l| m | 1 << l);
                assert_eq!(w.exec_simple(&k, &recon, &ctx), SimpleOutcome::Done);
                let nt = mask & !t;
                let got: Vec<_> = w.stack.iter().map(|e| (e.pc, e.mask)).collect();
                let want = if nt == 0 {
                    vec![(Some((taken, 0)), mask)]
                } else if t == 0 {
                    vec![(Some((not_taken, 0)), mask)]
                } else {
                    divergent += 1;
                    vec![
                        (Some((join, 0)), mask),
                        (Some((not_taken, 0)), nt),
                        (Some((taken, 0)), t),
                    ]
                };
                assert_eq!(got, want, "bra on {cond:?} under mask {mask:#b}");
            }
        }
        assert!(
            divergent >= 4,
            "only {divergent} divergent branches exercised"
        );
        Ok(())
    }
}
