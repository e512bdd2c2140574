//! Kernel container: parameters, local variables, and the block graph.

use crate::cfg::ReconvergenceTable;
use crate::instr::{BlockId, Instr, MemSpace};
use std::fmt;
use std::sync::OnceLock;

/// Kind of a kernel parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// A pointer to a device buffer in the given space. The driver binds a
    /// tagged base address at launch. `readonly` buffers may be placed in
    /// constant/texture-like read-only paths and are enforced as read-only
    /// by GPUShield's RBT metadata.
    Buffer {
        /// Memory space the buffer lives in.
        space: MemSpace,
        /// True when the kernel may only read through this pointer.
        readonly: bool,
    },
    /// A plain scalar value (no bounds metadata).
    Scalar,
}

/// A declared kernel parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    name: String,
    kind: ParamKind,
}

impl Param {
    /// Creates a parameter declaration.
    pub fn new(name: impl Into<String>, kind: ParamKind) -> Self {
        Param {
            name: name.into(),
            kind,
        }
    }

    /// The parameter's source-level name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter's kind.
    pub fn kind(&self) -> ParamKind {
        self.kind
    }

    /// True if this parameter is a buffer pointer (any space).
    pub fn is_buffer(&self) -> bool {
        matches!(self.kind, ParamKind::Buffer { .. })
    }
}

/// A kernel variable spilled to off-chip local (stack) memory.
///
/// Per §2.1 of the paper, arrays that are too large for registers or are
/// dynamically indexed live in local memory; GPUShield treats *each local
/// variable* as a separate protected buffer. The driver lays a variable out
/// interleaved across the threads of a launch (consecutive threads own
/// consecutive 32-bit words, §3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalVar {
    name: String,
    bytes_per_thread: u64,
}

impl LocalVar {
    /// Declares a local variable occupying `bytes_per_thread` bytes in each
    /// thread's logical stack frame.
    pub fn new(name: impl Into<String>, bytes_per_thread: u64) -> Self {
        LocalVar {
            name: name.into(),
            bytes_per_thread,
        }
    }

    /// The variable's source-level name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bytes each thread owns in this variable.
    pub fn bytes_per_thread(&self) -> u64 {
        self.bytes_per_thread
    }
}

/// A straight-line sequence of instructions ending in a terminator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BasicBlock {
    instrs: Vec<Instr>,
}

impl BasicBlock {
    /// Builds a block from an instruction list (used by instrumentation
    /// passes; validity is checked when the kernel is assembled).
    pub fn from_instrs(instrs: Vec<Instr>) -> Self {
        BasicBlock { instrs }
    }

    /// The block's instructions, terminator last.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    pub(crate) fn push(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    /// The terminator, if the block is complete.
    pub fn terminator(&self) -> Option<&Instr> {
        self.instrs.last().filter(|i| i.is_terminator())
    }

    /// Successor blocks implied by the terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self.terminator() {
            Some(Instr::Jmp { target }) => vec![*target],
            Some(Instr::Bra {
                taken, not_taken, ..
            }) => {
                if taken == not_taken {
                    vec![*taken]
                } else {
                    vec![*taken, *not_taken]
                }
            }
            _ => vec![],
        }
    }
}

/// A complete GPU kernel: metadata plus a CFG of basic blocks.
///
/// Kernels are produced by [`crate::KernelBuilder`] and are immutable
/// afterwards; the compiler's Bounds-Analysis Table references instructions
/// by `(BlockId, index)` pairs which therefore stay stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    name: Box<str>,
    params: Vec<Param>,
    locals: Vec<LocalVar>,
    blocks: Vec<BasicBlock>,
    num_regs: u16,
    shared_bytes: u64,
    recon: Memo,
}

/// The reconvergence table, built on the first [`Kernel::reconvergence`]
/// call. It is a function of the kernel's blocks, so it takes no part in
/// equality and prints as a constant: a kernel compares and prints the
/// same before and after the table is built. Boxed, and the kernel's name
/// a `Box<str>`, to keep a `Kernel` near its size without the table (120
/// bytes, was 112): an inline table and a `String` name made it 144 and
/// raised fuzz's `peak_rss_mb` by ~0.6 MiB.
#[derive(Clone, Default)]
struct Memo(OnceLock<Box<ReconvergenceTable>>);

impl PartialEq for Memo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Memo {}

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("lazy")
    }
}

impl Kernel {
    /// Assembles and validates a kernel from raw parts. This is the entry
    /// point for instrumentation passes that rewrite an existing kernel's
    /// blocks (the normal construction path is [`crate::KernelBuilder`]).
    ///
    /// # Errors
    ///
    /// Returns a [`crate::ValidateError`] when the assembled kernel is
    /// structurally invalid.
    pub fn from_raw(
        name: String,
        params: Vec<Param>,
        locals: Vec<LocalVar>,
        blocks: Vec<BasicBlock>,
        num_regs: u16,
        shared_bytes: u64,
    ) -> Result<Self, crate::ValidateError> {
        let k = Kernel::from_parts(name, params, locals, blocks, num_regs, shared_bytes);
        crate::validate(&k)?;
        Ok(k)
    }

    pub(crate) fn from_parts(
        name: String,
        params: Vec<Param>,
        locals: Vec<LocalVar>,
        blocks: Vec<BasicBlock>,
        num_regs: u16,
        shared_bytes: u64,
    ) -> Self {
        Kernel {
            name: name.into_boxed_str(),
            params,
            locals,
            blocks,
            num_regs,
            shared_bytes,
            recon: Memo::default(),
        }
    }

    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared parameters in argument order.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Declared local-memory variables.
    pub fn locals(&self) -> &[LocalVar] {
        &self.locals
    }

    /// The basic blocks; `BlockId(i)` indexes this slice.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// A block by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// Number of vector registers the kernel uses.
    pub fn num_regs(&self) -> u16 {
        self.num_regs
    }

    /// Shared-memory bytes per workgroup.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_bytes
    }

    /// Where each divergent branch reconverges. Built on the first call
    /// and kept for the kernel's lifetime, so a kernel interned behind an
    /// `Arc` and launched many times builds its table once.
    pub fn reconvergence(&self) -> &ReconvergenceTable {
        self.recon
            .0
            .get_or_init(|| Box::new(ReconvergenceTable::build(self)))
    }

    /// Iterates over `(block, index, instruction)` in layout order.
    pub fn iter_instrs(&self) -> impl Iterator<Item = (BlockId, usize, &Instr)> {
        self.blocks.iter().enumerate().flat_map(|(b, blk)| {
            blk.instrs()
                .iter()
                .enumerate()
                .map(move |(i, ins)| (BlockId(b as u32), i, ins))
        })
    }

    /// Total static instruction count.
    pub fn static_instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs().len()).sum()
    }

    /// Number of buffer parameters (the quantity plotted in paper Fig. 1,
    /// before local variables are added).
    pub fn buffer_param_count(&self) -> usize {
        self.params.iter().filter(|p| p.is_buffer()).count()
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::disasm::disassemble(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Operand;

    #[test]
    fn block_successors() {
        let mut b = BasicBlock::default();
        b.push(Instr::Bra {
            cond: Operand::Imm(1),
            taken: BlockId(5),
            not_taken: BlockId(1),
        });
        assert_eq!(b.successors(), vec![BlockId(5), BlockId(1)]);
        let mut j = BasicBlock::default();
        j.push(Instr::Ret);
        assert!(j.successors().is_empty());
    }

    #[test]
    fn param_kinds() {
        let p = Param::new(
            "a",
            ParamKind::Buffer {
                space: MemSpace::Global,
                readonly: true,
            },
        );
        assert!(p.is_buffer());
        assert_eq!(p.name(), "a");
        let s = Param::new("n", ParamKind::Scalar);
        assert!(!s.is_buffer());
    }
}
