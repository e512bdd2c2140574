//! Cycle-level SIMT GPU timing simulator — the MacSim-equivalent substrate
//! of the GPUShield reproduction.
//!
//! The simulator executes kernels written in the [`gpushield_isa`] IR
//! functionally *and* temporally in a single pass: warps issue in order,
//! greedy-then-oldest scheduling picks among resident warps, memory
//! instructions flow through AGU → coalescer → TLB ∥ L1D → shared L2 →
//! FR-FCFS DRAM, and an optional [`MemGuard`] (GPUShield's BCU, or a
//! software baseline) observes every warp-level memory access.
//!
//! Two Table 5 presets are provided: [`GpuConfig::nvidia`] (16 SMs, 1024
//! threads/SM, 32-wide warps) and [`GpuConfig::intel`] (24 cores, 7 HW
//! threads, 8-wide SIMD).
//!
//! # Example
//!
//! ```
//! use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand, TaggedPtr};
//! use gpushield_mem::{AllocPolicy, VirtualMemorySpace};
//! use gpushield_sim::{Gpu, GpuConfig, KernelLaunch, LaunchConfig, RunOpts};
//! use std::sync::Arc;
//!
//! // out[i] = 3 * i
//! let mut b = KernelBuilder::new("triple");
//! let out = b.param_buffer("out", false);
//! let tid = b.global_thread_id();
//! let v = b.mul(tid, Operand::Imm(3));
//! let off = b.shl(tid, Operand::Imm(2));
//! b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), v);
//! b.ret();
//! let kernel = Arc::new(b.finish()?);
//!
//! let mut vm = VirtualMemorySpace::new();
//! let buf = vm.alloc(64 * 4, AllocPolicy::Device512)?;
//!
//! let mut gpu = Gpu::new(GpuConfig::nvidia());
//! let launch = KernelLaunch::new(kernel, LaunchConfig::new(2, 32))
//!     .arg(TaggedPtr::unprotected(buf.va).raw());
//! let report = gpu.run_with(&mut vm, &[launch], None, RunOpts::default())?;
//! assert!(report.cycles > 0);
//! assert_eq!(vm.read_uint(buf.va + 40, 4)?, 30);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod fault;
mod gpu;
mod guard;
mod launch;
mod stats;
mod timeline;
mod warp;

pub use config::GpuConfig;
pub use fault::{FaultKind, FaultPlan, FaultSession, FaultSpec, FaultTargets, InjectionRecord};
pub use gpu::{Gpu, MultiKernelMode, RunError, RunOpts};
pub use guard::{CheckPath, GuardCheck, GuardVerdict, MemAccess, MemGuard, ShardedGuard};
pub use launch::{CheckPlan, HeapDesc, KernelLaunch, LaunchConfig, SiteCheck};
pub use stats::{
    publish_run_report, AbortReason, LaunchReport, ObservedRange, RunReport, SimProfile,
    StallAttribution,
};
pub use timeline::{chrome_timeline, mem_space_code, mem_space_from_code};
