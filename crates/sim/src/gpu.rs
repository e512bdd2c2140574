//! The GPU device: workgroup dispatcher, shader cores with
//! greedy-then-oldest warp scheduling, the LSU memory pipeline, and
//! multi-kernel execution modes (§6.2).

use crate::config::GpuConfig;
use crate::fault::FaultSession;
use crate::guard::MemGuard;
use crate::launch::KernelLaunch;
use crate::stats::{self, LaunchReport, RunReport};
use crate::warp::{ExecCtx, Row, Rows, Warp, WarpBufs, MAX_LANES};
use gpushield_isa::{AddrExpr, BlockId, Instr, MemSpace, Operand, TaggedPtr, VReg};
use gpushield_mem::{
    Cache, MemFault, Replacement, SharedMemorySystem, Tlb, Transaction, VirtualMemorySpace,
    WarpLanes,
};
use gpushield_telemetry::flight::FlightRecorder;
use gpushield_telemetry::Registry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// The deterministic cycle-quantum engine that runs every launch. A child
/// module of `gpu` (not a sibling) so it can use the private core model —
/// `Core`, `LaunchState`, scheduling and LSU helpers — without widening
/// their visibility.
#[path = "par.rs"]
mod par;

const VA_MASK: u64 = (1 << 48) - 1;

/// A warp memory instruction (`Ld`/`St`/`AtomAdd`), decoded for the LSU.
#[derive(Clone, Copy)]
struct MemOp {
    is_store: bool,
    atomic: bool,
    addr: AddrExpr,
    space: MemSpace,
    /// Access width in bytes.
    width: u64,
    dst: Option<VReg>,
    /// The stored value or the atomic's addend.
    src: Option<Operand>,
    site: (BlockId, usize),
}

impl MemOp {
    fn decode(instr: Instr, site: (BlockId, usize)) -> MemOp {
        let (is_store, atomic, addr, space, width, dst, src) = match instr {
            Instr::Ld {
                dst,
                addr,
                space,
                width,
            } => (false, false, addr, space, width, Some(dst), None),
            Instr::St {
                src,
                addr,
                space,
                width,
            } => (true, false, addr, space, width, None, Some(src)),
            Instr::AtomAdd {
                dst,
                addr,
                space,
                width,
                src,
            } => (true, true, addr, space, width, Some(dst), Some(src)),
            _ => unreachable!("only Ld/St/AtomAdd reach the LSU"),
        };
        MemOp {
            is_store,
            atomic,
            addr,
            space,
            width: width.bytes(),
            dst,
            src,
            site,
        }
    }
}

/// The AGU: loads `op`'s stored values or atomic addends into `vals`,
/// writes every lane's effective address into `base` (masked-off lanes
/// too; the caller reads only the active ones) and returns the first
/// active lane's tagged base pointer, the one the bounds check decodes.
/// Shared memory is addressed by plain offsets; global addresses drop the
/// tag. `off` is scratch for a non-register offset operand.
fn agu(
    warp: &Warp,
    op: &MemOp,
    ctx: &ExecCtx<'_>,
    vals: &mut Row,
    base: &mut Row,
    off: &mut Row,
) -> TaggedPtr {
    if let Some(s) = op.src {
        warp.load_row(s, ctx, vals);
    }
    let offset = match op.addr {
        AddrExpr::Flat { addr } => {
            warp.load_row(addr, ctx, base);
            None
        }
        AddrExpr::BaseOffset { base: b, offset } => {
            warp.load_row(b, ctx, base);
            Some(offset)
        }
        AddrExpr::BindingTable { bti, offset } => {
            warp.load_row(Operand::Param(bti), ctx, base);
            Some(offset)
        }
    };
    let mask = warp.active_mask();
    let first = base.get(mask.trailing_zeros() as usize);
    let ptr = TaggedPtr::from_raw(first.copied().unwrap_or(0));
    let base = &mut base[..warp.width];
    match (offset.map(|o| warp.src(o, ctx, off)), op.space) {
        (Some(off), MemSpace::Shared) => {
            for (b, o) in base.iter_mut().zip(off) {
                *b = b.wrapping_add(*o);
            }
        }
        (Some(off), _) => {
            for (b, o) in base.iter_mut().zip(off) {
                *b = TaggedPtr::from_raw(*b).va().wrapping_add(*o) & VA_MASK;
            }
        }
        (None, MemSpace::Shared) => {}
        (None, _) => {
            for b in base {
                *b = TaggedPtr::from_raw(*b).va() & VA_MASK;
            }
        }
    }
    ptr
}

/// The AGU for a global access: [`agu`] writes the address row straight
/// into `lanes`, which then summarises the active lanes in their
/// [`LaneSpan`](gpushield_mem::LaneSpan) — the one pass over the lanes
/// every later LSU stage reads instead of its own.
fn gather_lane_vas(
    warp: &Warp,
    op: &MemOp,
    ctx: &ExecCtx<'_>,
    vals: &mut Row,
    off: &mut Row,
    lanes: &mut WarpLanes,
) -> TaggedPtr {
    lanes.fill(warp.width, warp.active_mask(), op.width, |base| {
        agu(warp, op, ctx, vals, base, off)
    })
}

/// The LSU's functional data path for one global memory instruction whose
/// lanes all translate. A load (`dst` without `atomic`) reads the whole
/// row — one translation when every lane byte lies in one page, else one
/// per same-page run — and commits it to `dst` only when every lane
/// succeeded; a store (`dst == None`) writes `vals` in lane order. A
/// global atomic (`atomic`) serialises its lanes' read-modify-writes in
/// lane order — real hardware serialises same-address atomics, and a
/// fixed order keeps the simulation deterministic — and returns each
/// lane's old value in `dst`.
///
/// A fault here means a lane straddled into an untranslatable page (the
/// pre-check translates each lane's first byte only); the caller aborts
/// the launch with it, which strips the launch, so an uncommitted row is
/// never observed. A load gathers into the scratch `row`, whose active
/// lanes it writes before committing them.
fn lane_data_path(
    vm: &VirtualMemorySpace,
    warp: &mut Warp,
    lanes: &WarpLanes,
    (dst, atomic): (Option<VReg>, bool),
    vals: &Row,
    row: &mut Row,
) -> Result<(), MemFault> {
    let Some(dst) = dst else {
        return vm.write_lanes(lanes, vals);
    };
    if atomic {
        let width = lanes.span().width();
        for (lane, va) in lanes.active() {
            row[lane] = vm.read_uint(va, width)?;
            vm.write_uint(va, width, row[lane].wrapping_add(vals[lane]))?;
        }
    } else {
        vm.read_lanes(lanes, row)?;
    }
    warp.store_row(dst, warp.active_mask(), row);
    Ok(())
}

/// How concurrent kernels share the GPU (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultiKernelMode {
    /// Fine-grained core slicing: every kernel may occupy any core.
    #[default]
    IntraCore,
    /// Core partitioning: kernel *i* of *n* runs on the *i*-th slice of the
    /// cores.
    InterCore,
}

/// Host-visible simulation errors (distinct from in-kernel faults, which
/// abort the offending launch and are reported in its [`LaunchReport`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// A workgroup cannot fit on an empty core (threads, registers, or
    /// shared memory).
    WorkgroupTooLarge {
        /// Offending kernel name.
        kernel: String,
    },
    /// All live warps are blocked at a barrier and nothing can unblock them.
    BarrierDeadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
    },
    /// A kernel executed `malloc` but the launch carried no heap region.
    NoHeap {
        /// Offending kernel name.
        kernel: String,
    },
    /// The cycle counter reached the configured hard budget
    /// (`GpuConfig::max_cycles`): the watchdog terminated a hang
    /// deterministically instead of simulating forever.
    CycleBudgetExceeded {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// The configured budget.
        budget: u64,
    },
    /// All remaining live warps are blocked on an exhausted device-heap
    /// allocator and no warp that could free memory is left (only
    /// reachable under `GpuConfig::malloc_blocks_on_exhaustion`).
    HeapDeadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
    },
    /// `GpuConfig::warp_width` is 0 or exceeds the 64 lanes a `u64`
    /// active mask can address.
    UnsupportedWarpWidth {
        /// The configured width.
        width: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::WorkgroupTooLarge { kernel } => {
                write!(f, "workgroup of kernel {kernel} cannot fit on a core")
            }
            RunError::BarrierDeadlock { cycle } => {
                write!(f, "barrier deadlock detected at cycle {cycle}")
            }
            RunError::NoHeap { kernel } => {
                write!(f, "kernel {kernel} uses malloc but no heap was configured")
            }
            RunError::CycleBudgetExceeded { cycle, budget } => {
                write!(f, "cycle budget of {budget} exceeded at cycle {cycle}")
            }
            RunError::HeapDeadlock { cycle } => {
                write!(f, "heap-allocation deadlock detected at cycle {cycle}")
            }
            RunError::UnsupportedWarpWidth { width } => {
                write!(
                    f,
                    "warp width {width} is outside the supported 1..={MAX_LANES} lanes"
                )
            }
        }
    }
}

impl Error for RunError {}

#[derive(Debug)]
struct ResidentWg {
    launch_idx: usize,
    wg: u64,
    shared: Vec<u8>,
}

/// Reusable per-core buffers, borrowed beside the core's warps for one
/// instruction, so the steady-state hot path neither allocates nor zeroes
/// a row — the transaction vector keeps its capacity across instructions.
#[derive(Debug, Default)]
struct WarpScratch {
    /// The global access's address row, active mask and span.
    lanes: WarpLanes,
    /// Coalesced transactions of the current access.
    txs: Vec<Transaction>,
    /// Operand rows: ALU sources and result, LSU values, offsets and
    /// loaded data.
    rows: Rows,
}

/// Storage a core recycles: the register files and SIMT stacks of
/// retired warps, handed to later dispatches so a steady-state dispatch
/// allocates nothing. What it holds is dead and how much depends on the
/// core's history, not its state, so `Debug` prints none of it: a reset
/// core prints like a fresh one. A workgroup's shared memory is not
/// recycled: most kernels declare none, which allocates nothing, and a
/// fresh `vec![0; n]` leaves the pages a kernel never touches unmapped,
/// where zeroing a recycled buffer would map them all.
#[derive(Default)]
struct Spare(Vec<WarpBufs>);

impl fmt::Debug for Spare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Spare")
    }
}

#[derive(Debug)]
struct Core {
    l1d: Cache,
    l1tlb: Tlb,
    lsu_busy_until: u64,
    warps: Vec<Warp>,
    wgs: Vec<ResidentWg>,
    last_issued: Option<usize>,
    /// Registers held by resident warps — kept in sync incrementally so the
    /// per-cycle dispatch fit check does not walk every warp.
    regs_used: usize,
    /// Shared-memory bytes held by resident workgroups, cached for the same
    /// reason as `regs_used`.
    shared_used: u64,
    /// Conservative lower bound on the earliest cycle any resident warp can
    /// issue; `u64::MAX` while the core holds no warp, so an idle core
    /// sleeps. The scheduler skips the whole core while `cycle` is below
    /// it; dispatch and the drain's parked operations lower it, and a
    /// failed warp pick recomputes it exactly. The engine writes it only
    /// together with the core's wake cell, which the driver reads to list
    /// the cores due in a quantum.
    next_ready_at: u64,
    scratch: WarpScratch,
    spare: Spare,
}

impl Core {
    fn new(cfg: &GpuConfig) -> Self {
        Core {
            l1d: Cache::new(cfg.l1_bytes, 128, cfg.l1_ways, Replacement::Lru),
            l1tlb: Tlb::new(cfg.l1_tlb_entries, 0),
            lsu_busy_until: 0,
            warps: Vec::new(),
            wgs: Vec::new(),
            last_issued: None,
            regs_used: 0,
            shared_used: 0,
            next_ready_at: u64::MAX,
            scratch: WarpScratch::default(),
            spare: Spare::default(),
        }
    }

    /// Returns the core to the state [`Core::new`] builds, keeping the
    /// capacity of its buffers — every run still starts with cold L1s.
    fn reset(&mut self) {
        self.l1d.reset();
        self.l1tlb.reset();
        self.lsu_busy_until = 0;
        self.release(|_, _| true);
        self.last_issued = None;
        self.regs_used = 0;
        self.shared_used = 0;
        self.next_ready_at = u64::MAX;
        let WarpScratch { lanes, txs, .. } = &mut self.scratch;
        lanes.clear();
        txs.clear();
    }

    /// Removes the warps and resident workgroups whose `(launch, wg)`
    /// `gone` selects, keeping the warps' storage in the spares.
    fn release(&mut self, gone: impl Fn(usize, u64) -> bool) {
        let spare = &mut self.spare.0;
        self.warps.retain_mut(|w| {
            let keep = !gone(w.launch_idx, w.wg);
            if !keep {
                spare.push(w.take_bufs());
            }
            keep
        });
        self.wgs.retain(|g| !gone(g.launch_idx, g.wg));
    }

    fn resident_warps(&self) -> usize {
        self.warps.len()
    }

    fn regs_in_use(&self, launches: &[KernelLaunch]) -> usize {
        self.warps
            .iter()
            .map(|w| usize::from(launches[w.launch_idx].kernel.num_regs()) * w.width)
            .sum()
    }

    fn shared_in_use(&self) -> u64 {
        self.wgs.iter().map(|w| w.shared.len() as u64).sum()
    }

    /// Greedy-then-oldest warp pick at cycle `t`: the last-issued warp
    /// while it stays ready, else the oldest ready warp. Warps are pushed
    /// in dispatch (`age`) order and only ever removed by `retain`, so
    /// `warps` is sorted by age and the oldest ready warp is the first.
    fn pick_warp(&self, t: u64) -> Option<usize> {
        let ready = |w: &Warp| !w.done && !w.at_barrier && !w.blocked && w.ready_at <= t;
        if let Some(i) = self.last_issued {
            if self.warps.get(i).is_some_and(ready) {
                return Some(i);
            }
        }
        self.warps.iter().position(ready)
    }

    /// Debug check of the invariant [`Core::pick_warp`] relies on.
    fn warps_age_ordered(&self) -> bool {
        self.warps.windows(2).all(|p| p[0].age < p[1].age)
    }
}

/// A launch's bookkeeping for one run; the launch itself stays the
/// caller's, at the same index of the run's launch slice.
struct LaunchState {
    /// Workgroups in the grid.
    grid: u64,
    warps_per_wg: usize,
    next_wg: u64,
    wgs_retired: u64,
    aborted: bool,
    report: LaunchReport,
    /// Per-site attempted-address extremes, populated only under
    /// [`RunOpts::observed_ranges`] (`None` keeps the default hot path
    /// allocation-free).
    observed: Option<HashMap<(gpushield_isa::BlockId, usize), (u64, u64)>>,
}

impl LaunchState {
    fn finished(&self) -> bool {
        self.aborted || self.wgs_retired == self.grid
    }
}

#[derive(Debug, Default)]
struct HeapRun {
    cursor: u64,
    lock_until: u64,
}

/// The simulated GPU device.
///
/// The shared L2/L2-TLB stay warm across `run` calls (as on real hardware,
/// where kernel boundaries flush per-core L1s and GPUShield's RCaches but
/// not the chip-level cache); DRAM channel timing and statistics restart
/// with each run's cycle 0. Every run starts its cores cold: the engine
/// keeps their storage between runs and resets it to the constructed
/// state.
pub struct Gpu {
    cfg: GpuConfig,
    shared: SharedMemorySystem,
    arena: par::Arena,
}

impl Gpu {
    /// Creates a GPU with the given hardware configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        let shared =
            SharedMemorySystem::new(cfg.l2_bytes, cfg.l2_tlb_entries, cfg.dram, cfg.timings);
        Gpu {
            cfg,
            shared,
            arena: par::Arena::default(),
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Runs `launches` to completion concurrently under `opts` and returns
    /// the run report. This is the one run entry; `opts` chooses the
    /// sharing mode and the optional outputs (see [`RunOpts`]).
    ///
    /// `guard` is the bounds-checking mechanism consulted on every memory
    /// access; `None` simulates an unprotected GPU.
    ///
    /// # Errors
    ///
    /// See [`RunError`]. In-kernel faults (illegal accesses, bounds
    /// violations) do *not* produce an `Err`; they abort the offending
    /// launch and surface in its [`LaunchReport`]. An injected hang trips
    /// the `max_cycles` watchdog as [`RunError::CycleBudgetExceeded`].
    pub fn run_with(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
        mut opts: RunOpts<'_>,
    ) -> Result<RunReport, RunError> {
        self.shared.begin_run();
        let mut registry = opts.registry.take();
        let opts = RunOpts {
            registry: registry.as_deref_mut(),
            ..opts
        };
        let report = par::run_engine(
            &self.cfg,
            vm,
            &mut self.shared,
            &mut self.arena,
            launches,
            guard,
            opts,
        )?;
        if let Some(reg) = registry {
            stats::publish_run_report(reg, &report);
            gpushield_mem::publish_dram_channels(reg, "mem.dram", self.shared.dram());
        }
        Ok(report)
    }

    /// [`Gpu::run_with`] with every option off. Kept for perfbench until
    /// it moves onto `run_with`.
    ///
    /// # Errors
    ///
    /// See [`Gpu::run_with`].
    pub fn run(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
    ) -> Result<RunReport, RunError> {
        self.run_with(vm, launches, guard, RunOpts::default())
    }

    /// [`Gpu::run_with`] recording [`RunOpts::observed_ranges`]. Kept for
    /// perfbench until it moves onto `run_with`.
    ///
    /// # Errors
    ///
    /// See [`Gpu::run_with`].
    pub fn run_recorded(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
    ) -> Result<RunReport, RunError> {
        self.run_with(
            vm,
            launches,
            guard,
            RunOpts {
                observed_ranges: true,
                ..RunOpts::default()
            },
        )
    }

    /// [`Gpu::run_with`] publishing into `registry` and, with `flight`,
    /// recording into that ring. Kept for perfbench until it moves onto
    /// `run_with`.
    ///
    /// # Errors
    ///
    /// See [`Gpu::run_with`].
    pub fn run_instrumented(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
        registry: &mut Registry,
        flight: Option<&mut FlightRecorder>,
    ) -> Result<RunReport, RunError> {
        self.run_with(
            vm,
            launches,
            guard,
            RunOpts {
                registry: Some(registry),
                flight,
                ..RunOpts::default()
            },
        )
    }
}

/// How one [`Gpu::run_with`] runs and what it records besides the report;
/// the default runs [`MultiKernelMode::IntraCore`] and records nothing.
#[derive(Default)]
pub struct RunOpts<'t> {
    /// How concurrent launches share the cores.
    pub mode: MultiKernelMode,
    /// Telemetry registry: scheduler counters and stride-sampled occupancy
    /// series while running, then launch totals, per-path stall
    /// attribution (`sim.stall.*`), the hot-path profile (`sim.profile.*`)
    /// and memory-hierarchy statistics (`mem.*`, including per-channel DRAM
    /// occupancy) at completion. A [`Registry::disabled`] registry is
    /// behaviourally and allocation-identical to none: every hook
    /// degenerates to one early-returning branch.
    pub registry: Option<&'t mut Registry>,
    /// Structured flight events (kernel lifecycle, check verdicts, aborts,
    /// watchdog trips, and on a [`FlightRecorder::timeline`] ring the
    /// dispatch/memory/barrier/retire timeline). Events are buffered per
    /// core and drained in canonical `(cycle, core, seq)` order, so the
    /// recorded stream is identical for every `sim_threads` setting.
    pub flight: Option<&'t mut FlightRecorder>,
    /// Deterministic fault-injection session (see [`FaultSession`])
    /// corrupting protection metadata mid-run; its injection log survives
    /// the run. The run then simulates every core on one engine worker with
    /// the whole guard (unforked), so the session's access counter advances
    /// in one canonical order; with an empty plan the simulated timing and
    /// memory are those of a run without a session.
    pub fault: Option<&'t mut FaultSession>,
    /// Record, for every static memory instruction outside shared memory,
    /// the lowest and highest byte address any lane *attempted* to access
    /// (after address generation, before the bounds-check verdict; each
    /// core keeps its own extremes and the quantum drain merges them). The
    /// extremes surface in each [`LaunchReport`]'s `observed_ranges`,
    /// sorted by site; everything else in the report is unchanged. This is
    /// the measurement side of the BAT soundness audit.
    pub observed_ranges: bool,
}

/// Validates the launches and builds their per-run bookkeeping into `ls`
/// (emptied first; its capacity is kept across runs).
fn build_launch_states(
    cfg: &GpuConfig,
    launches: &[KernelLaunch],
    ls: &mut Vec<LaunchState>,
) -> Result<(), RunError> {
    assert!(!launches.is_empty(), "no launches given");
    if !(1..=MAX_LANES).contains(&cfg.warp_width) {
        return Err(RunError::UnsupportedWarpWidth {
            width: cfg.warp_width,
        });
    }
    ls.clear();
    for l in launches {
        l.assert_bound();
        let warps_per_wg = (l.launch.block as usize).div_ceil(cfg.warp_width);
        // Reject workgroups that cannot fit an empty core.
        let regs_needed = warps_per_wg * usize::from(l.kernel.num_regs()) * cfg.warp_width;
        if warps_per_wg > cfg.max_warps_per_core()
            || regs_needed > cfg.regs_per_core
            || l.kernel.shared_bytes() > cfg.shared_per_core
        {
            return Err(RunError::WorkgroupTooLarge {
                kernel: l.kernel.name().to_string(),
            });
        }
        ls.push(LaunchState {
            grid: u64::from(l.launch.grid),
            warps_per_wg,
            next_wg: 0,
            wgs_retired: 0,
            aborted: false,
            report: LaunchReport {
                kernel: l.kernel.name().to_string(),
                kernel_id: l.kernel_id,
                ..LaunchReport::default()
            },
            observed: None,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::{KernelLaunch, LaunchConfig};
    use crate::stats::AbortReason;
    use gpushield_isa::{KernelBuilder, MemWidth, Operand};
    use gpushield_mem::AllocPolicy;
    use gpushield_runtime::rng::StdRng;
    use std::sync::Arc;

    /// The scheduler's pick as a full scan: greedy, else the ready warp
    /// with the smallest age wherever it sits.
    fn min_age_pick(core: &Core, t: u64) -> Option<usize> {
        let ready = |w: &Warp| !w.done && !w.at_barrier && !w.blocked && w.ready_at <= t;
        if let Some(i) = core.last_issued {
            if core.warps.get(i).is_some_and(ready) {
                return Some(i);
            }
        }
        core.warps
            .iter()
            .enumerate()
            .filter(|(_, w)| ready(w))
            .min_by_key(|(_, w)| w.age)
            .map(|(i, _)| i)
    }

    #[test]
    fn age_ordered_pick_matches_the_min_age_scan() {
        let mut rng = StdRng::seed_from_u64(0xA6E);
        let mut core = Core::new(&GpuConfig::test_tiny());
        let mut picked = 0;
        for case in 0..2000 {
            // Dispatch in age order with gaps, then retire a random
            // subset with `retain`, as workgroup retirement does.
            core.warps.clear();
            let mut age = rng.gen_range(0u64..50);
            for w in 0..rng.gen_range(0usize..24) {
                let bufs = WarpBufs::default();
                let mut warp = Warp::new(0, w as u64 / 4, w % 4, 32, 32, 1, age, bufs);
                warp.done = rng.gen_bool(0.2);
                warp.at_barrier = rng.gen_bool(0.2);
                warp.blocked = rng.gen_bool(0.1);
                warp.ready_at = rng.gen_range(0u64..20);
                core.warps.push(warp);
                age += rng.gen_range(1u64..5);
            }
            let gone = rng.gen_range(0u64..8);
            core.warps.retain(|w| w.wg != gone);
            assert!(core.warps_age_ordered(), "case {case}");
            core.last_issued = match rng.gen_range(0u32..3) {
                0 => None,
                1 => Some(rng.gen_range(0usize..core.warps.len().max(1))),
                _ => Some(core.warps.len() + rng.gen_range(0usize..3)),
            };
            let t = rng.gen_range(0u64..20);
            let want = min_age_pick(&core, t);
            assert_eq!(core.pick_warp(t), want, "case {case}");
            picked += usize::from(want.is_some() && want != core.last_issued);
        }
        assert!(
            picked > 500,
            "oldest-ready branch taken only {picked} times"
        );
    }

    fn write_iota_kernel() -> Arc<gpushield_isa::Kernel> {
        let mut b = KernelBuilder::new("iota");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn a_reset_core_equals_a_fresh_one() -> Result<(), Box<dyn Error>> {
        let cfg = GpuConfig::test_tiny();
        let fresh = format!("{:?}", Core::new(&cfg));
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(256 * 4, AllocPolicy::Device512)?;
        let launch = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(16, 16))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let mut done = Gpu::new(cfg.clone());
        assert!(done
            .run(&mut vm, std::slice::from_ref(&launch), None)?
            .completed());
        // A run cut off by the watchdog leaves workgroups resident.
        let mut cut = Gpu::new(GpuConfig {
            max_cycles: 10,
            ..cfg
        });
        assert!(cut.run(&mut vm, &[launch], None).is_err());
        let cores = cut.arena.cores_mut();
        assert!(cores
            .iter()
            .any(|c| !c.warps.is_empty() && !c.wgs.is_empty()));
        for gpu in [&mut done, &mut cut] {
            let mut cores = gpu.arena.cores_mut();
            assert!(cores.iter().any(|c| format!("{c:?}") != fresh));
            for (i, core) in cores.iter_mut().enumerate() {
                core.reset();
                assert_eq!(format!("{core:?}"), fresh, "core {i}");
            }
        }
        Ok(())
    }

    /// Shared-memory accesses act on the active lanes only: under a
    /// divergent branch the masked-off lanes neither store nor add.
    #[test]
    fn masked_off_lanes_leave_shared_memory_alone() -> Result<(), Box<dyn Error>> {
        let mut b = KernelBuilder::new("shared_mask");
        let out = b.param_buffer("out", false);
        b.shared_mem(32 * 4);
        let tid = b.thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Shared, MemWidth::W4, b.flat(off), Operand::Imm(7));
        b.bar();
        // Even threads only, so every warp diverges.
        let odd = b.and(tid, Operand::Imm(1));
        let even = b.eq(odd, Operand::Imm(0));
        let val = b.add(tid, Operand::Imm(100));
        b.if_then(even, |b| {
            b.st(MemSpace::Shared, MemWidth::W4, b.flat(off), val);
            let last = b.flat(Operand::Imm(31 * 4));
            b.atom_add(MemSpace::Shared, MemWidth::W4, last, Operand::Imm(1));
        });
        b.bar();
        let got = b.ld(MemSpace::Shared, MemWidth::W4, b.flat(off));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), got);
        b.ret();
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(32 * 4, AllocPolicy::Device512)?;
        let launch = KernelLaunch::new(Arc::new(b.finish()?), LaunchConfig::new(1, 32))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        assert!(gpu.run(&mut vm, &[launch], None)?.completed());
        for t in 0..32u64 {
            let want = match t {
                31 => 7 + 16,
                _ if t % 2 == 0 => 100 + t,
                _ => 7,
            };
            assert_eq!(vm.read_uint(buf.va + 4 * t, 4)?, want, "thread {t}");
        }
        Ok(())
    }

    /// `kernel` as `grid` workgroups of 32 threads writing a fresh buffer
    /// on pages of its own, so launches on one `Gpu` share no L2 or L2-TLB
    /// line.
    fn launch_on_fresh_pages(
        vm: &mut VirtualMemorySpace,
        kernel: Arc<gpushield_isa::Kernel>,
        grid: u32,
    ) -> Result<KernelLaunch, Box<dyn Error>> {
        let buf = vm.alloc(16 * 1024, AllocPolicy::Device512)?;
        Ok(KernelLaunch::new(kernel, LaunchConfig::new(grid, 32))
            .arg(TaggedPtr::unprotected(buf.va).raw()))
    }

    #[test]
    fn idle_cores_cost_nothing_and_count_nothing() -> Result<(), Box<dyn Error>> {
        let full = GpuConfig::nvidia();
        let fresh = format!("{:?}", Core::new(&full));
        for g in [1u32, 3] {
            let mut runs = Vec::new();
            for num_cores in [g as usize, full.num_cores] {
                let mut gpu = Gpu::new(GpuConfig {
                    num_cores,
                    ..full.clone()
                });
                let mut vm = VirtualMemorySpace::new();
                let launch = launch_on_fresh_pages(&mut vm, write_iota_kernel(), g)?;
                let mut reg = Registry::new();
                let opts = RunOpts {
                    registry: Some(&mut reg),
                    ..RunOpts::default()
                };
                let report = gpu.run_with(&mut vm, &[launch], None, opts)?;
                assert!(report.completed());
                let no_issue = reg.value("sim.sched.no_issue_slots");
                assert!(no_issue.is_some_and(|v| v > 0), "g={g}: {no_issue:?}");
                runs.push((format!("{report:?}"), no_issue));
                for (i, core) in gpu.arena.cores_mut().iter().enumerate().skip(g as usize) {
                    assert_eq!(format!("{core:?}"), fresh, "g={g}: idle core {i}");
                }
            }
            assert_eq!(runs[0], runs[1], "g={g}: {g} vs 16 cores");
        }
        Ok(())
    }

    #[test]
    fn a_partly_used_arena_runs_like_a_fresh_gpu() -> Result<(), Box<dyn Error>> {
        let cfg = GpuConfig {
            max_cycles: 20_000,
            ..GpuConfig::nvidia()
        };
        // Every thread stores forever: the watchdog cuts the launch with
        // workgroups resident and their L1s warm.
        let hang = {
            let mut b = KernelBuilder::new("hang");
            let out = b.param_buffer("out", false);
            let tid = b.global_thread_id();
            let off = b.shl(tid, Operand::Imm(2));
            b.while_loop(
                |_| Operand::Imm(1),
                |b| b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid),
            );
            b.ret();
            Arc::new(b.finish()?)
        };
        let steps = [
            (write_iota_kernel(), 16, "Ok("),
            (write_iota_kernel(), 1, "Ok("),
            (hang, 16, "Err(CycleBudgetExceeded"),
            (write_iota_kernel(), 16, "Ok("),
        ];
        let mut vm = VirtualMemorySpace::new();
        let mut reused = Gpu::new(cfg.clone());
        for (step, (kernel, grid, outcome)) in steps.into_iter().enumerate() {
            let mut run = |gpu: &mut Gpu| -> Result<String, Box<dyn Error>> {
                let launch = launch_on_fresh_pages(&mut vm, kernel.clone(), grid)?;
                let r = gpu.run_with(&mut vm, &[launch], None, RunOpts::default());
                Ok(format!("{r:?}"))
            };
            let got = run(&mut reused)?;
            assert_eq!(got, run(&mut Gpu::new(cfg.clone()))?, "step {step}");
            assert!(got.starts_with(outcome), "step {step}: {got}");
        }
        Ok(())
    }

    #[test]
    fn end_to_end_store_kernel() {
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(256 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(16, 16))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let report = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(report.completed());
        for i in 0..256u64 {
            assert_eq!(vm.read_uint(buf.va + i * 4, 4).unwrap(), i, "element {i}");
        }
        assert!(report.cycles > 0);
        assert_eq!(report.launches[0].mem_instructions, 16 * 4); // 16 wgs × 4 warps
    }

    #[test]
    fn load_store_roundtrip_through_gpu() {
        // out[i] = in[i] * 2
        let mut b = KernelBuilder::new("dbl");
        let inp = b.param_buffer("in", true);
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        let x = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(inp, off));
        let y = b.mul(x, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), y);
        b.ret();
        let k = Arc::new(b.finish().unwrap());

        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(64 * 4, AllocPolicy::Device512).unwrap();
        let o = vm.alloc(64 * 4, AllocPolicy::Device512).unwrap();
        for i in 0..64u64 {
            vm.write_uint(a.va + i * 4, 4, i + 100).unwrap();
        }
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(k, LaunchConfig::new(4, 16))
            .arg(TaggedPtr::unprotected(a.va).raw())
            .arg(TaggedPtr::unprotected(o.va).raw());
        let report = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(report.completed());
        for i in 0..64u64 {
            assert_eq!(vm.read_uint(o.va + i * 4, 4).unwrap(), (i + 100) * 2);
        }
        assert!(report.l1d.accesses() > 0);
    }

    #[test]
    fn unmapped_access_aborts_launch() {
        let mut b = KernelBuilder::new("wild");
        let out = b.param_buffer("out", false);
        // Store far outside any mapped region.
        b.st(
            MemSpace::Global,
            MemWidth::W4,
            b.base_offset(out, Operand::Imm(1 << 40)),
            Operand::Imm(1),
        );
        b.ret();
        let k = Arc::new(b.finish().unwrap());
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(64, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch =
            KernelLaunch::new(k, LaunchConfig::new(1, 4)).arg(TaggedPtr::unprotected(buf.va).raw());
        let report = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(!report.completed());
        assert!(matches!(
            report.abort(),
            Some(AbortReason::MemFault(MemFault::Unmapped { .. }))
        ));
    }

    #[test]
    fn barrier_synchronizes_workgroup() {
        // shared[tid] = tid; bar; out[tid] = shared[tid ^ 1]
        let mut b = KernelBuilder::new("bar");
        let out = b.param_buffer("out", false);
        b.shared_mem(64 * 8);
        let tid = b.mov(b.thread_id());
        let soff = b.shl(tid, Operand::Imm(3));
        b.st(MemSpace::Shared, MemWidth::W8, b.flat(soff), tid);
        b.bar();
        let mate = b.xor(tid, Operand::Imm(1));
        let moff = b.shl(mate, Operand::Imm(3));
        let v = b.ld(MemSpace::Shared, MemWidth::W8, b.flat(moff));
        let goff = b.shl(tid, Operand::Imm(3));
        b.st(MemSpace::Global, MemWidth::W8, b.base_offset(out, goff), v);
        b.ret();
        let k = Arc::new(b.finish().unwrap());

        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(16 * 8, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(k, LaunchConfig::new(1, 16))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let report = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(report.completed());
        for i in 0..16u64 {
            assert_eq!(vm.read_uint(buf.va + i * 8, 8).unwrap(), i ^ 1);
        }
    }

    #[test]
    fn device_malloc_returns_tagged_heap_pointers() {
        let mut b = KernelBuilder::new("heapuser");
        let out = b.param_buffer("out", false);
        let p = b.malloc(Operand::Imm(16));
        // Store through the heap pointer, then record it.
        b.st(
            MemSpace::Global,
            MemWidth::W4,
            b.base_offset(p, Operand::Imm(0)),
            Operand::Imm(0x5A),
        );
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(3));
        b.st(MemSpace::Global, MemWidth::W8, b.base_offset(out, off), p);
        b.ret();
        let k = Arc::new(b.finish().unwrap());

        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(8 * 8, AllocPolicy::Device512).unwrap();
        let heap = vm.alloc(1 << 16, AllocPolicy::Isolated).unwrap();
        let tagged_heap = TaggedPtr::with_region_id(heap.va, 0x77);
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(k, LaunchConfig::new(1, 8))
            .arg(TaggedPtr::unprotected(buf.va).raw())
            .heap(crate::launch::HeapDesc {
                tagged_base: tagged_heap,
                size: 1 << 16,
            });
        let report = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(report.completed());
        let mut seen = std::collections::HashSet::new();
        for i in 0..8u64 {
            let raw = vm.read_uint(buf.va + i * 8, 8).unwrap();
            let p = TaggedPtr::from_raw(raw);
            assert_eq!(p.info(), 0x77, "heap tag propagates to malloc results");
            assert!(p.va() >= heap.va && p.va() < heap.va + (1 << 16));
            assert!(seen.insert(p.va()), "allocations must not overlap");
            assert_eq!(vm.read_uint(p.va(), 4).unwrap(), 0x5A);
        }
    }

    /// Every thread mallocs 24 bytes, then only even threads do, under a
    /// branch that splits every warp; a barrier orders the two rounds. A
    /// thread stores round `i`'s pointer in `slots[2 * tid + i]`, writes
    /// `tid + 1` through it unless it is NULL, and after both rounds
    /// stores its malloc register in `last[tid]`.
    fn divergent_malloc_kernel() -> Result<Arc<gpushield_isa::Kernel>, Box<dyn Error>> {
        let mut b = KernelBuilder::new("divergent_malloc");
        let slots = b.param_buffer("slots", false);
        let last = b.param_buffer("last", false);
        let tid = b.global_thread_id();
        let lane = b.thread_id();
        let odd = b.and(lane, Operand::Imm(1));
        let even = b.eq(odd, Operand::Imm(0));
        let mut ptr = None;
        b.for_loop(Operand::Imm(0), Operand::Imm(2), 1, |b, round| {
            b.bar();
            let first = b.eq(round, Operand::Imm(0));
            let go = b.or(first, even);
            b.if_then(go, |b| {
                let p = b.malloc(Operand::Imm(24));
                let at = b.shl(tid, Operand::Imm(4));
                let at_round = b.shl(round, Operand::Imm(3));
                let at = b.add(at, at_round);
                b.st(MemSpace::Global, MemWidth::W8, b.base_offset(slots, at), p);
                let mark = b.add(tid, Operand::Imm(1));
                b.if_then(p, |b| {
                    b.st(
                        MemSpace::Global,
                        MemWidth::W8,
                        b.base_offset(p, Operand::Imm(0)),
                        mark,
                    )
                });
                ptr = Some(p);
            });
        });
        let ptr = ptr.ok_or("the loop body emits the malloc")?;
        let at = b.shl(tid, Operand::Imm(3));
        b.st(MemSpace::Global, MemWidth::W8, b.base_offset(last, at), ptr);
        b.ret();
        Ok(Arc::new(b.finish()?))
    }

    /// Runs [`divergent_malloc_kernel`] as `grid` workgroups of 8 threads
    /// (two 4-lane warps each) on a heap of `heap_size` bytes tagged
    /// 0x77. Returns, per thread, its two slots and its last pointer.
    fn run_divergent_malloc(grid: u32, heap_size: u64) -> Result<Vec<[u64; 3]>, Box<dyn Error>> {
        let threads = u64::from(grid) * 8;
        let mut vm = VirtualMemorySpace::new();
        let slots = vm.alloc(threads * 16, AllocPolicy::Device512)?;
        let last = vm.alloc(threads * 8, AllocPolicy::Device512)?;
        let heap = vm.alloc(1 << 16, AllocPolicy::Isolated)?;
        let launch = KernelLaunch::new(divergent_malloc_kernel()?, LaunchConfig::new(grid, 8))
            .arg(TaggedPtr::unprotected(slots.va).raw())
            .arg(TaggedPtr::unprotected(last.va).raw())
            .heap(crate::launch::HeapDesc {
                tagged_base: TaggedPtr::with_region_id(heap.va, 0x77),
                size: heap_size,
            });
        let cfg = GpuConfig::test_tiny();
        assert_eq!(cfg.warp_width, 4);
        assert!(!cfg.malloc_blocks_on_exhaustion);
        assert!(Gpu::new(cfg).run(&mut vm, &[launch], None)?.completed());
        let mut out = Vec::new();
        for t in 0..threads {
            let got = [
                vm.read_uint(slots.va + 16 * t, 8)?,
                vm.read_uint(slots.va + 16 * t + 8, 8)?,
                vm.read_uint(last.va + 8 * t, 8)?,
            ];
            for raw in got[..2].iter().filter(|&&raw| raw != 0) {
                let va = TaggedPtr::from_raw(*raw).va();
                assert_eq!(vm.read_uint(va, 8)?, t + 1, "thread {t}'s chunk");
            }
            out.push(got);
        }
        Ok(out)
    }

    #[test]
    fn malloc_under_divergence_serves_active_lanes_in_lane_order() -> Result<(), Box<dyn Error>> {
        let threads = run_divergent_malloc(2, 1 << 16)?;
        let mut seen = std::collections::HashSet::new();
        for (t, &[first, second, last]) in threads.iter().enumerate() {
            // Masked-off (odd) threads keep their first pointer.
            let even = t % 2 == 0;
            assert_eq!(last, if even { second } else { first }, "thread {t}");
            if !even {
                assert_eq!(second, 0, "thread {t} took no second round");
            }
            for raw in [first, second].into_iter().filter(|&raw| raw != 0) {
                let p = TaggedPtr::from_raw(raw);
                assert_eq!(p.info(), 0x77, "heap tag propagates to malloc results");
                assert_eq!(p.va() % 16, 0, "thread {t}: {raw:#x}");
                assert!(seen.insert(p.va()), "allocations must not overlap");
            }
        }
        assert_eq!(seen.len(), 16 + 8);
        // One malloc serves its warp's active lanes in lane order, each
        // 24-byte request rounded up to 32.
        for warp in threads.chunks(4) {
            for pair in warp.windows(2) {
                assert_eq!(pair[1][0], pair[0][0] + 32);
            }
            assert_eq!(warp[2][1], warp[0][1] + 32);
        }
        Ok(())
    }

    #[test]
    fn malloc_exhaustion_gives_null_to_active_lanes_only() -> Result<(), Box<dyn Error>> {
        // Room for the first round's eight requests and one more.
        let threads = run_divergent_malloc(1, 9 * 32)?;
        let mut served = 0;
        for (t, &[first, second, last]) in threads.iter().enumerate() {
            assert_ne!(first, 0, "thread {t}: the first round fits");
            if t % 2 == 0 {
                assert_eq!(last, second, "thread {t}");
                served += usize::from(second != 0);
            } else {
                assert_eq!(last, first, "masked-off thread {t} keeps its pointer");
            }
        }
        assert_eq!(served, 1, "one second-round request fits");
        Ok(())
    }

    #[test]
    fn malloc_without_heap_is_an_error() {
        let mut b = KernelBuilder::new("noheap");
        let _p = b.malloc(Operand::Imm(16));
        b.ret();
        let k = Arc::new(b.finish().unwrap());
        let mut vm = VirtualMemorySpace::new();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(k, LaunchConfig::new(1, 4));
        assert!(matches!(
            gpu.run(&mut vm, &[launch], None),
            Err(RunError::NoHeap { .. })
        ));
    }

    #[test]
    fn oversized_workgroup_rejected() {
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(1 << 20, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        // test_tiny allows 64 threads per core; ask for 256.
        let launch = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(1, 256))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        assert!(matches!(
            gpu.run(&mut vm, &[launch], None),
            Err(RunError::WorkgroupTooLarge { .. })
        ));
    }

    #[test]
    fn unsupported_warp_widths_are_typed_errors() -> Result<(), Box<dyn Error>> {
        for width in [0, MAX_LANES + 1] {
            let mut cfg = GpuConfig::test_tiny();
            cfg.warp_width = width;
            let mut vm = VirtualMemorySpace::new();
            let buf = vm.alloc(64 * 4, AllocPolicy::Device512)?;
            let mut gpu = Gpu::new(cfg);
            let launch = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(1, 8))
                .arg(TaggedPtr::unprotected(buf.va).raw());
            let launches = [launch];
            let want = RunError::UnsupportedWarpWidth { width };
            assert_eq!(gpu.run(&mut vm, &launches, None).unwrap_err(), want);
            assert_eq!(
                gpu.run_recorded(&mut vm, &launches, None).unwrap_err(),
                want
            );
            assert_eq!(
                want.to_string(),
                format!("warp width {width} is outside the supported 1..=64 lanes")
            );
        }
        Ok(())
    }

    /// Each thread reads `in[tid]` and atomically adds it to `out[tid]`,
    /// so both the in-phase load and the drained global atomic record
    /// their sites.
    fn load_then_atomic_kernel() -> Result<Arc<gpushield_isa::Kernel>, Box<dyn Error>> {
        let mut b = KernelBuilder::new("ld_atom");
        let inp = b.param_buffer("in", true);
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        let x = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(inp, off));
        let _ = b.atom_add(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), x);
        b.ret();
        Ok(Arc::new(b.finish()?))
    }

    #[test]
    fn recorded_runs_add_observed_ranges_and_change_nothing_else() -> Result<(), Box<dyn Error>> {
        let run = |sim_threads: usize, recorded: bool| -> Result<RunReport, Box<dyn Error>> {
            let mut cfg = GpuConfig::test_tiny();
            cfg.num_cores = 4;
            cfg.sim_threads = sim_threads;
            let mut vm = VirtualMemorySpace::new();
            let inp = vm.alloc(64 * 4, AllocPolicy::Device512)?;
            let out = vm.alloc(64 * 4, AllocPolicy::Device512)?;
            let launch = KernelLaunch::new(load_then_atomic_kernel()?, LaunchConfig::new(4, 16))
                .arg(TaggedPtr::unprotected(inp.va).raw())
                .arg(TaggedPtr::unprotected(out.va).raw());
            let mut gpu = Gpu::new(cfg);
            let launches = [launch];
            Ok(if recorded {
                gpu.run_recorded(&mut vm, &launches, None)?
            } else {
                gpu.run(&mut vm, &launches, None)?
            })
        };
        let mut recorded = run(1, true)?;
        assert_eq!(format!("{recorded:?}"), format!("{:?}", run(3, true)?));
        let ranges = std::mem::take(&mut recorded.launches[0].observed_ranges);
        assert_eq!(format!("{recorded:?}"), format!("{:?}", run(1, false)?));
        // One range per global site, each spanning all 64 words.
        assert_eq!(ranges.len(), 2);
        assert!(ranges[0].site < ranges[1].site);
        assert!(ranges.iter().all(|r| r.hi - r.lo == 64 * 4));
        Ok(())
    }

    #[test]
    fn faulted_runs_with_an_empty_plan_time_like_plain_runs() -> Result<(), Box<dyn Error>> {
        let run = |faulted: bool| -> Result<String, Box<dyn Error>> {
            let mut vm = VirtualMemorySpace::new();
            let inp = vm.alloc(64 * 4, AllocPolicy::Device512)?;
            let out = vm.alloc(64 * 4, AllocPolicy::Device512)?;
            let launch = KernelLaunch::new(load_then_atomic_kernel()?, LaunchConfig::new(4, 16))
                .arg(TaggedPtr::unprotected(inp.va).raw())
                .arg(TaggedPtr::unprotected(out.va).raw());
            let mut gpu = Gpu::new(GpuConfig::test_tiny());
            let launches = [launch];
            let report = if faulted {
                let mut session =
                    FaultSession::new(crate::FaultPlan::empty(), crate::FaultTargets::default());
                let opts = RunOpts {
                    fault: Some(&mut session),
                    ..RunOpts::default()
                };
                let r = gpu.run_with(&mut vm, &launches, None, opts)?;
                // Every global access (the load and the atomic of each
                // of the 16 four-lane warps) advances the session's
                // counter.
                assert_eq!(session.accesses_observed(), 32);
                r
            } else {
                gpu.run(&mut vm, &launches, None)?
            };
            Ok(format!("{report:?}"))
        };
        assert_eq!(run(true)?, run(false)?);
        Ok(())
    }

    #[test]
    fn widest_supported_warp_runs_every_lane() -> Result<(), Box<dyn Error>> {
        // One 64-lane warp: lane 63 sits on the active mask's top bit.
        let mut cfg = GpuConfig::test_tiny();
        cfg.warp_width = MAX_LANES;
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(128 * 4, AllocPolicy::Device512)?;
        let mut gpu = Gpu::new(cfg);
        let launch = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(2, 64))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        assert!(gpu.run(&mut vm, &[launch], None)?.completed());
        for i in 0..128u64 {
            assert_eq!(vm.read_uint(buf.va + i * 4, 4)?, i, "element {i}");
        }
        Ok(())
    }

    #[test]
    fn oversubscribed_crew_reproduces_the_single_worker_report() -> Result<(), Box<dyn Error>> {
        let run = |sim_threads: usize| -> Result<String, Box<dyn Error>> {
            let mut cfg = GpuConfig::test_tiny();
            cfg.num_cores = 8;
            cfg.sim_threads = sim_threads;
            let mut vm = VirtualMemorySpace::new();
            let buf = vm.alloc(512 * 4, AllocPolicy::Device512)?;
            let mut gpu = Gpu::new(cfg);
            let launch = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(32, 16))
                .arg(TaggedPtr::unprotected(buf.va).raw());
            let report = gpu.run(&mut vm, &[launch], None)?;
            assert!(report.completed());
            Ok(format!("{report:?}"))
        };
        assert_eq!(run(64)?, run(1)?);
        Ok(())
    }

    #[test]
    fn trace_records_lifecycle_in_order() {
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(256 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(2, 16))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let mut ring = FlightRecorder::timeline(10_000);
        let opts = RunOpts {
            flight: Some(&mut ring),
            ..RunOpts::default()
        };
        let report = gpu.run_with(&mut vm, &[launch], None, opts).unwrap();
        assert!(report.completed());
        assert_eq!(ring.events_dropped(), 0);
        let events: Vec<_> = ring.iter().collect();
        // 2 dispatches, one mem + retire per warp (2 wgs x 4 warps).
        let count = |kind: &str| events.iter().filter(|r| r.ev.kind_name() == kind).count();
        assert_eq!(count("dispatch"), 2);
        assert_eq!(count("mem"), 8);
        assert_eq!(count("retire"), 8);
        // Cycles are non-decreasing.
        assert!(events.windows(2).all(|w| w[0].t <= w[1].t));
        // A workgroup's dispatch precedes all of its events.
        let first = |kind: &str| events.iter().position(|r| r.ev.kind_name() == kind);
        assert!(first("dispatch").unwrap() < first("mem").unwrap());
    }

    #[test]
    fn two_kernels_intercore_partition() {
        let mut vm = VirtualMemorySpace::new();
        let b1 = vm.alloc(256 * 4, AllocPolicy::Device512).unwrap();
        let b2 = vm.alloc(256 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let l1 = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(16, 16))
            .arg(TaggedPtr::unprotected(b1.va).raw());
        let l2 = KernelLaunch::new(write_iota_kernel(), LaunchConfig::new(16, 16))
            .arg(TaggedPtr::unprotected(b2.va).raw());
        let opts = RunOpts {
            mode: MultiKernelMode::InterCore,
            ..RunOpts::default()
        };
        let report = gpu.run_with(&mut vm, &[l1, l2], None, opts).unwrap();
        assert!(report.completed());
        assert_eq!(vm.read_uint(b1.va + 4 * 255, 4).unwrap(), 255);
        assert_eq!(vm.read_uint(b2.va + 4 * 255, 4).unwrap(), 255);
    }

    #[test]
    fn divergent_kernel_writes_correct_lanes() {
        // if (tid % 2 == 0) out[tid] = 7 else out[tid] = 9
        let mut b = KernelBuilder::new("parity");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let bit = b.and(tid, Operand::Imm(1));
        let is_even = b.eq(bit, Operand::Imm(0));
        let off = b.shl(tid, Operand::Imm(2));
        b.if_then_else(
            is_even,
            |b| {
                b.st(
                    MemSpace::Global,
                    MemWidth::W4,
                    b.base_offset(out, off),
                    Operand::Imm(7),
                );
            },
            |b| {
                b.st(
                    MemSpace::Global,
                    MemWidth::W4,
                    b.base_offset(out, off),
                    Operand::Imm(9),
                );
            },
        );
        b.ret();
        let k = Arc::new(b.finish().unwrap());

        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(32 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(k, LaunchConfig::new(2, 16))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let report = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(report.completed());
        for i in 0..32u64 {
            let expect = if i % 2 == 0 { 7 } else { 9 };
            assert_eq!(vm.read_uint(buf.va + i * 4, 4).unwrap(), expect, "lane {i}");
        }
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use crate::launch::{KernelLaunch, LaunchConfig};
    use gpushield_isa::{KernelBuilder, MemWidth, Operand, TaggedPtr};
    use gpushield_mem::AllocPolicy;
    use gpushield_telemetry::flight::FlightEvent;
    use std::sync::Arc;

    fn store_kernel() -> Arc<gpushield_isa::Kernel> {
        let mut b = KernelBuilder::new("store");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn workgroups_spread_across_cores() {
        // 2 small workgroups on a 2-core GPU must land on different cores.
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(64 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(store_kernel(), LaunchConfig::new(2, 8))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let mut ring = FlightRecorder::timeline(64);
        let opts = RunOpts {
            flight: Some(&mut ring),
            ..RunOpts::default()
        };
        let r = gpu.run_with(&mut vm, &[launch], None, opts).unwrap();
        assert!(r.completed());
        let cores: std::collections::HashSet<u16> = ring
            .iter()
            .filter_map(|r| match r.ev {
                FlightEvent::Dispatch { core, .. } => Some(core),
                _ => None,
            })
            .collect();
        assert_eq!(cores.len(), 2, "round-robin dispatch");
    }

    #[test]
    fn shared_memory_capacity_serializes_workgroups() {
        // Each WG wants all of the core's shared memory, so resident WGs
        // are limited to one per core at a time — but all complete.
        let mut b = KernelBuilder::new("sharedhog");
        b.shared_mem(4096); // == test_tiny's shared_per_core
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let soff = b.shl(b.thread_id(), Operand::Imm(2));
        b.st(MemSpace::Shared, MemWidth::W4, b.flat(soff), tid);
        b.bar();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        let k = Arc::new(b.finish().unwrap());
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(64 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch =
            KernelLaunch::new(k, LaunchConfig::new(8, 8)).arg(TaggedPtr::unprotected(buf.va).raw());
        let r = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(r.completed());
        for i in 0..64u64 {
            assert_eq!(vm.read_uint(buf.va + i * 4, 4).unwrap(), i);
        }
    }

    #[test]
    fn intel_config_runs_end_to_end() {
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(512 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::intel());
        let launch = KernelLaunch::new(store_kernel(), LaunchConfig::new(2, 256))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let r = gpu.run(&mut vm, &[launch], None).unwrap();
        assert!(r.completed());
        assert_eq!(vm.read_uint(buf.va + 511 * 4, 4).unwrap(), 511);
    }

    #[test]
    fn atomic_serialization_costs_more_than_plain_stores() {
        fn cycles(atomic: bool) -> u64 {
            let mut b = KernelBuilder::new("atomcost");
            let out = b.param_buffer("out", false);
            let tid = b.global_thread_id();
            let off = b.shl(tid, Operand::Imm(2));
            if atomic {
                let _ = b.atom_add(
                    MemSpace::Global,
                    MemWidth::W4,
                    b.base_offset(out, off),
                    Operand::Imm(1),
                );
            } else {
                b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
            }
            b.ret();
            let k = Arc::new(b.finish().unwrap());
            let mut vm = VirtualMemorySpace::new();
            let buf = vm.alloc(256 * 4, AllocPolicy::Device512).unwrap();
            let mut gpu = Gpu::new(GpuConfig::test_tiny());
            let launch = KernelLaunch::new(k, LaunchConfig::new(4, 16))
                .arg(TaggedPtr::unprotected(buf.va).raw());
            gpu.run(&mut vm, &[launch], None).unwrap().cycles
        }
        assert!(
            cycles(true) > cycles(false),
            "atomics must pay lane serialization"
        );
    }

    #[test]
    fn report_cycles_match_launch_span() {
        let mut vm = VirtualMemorySpace::new();
        let buf = vm.alloc(64 * 4, AllocPolicy::Device512).unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = KernelLaunch::new(store_kernel(), LaunchConfig::new(2, 8))
            .arg(TaggedPtr::unprotected(buf.va).raw());
        let r = gpu.run(&mut vm, &[launch], None).unwrap();
        let l = &r.launches[0];
        assert!(l.end_cycle >= l.start_cycle);
        assert!(l.cycles() <= r.cycles);
        assert!(l.instructions >= l.mem_instructions);
    }
}
