//! The GPU device: workgroup dispatcher, shader cores with
//! greedy-then-oldest warp scheduling, the LSU memory pipeline, and
//! multi-kernel execution modes (§6.2).

use crate::config::GpuConfig;
use crate::fault::{self, FaultKind, FaultSession};
use crate::guard::{GuardVerdict, MemAccess, MemGuard};
use crate::launch::{KernelLaunch, SiteCheck};
use crate::stats::{self, AbortReason, LaunchReport, RunReport, SimProfile};
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::warp::{ExecCtx, Row, SimpleOutcome, Warp, MAX_LANES};
use gpushield_isa::{AddrExpr, Instr, MemSpace, Operand, ReconvergenceTable, TaggedPtr};
use gpushield_mem::coalesce::warp_address_range;
use gpushield_mem::{
    coalesce_warp_into, Cache, MemFault, Replacement, SharedMemorySystem, Tlb, Transaction,
    VirtualMemorySpace,
};
use gpushield_telemetry::flight::{FlightEvent, FlightRecorder};
use gpushield_telemetry::{MetricId, Registry};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// The deterministic cycle-quantum parallel engine. A child module of
/// `gpu` (not a sibling) so it can reuse every private piece of the
/// sequential model — `Core`, `LaunchState`, scheduling and LSU helpers —
/// without widening their visibility.
#[path = "par.rs"]
mod par;

const VA_MASK: u64 = (1 << 48) - 1;

/// The AGU: writes each active lane's effective address of `addr` into
/// `lane_vas` (`None` for a masked-off lane) and returns the first active
/// lane's tagged base pointer, the one the bounds check decodes. Shared
/// memory is addressed by plain offsets; global addresses drop the tag.
fn gather_lane_vas(
    warp: &Warp,
    addr: AddrExpr,
    space: MemSpace,
    ctx: &ExecCtx<'_>,
    lane_vas: &mut Vec<Option<u64>>,
) -> TaggedPtr {
    let (mut base, mut off): (Row, Row) = ([0; MAX_LANES], [0; MAX_LANES]);
    match addr {
        AddrExpr::Flat { addr } => warp.load_row(addr, ctx, &mut base),
        AddrExpr::BaseOffset { base: b, offset } => {
            warp.load_row(b, ctx, &mut base);
            warp.load_row(offset, ctx, &mut off);
        }
        AddrExpr::BindingTable { bti, offset } => {
            warp.load_row(Operand::Param(bti), ctx, &mut base);
            warp.load_row(offset, ctx, &mut off);
        }
    }
    let first = base.get(warp.active_mask().trailing_zeros() as usize);
    let ptr = TaggedPtr::from_raw(first.copied().unwrap_or(0));
    for (b, o) in base[..warp.width].iter_mut().zip(&off) {
        *b = if space == MemSpace::Shared {
            b.wrapping_add(*o)
        } else {
            TaggedPtr::from_raw(*b).va().wrapping_add(*o) & VA_MASK
        };
    }
    lane_vas.clear();
    lane_vas.extend(warp.active_lanes(&base));
    ptr
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

struct ResidentWg {
    launch_idx: usize,
    wg: u64,
    shared: Vec<u8>,
}

/// Reusable per-core lane buffers for the LSU/AGU path. Taken out of the
/// core with `mem::take` for the duration of one memory instruction and
/// put back afterwards, so the steady-state hot path performs no heap
/// allocation — the vectors keep their capacity across instructions.
#[derive(Default)]
struct WarpScratch {
    /// Per-lane effective addresses (`None` = masked-off lane).
    lane_vas: Vec<Option<u64>>,
    /// Per-lane `malloc` request sizes.
    lane_sizes: Vec<Option<u64>>,
    /// Per-lane `malloc` result pointers.
    results: Vec<Option<u64>>,
    /// Coalesced transactions of the current access.
    txs: Vec<Transaction>,
}

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
    /// issue. The scheduler skips the whole core while `cycle` is below it;
    /// every `ready_at` write and barrier release lowers it, and a failed
    /// warp pick recomputes it exactly.
    next_ready_at: u64,
    scratch: WarpScratch,
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
            next_ready_at: 0,
            scratch: WarpScratch::default(),
        }
    }

    fn resident_warps(&self) -> usize {
        self.warps.len()
    }

    fn regs_in_use(&self, launches: &[LaunchState]) -> usize {
        self.warps
            .iter()
            .map(|w| usize::from(launches[w.launch_idx].launch.kernel.num_regs()) * w.width)
            .sum()
    }

    fn shared_in_use(&self) -> u64 {
        self.wgs.iter().map(|w| w.shared.len() as u64).sum()
    }
}

struct LaunchState {
    launch: KernelLaunch,
    recon: ReconvergenceTable,
    warps_per_wg: usize,
    next_wg: u64,
    wgs_retired: u64,
    aborted: bool,
    report: LaunchReport,
    /// Per-site attempted-address extremes, populated only under
    /// [`Gpu::run_recorded`] (`None` keeps the default hot path
    /// allocation-free).
    observed: Option<HashMap<(gpushield_isa::BlockId, usize), (u64, u64)>>,
}

impl LaunchState {
    fn finished(&self) -> bool {
        self.aborted || self.wgs_retired == u64::from(self.launch.launch.grid)
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
/// with each run's cycle 0.
pub struct Gpu {
    cfg: GpuConfig,
    shared: SharedMemorySystem,
}

impl Gpu {
    /// Creates a GPU with the given hardware configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        let shared =
            SharedMemorySystem::new(cfg.l2_bytes, cfg.l2_tlb_entries, cfg.dram, cfg.timings);
        Gpu { cfg, shared }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Runs `launches` to completion concurrently in
    /// [`MultiKernelMode::IntraCore`] and returns the run report.
    ///
    /// `guard` is the bounds-checking mechanism consulted on every memory
    /// access; `None` simulates an unprotected GPU.
    ///
    /// # Errors
    ///
    /// See [`RunError`]. In-kernel faults (illegal accesses, bounds
    /// violations) do *not* produce an `Err`; they abort the offending
    /// launch and surface in its [`LaunchReport`].
    pub fn run(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
    ) -> Result<RunReport, RunError> {
        self.run_multi(vm, launches, MultiKernelMode::IntraCore, guard)
    }

    /// Runs `launches` with an explicit multi-kernel sharing mode.
    ///
    /// # Errors
    ///
    /// See [`Gpu::run`].
    pub fn run_multi(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        mode: MultiKernelMode,
        guard: Option<&mut dyn MemGuard>,
    ) -> Result<RunReport, RunError> {
        self.shared.begin_run();
        par::run_engine(
            &self.cfg,
            vm,
            &mut self.shared,
            launches,
            mode,
            guard,
            None,
            None,
            None,
        )
    }

    /// Like [`Gpu::run`], additionally recording structured flight events
    /// (kernel lifecycle, check verdicts, aborts, watchdog trips) into
    /// `flight`. Events are buffered per core and drained in canonical
    /// `(cycle, core, seq)` order, so the recorded stream is identical
    /// for every `sim_threads` setting.
    ///
    /// # Errors
    ///
    /// See [`Gpu::run`].
    pub fn run_observed(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
        flight: &mut FlightRecorder,
    ) -> Result<RunReport, RunError> {
        self.shared.begin_run();
        par::run_engine(
            &self.cfg,
            vm,
            &mut self.shared,
            launches,
            MultiKernelMode::IntraCore,
            guard,
            None,
            None,
            Some(flight),
        )
    }

    /// Like [`Gpu::run`], recording dispatch/memory/barrier/retire events
    /// into `trace` (bounded by the trace's capacity).
    ///
    /// # Errors
    ///
    /// See [`Gpu::run`].
    pub fn run_traced(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
        trace: &mut Trace,
    ) -> Result<RunReport, RunError> {
        self.shared.begin_run();
        par::run_engine(
            &self.cfg,
            vm,
            &mut self.shared,
            launches,
            MultiKernelMode::IntraCore,
            guard,
            Some(trace),
            None,
            None,
        )
    }

    /// Like [`Gpu::run`], additionally recording, for every static memory
    /// instruction outside shared memory, the lowest and highest byte
    /// address any lane *attempted* to access (captured after address
    /// generation, before the bounds-check verdict). The extremes surface
    /// in each [`LaunchReport`]'s `observed_ranges`, sorted by site.
    ///
    /// This is the measurement side of the BAT soundness audit: replaying a
    /// workload under `run_recorded` and comparing the observed ranges
    /// against the driver's static claims detects any elided or
    /// size-embedded check whose declared window the kernel escaped.
    ///
    /// # Errors
    ///
    /// See [`Gpu::run`].
    pub fn run_recorded(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
    ) -> Result<RunReport, RunError> {
        self.shared.begin_run();
        let mut st = RunState::new(
            &self.cfg,
            vm,
            &mut self.shared,
            launches,
            MultiKernelMode::IntraCore,
            guard,
        )?;
        for l in &mut st.launches {
            l.observed = Some(HashMap::new());
        }
        st.run()?;
        Ok(st.into_report())
    }

    /// Like [`Gpu::run`], but with a deterministic fault-injection session
    /// (see [`crate::fault`]) corrupting protection metadata mid-run. The
    /// session's injection log survives the call; running with an empty
    /// plan is behaviourally identical to [`Gpu::run`].
    ///
    /// # Errors
    ///
    /// See [`Gpu::run`]; additionally [`RunError::CycleBudgetExceeded`]
    /// when an injected hang trips the `max_cycles` watchdog.
    pub fn run_faulted(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
        session: &mut FaultSession,
        flight: Option<&mut FlightRecorder>,
    ) -> Result<RunReport, RunError> {
        if session.is_empty() {
            // Nothing can ever fire: take the quantum engine so the
            // documented "empty plan ≡ run" equivalence holds exactly.
            return match flight {
                Some(f) => self.run_observed(vm, launches, guard, f),
                None => self.run(vm, launches, guard),
            };
        }
        self.shared.begin_run();
        let mut st = RunState::new(
            &self.cfg,
            vm,
            &mut self.shared,
            launches,
            MultiKernelMode::IntraCore,
            guard,
        )?;
        st.fault = Some(session);
        st.flight = flight;
        st.run()?;
        Ok(st.into_report())
    }

    /// Like [`Gpu::run`], publishing the full telemetry of the run into
    /// `registry`: scheduler counters and stride-sampled occupancy series
    /// while running, then launch totals, per-path stall attribution
    /// (`sim.stall.*`), the hot-path profile (`sim.profile.*` gauges) and
    /// memory-hierarchy statistics (`mem.*`, including per-channel DRAM
    /// occupancy) at completion. With `trace`, additionally records the
    /// bounded event stream exactly as [`Gpu::run_traced`] does — the two
    /// feeds together are what the Chrome-trace exporter consumes.
    ///
    /// Passing a [`Registry::disabled`] registry is behaviourally and
    /// allocation-identical to [`Gpu::run`]: every hook degenerates to one
    /// early-returning branch.
    ///
    /// # Errors
    ///
    /// See [`Gpu::run`].
    pub fn run_instrumented(
        &mut self,
        vm: &mut VirtualMemorySpace,
        launches: &[KernelLaunch],
        guard: Option<&mut dyn MemGuard>,
        registry: &mut Registry,
        trace: Option<&mut Trace>,
    ) -> Result<RunReport, RunError> {
        self.shared.begin_run();
        let report = par::run_engine(
            &self.cfg,
            vm,
            &mut self.shared,
            launches,
            MultiKernelMode::IntraCore,
            guard,
            trace,
            registry.enabled().then_some(&mut *registry),
            None,
        )?;
        stats::publish_run_report(registry, &report);
        gpushield_mem::publish_dram_channels(registry, "mem.dram", self.shared.dram());
        Ok(report)
    }
}

/// Hot-loop telemetry hooks: the registry plus pre-resolved metric
/// handles, so instrumented runs record in O(1) and uninstrumented runs
/// pay exactly one `Option` branch per hook site.
struct TeleCtx<'t> {
    reg: &'t mut Registry,
    /// Next cycle at or after which the occupancy series sample fires
    /// (stride-bucket crossing; robust to event-skip cycle jumps).
    next_sample: u64,
    resident_warps: MetricId,
    ready_warps: MetricId,
    no_issue_slots: MetricId,
    idle_skip_cycles: MetricId,
    visible_stall: MetricId,
}

impl<'t> TeleCtx<'t> {
    fn new(reg: &'t mut Registry) -> Self {
        let resident_warps = reg.series("sim.series.resident_warps");
        let ready_warps = reg.series("sim.series.ready_warps");
        let no_issue_slots = reg.counter("sim.sched.no_issue_slots");
        let idle_skip_cycles = reg.counter("sim.sched.idle_skip_cycles");
        let visible_stall = reg.histogram("sim.hist.visible_stall_cycles");
        TeleCtx {
            reg,
            next_sample: 0,
            resident_warps,
            ready_warps,
            no_issue_slots,
            idle_skip_cycles,
            visible_stall,
        }
    }
}

/// Validates the launches and builds their per-run bookkeeping. Shared by
/// the sequential [`RunState`] and the quantum engine in [`par`].
fn build_launch_states(
    cfg: &GpuConfig,
    launches: &[KernelLaunch],
) -> Result<Vec<LaunchState>, RunError> {
    assert!(!launches.is_empty(), "no launches given");
    if !(1..=MAX_LANES).contains(&cfg.warp_width) {
        return Err(RunError::UnsupportedWarpWidth {
            width: cfg.warp_width,
        });
    }
    let mut ls = Vec::with_capacity(launches.len());
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
            recon: ReconvergenceTable::build(&l.kernel),
            warps_per_wg,
            next_wg: 0,
            wgs_retired: 0,
            aborted: false,
            report: LaunchReport {
                kernel: l.kernel.name().to_string(),
                kernel_id: l.kernel_id,
                ..LaunchReport::default()
            },
            launch: l.clone(),
            observed: None,
        });
    }
    Ok(ls)
}

struct RunState<'c, 'v, 'g, 't> {
    cfg: &'c GpuConfig,
    vm: &'v mut VirtualMemorySpace,
    guard: Option<&'g mut (dyn MemGuard + 'g)>,
    shared: &'c mut SharedMemorySystem,
    cores: Vec<Core>,
    launches: Vec<LaunchState>,
    heaps: HashMap<u64, HeapRun>,
    mode: MultiKernelMode,
    cycle: u64,
    age_seq: u64,
    rr_cursor: usize,
    trace: Option<&'t mut Trace>,
    fault: Option<&'t mut FaultSession>,
    telemetry: Option<TeleCtx<'t>>,
    flight: Option<&'t mut FlightRecorder>,
    profile: SimProfile,
}

impl<'c, 'v, 'g, 't> RunState<'c, 'v, 'g, 't> {
    fn new(
        cfg: &'c GpuConfig,
        vm: &'v mut VirtualMemorySpace,
        shared: &'c mut SharedMemorySystem,
        launches: &[KernelLaunch],
        mode: MultiKernelMode,
        guard: Option<&'g mut (dyn MemGuard + 'g)>,
    ) -> Result<Self, RunError> {
        let ls = build_launch_states(cfg, launches)?;
        Ok(RunState {
            cfg,
            vm,
            guard,
            shared,
            cores: (0..cfg.num_cores).map(|_| Core::new(cfg)).collect(),
            launches: ls,
            heaps: HashMap::new(),
            mode,
            cycle: 0,
            age_seq: 0,
            rr_cursor: 0,
            trace: None,
            fault: None,
            telemetry: None,
            flight: None,
            profile: SimProfile::default(),
        })
    }

    fn emit(
        &mut self,
        core: usize,
        li: usize,
        wg: u64,
        warp: usize,
        site: Option<(gpushield_isa::BlockId, usize)>,
        kind: TraceKind,
    ) {
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEvent {
                cycle: self.cycle,
                core,
                launch: li,
                wg,
                warp,
                site,
                kind,
            });
        }
    }

    /// Samples the occupancy time series on stride-bucket crossings. The
    /// scheduler's event skip jumps the cycle counter, so sampling keys on
    /// "has the cycle reached the next stride boundary" rather than exact
    /// cycle equality — one point per crossed bucket, deterministic in
    /// simulated time.
    fn sample_occupancy(&mut self) {
        let Some(t) = self.telemetry.as_mut() else {
            return;
        };
        if self.cycle < t.next_sample {
            return;
        }
        let stride = t.reg.stride();
        t.next_sample = (self.cycle / stride + 1) * stride;
        let mut resident = 0u64;
        let mut ready = 0u64;
        for core in &self.cores {
            for w in &core.warps {
                if w.done {
                    continue;
                }
                resident += 1;
                if !w.at_barrier && !w.blocked && w.ready_at <= self.cycle {
                    ready += 1;
                }
            }
        }
        t.reg.sample(t.resident_warps, self.cycle, resident);
        t.reg.sample(t.ready_warps, self.cycle, ready);
    }

    fn launch_allowed_on_core(&self, launch_idx: usize, core_idx: usize) -> bool {
        match self.mode {
            MultiKernelMode::IntraCore => true,
            MultiKernelMode::InterCore => {
                let n = self.launches.len();
                let per = self.cfg.num_cores.div_ceil(n);
                core_idx / per == launch_idx.min(self.cfg.num_cores / per)
            }
        }
    }

    fn try_dispatch(&mut self) {
        // Fast path: nothing left to place (the common case once every
        // grid is fully dispatched) — skip the per-core fit probing.
        if self
            .launches
            .iter()
            .all(|l| l.aborted || l.next_wg >= u64::from(l.launch.launch.grid))
        {
            return;
        }
        // Workgroups spread round-robin across cores (at most one new
        // workgroup per core per round), as real dispatchers balance
        // occupancy instead of packing one SM full first.
        loop {
            let mut any = false;
            for core_idx in 0..self.cores.len() {
                let n = self.launches.len();
                for k in 0..n {
                    let li = (self.rr_cursor + k) % n;
                    if self.launches[li].aborted
                        || self.launches[li].next_wg
                            >= u64::from(self.launches[li].launch.launch.grid)
                        || !self.launch_allowed_on_core(li, core_idx)
                    {
                        continue;
                    }
                    if self.dispatch_wg(core_idx, li) {
                        self.rr_cursor = (li + 1) % n;
                        any = true;
                        break;
                    }
                }
            }
            if !any {
                break;
            }
        }
    }

    /// Places the next workgroup of launch `li` on core `core_idx` if it
    /// fits. Returns whether dispatch happened.
    fn dispatch_wg(&mut self, core_idx: usize, li: usize) -> bool {
        let needed_warps = self.launches[li].warps_per_wg;
        let (num_regs, shared_bytes) = {
            let k = &self.launches[li].launch.kernel;
            (k.num_regs(), k.shared_bytes())
        };
        let regs_needed = needed_warps * usize::from(num_regs) * self.cfg.warp_width;
        {
            let core = &self.cores[core_idx];
            debug_assert_eq!(core.regs_used, core.regs_in_use(&self.launches));
            debug_assert_eq!(core.shared_used, core.shared_in_use());
            if core.resident_warps() + needed_warps > self.cfg.max_warps_per_core()
                || core.regs_used + regs_needed > self.cfg.regs_per_core
                || core.shared_used + shared_bytes > self.cfg.shared_per_core
            {
                return false;
            }
        }
        let lstate = &mut self.launches[li];
        let wg = lstate.next_wg;
        lstate.next_wg += 1;
        self.emit(core_idx, li, wg, 0, None, TraceKind::Dispatch { wg });
        let lstate = &mut self.launches[li];
        if lstate.report.start_cycle == 0 && lstate.report.instructions == 0 {
            lstate.report.start_cycle = self.cycle;
        }
        let block = lstate.launch.launch.block as usize;
        let core = &mut self.cores[core_idx];
        core.wgs.push(ResidentWg {
            launch_idx: li,
            wg,
            shared: vec![0u8; shared_bytes as usize],
        });
        core.regs_used += regs_needed;
        core.shared_used += shared_bytes;
        // The new warps are ready now; wake the core if it was parked on a
        // later `next_ready_at`.
        core.next_ready_at = core.next_ready_at.min(self.cycle);
        for w in 0..needed_warps {
            let lanes = (block - w * self.cfg.warp_width).min(self.cfg.warp_width);
            let mut warp = Warp::new(
                li,
                wg,
                w,
                self.cfg.warp_width,
                lanes,
                num_regs,
                self.age_seq,
            );
            warp.ready_at = self.cycle;
            self.age_seq += 1;
            core.warps.push(warp);
        }
        true
    }

    fn pick_warp(&self, core_idx: usize) -> Option<usize> {
        // No aborted-launch check anywhere here: `abort_launch` removes the
        // launch's warps from every core immediately, so none survive to be
        // picked.
        let core = &self.cores[core_idx];
        let ready = |w: &Warp| !w.done && !w.at_barrier && !w.blocked && w.ready_at <= self.cycle;
        // Greedy: stick with the last-issued warp while it stays ready.
        if let Some(i) = core.last_issued {
            if let Some(w) = core.warps.get(i) {
                debug_assert!(!self.launches[w.launch_idx].aborted);
                if ready(w) {
                    return Some(i);
                }
            }
        }
        // Then oldest.
        core.warps
            .iter()
            .enumerate()
            .filter(|(_, w)| ready(w))
            .min_by_key(|(_, w)| w.age)
            .map(|(i, _)| i)
    }

    fn run(&mut self) -> Result<(), RunError> {
        loop {
            // Watchdog: a hard cycle budget turns hangs (injected faults
            // squashing a loop's exit condition, adversarial kernels) into
            // a deterministic, classifiable error.
            if self.cycle >= self.cfg.max_cycles {
                let (cycle, budget) = (self.cycle, self.cfg.max_cycles);
                if let Some(f) = self.flight.as_mut() {
                    f.record(cycle, FlightEvent::WatchdogTrip { budget });
                }
                return Err(RunError::CycleBudgetExceeded { cycle, budget });
            }
            self.try_dispatch();
            if self.launches.iter().all(|l| l.finished()) {
                break;
            }
            if self.telemetry.is_some() {
                self.sample_occupancy();
            }
            let mut any_issue = false;
            for core_idx in 0..self.cores.len() {
                if self.cores[core_idx].next_ready_at > self.cycle {
                    continue;
                }
                for _ in 0..self.cfg.issue_width {
                    match self.pick_warp(core_idx) {
                        Some(wi) => {
                            self.cores[core_idx].last_issued = Some(wi);
                            self.exec_warp(core_idx, wi)?;
                            any_issue = true;
                        }
                        None => {
                            // Nothing issuable: remember exactly when the
                            // next warp wakes so the scans above are skipped
                            // until then.
                            if let Some(t) = self.telemetry.as_mut() {
                                t.reg.add(t.no_issue_slots, 1);
                            }
                            let core = &mut self.cores[core_idx];
                            core.next_ready_at = core
                                .warps
                                .iter()
                                .filter(|w| !w.done && !w.at_barrier && !w.blocked)
                                .map(|w| w.ready_at)
                                .min()
                                .unwrap_or(u64::MAX);
                            break;
                        }
                    }
                }
            }
            if self.launches.iter().all(|l| l.finished()) {
                break;
            }
            if any_issue {
                self.cycle += 1;
            } else {
                self.profile.idle_skips += 1;
                // Event skip: jump to the next cycle anything becomes ready.
                let next = self
                    .cores
                    .iter()
                    .flat_map(|c| c.warps.iter())
                    .filter(|w| {
                        !w.done
                            && !w.at_barrier
                            && !w.blocked
                            && !self.launches[w.launch_idx].aborted
                    })
                    .map(|w| w.ready_at)
                    .min();
                match next {
                    // Clamp the skip to the watchdog budget so the error
                    // reports the budget cycle, not a far-future wakeup.
                    Some(n) => {
                        let target = n.max(self.cycle + 1).min(self.cfg.max_cycles);
                        if let Some(t) = self.telemetry.as_mut() {
                            t.reg.add(t.idle_skip_cycles, target - self.cycle);
                        }
                        self.cycle = target;
                    }
                    None => {
                        // Live warps exist but none can ever become ready.
                        // Distinguish warps parked on the exhausted device
                        // heap from barrier waits that can never complete.
                        let alloc_blocked =
                            self.cores.iter().flat_map(|c| c.warps.iter()).any(|w| {
                                !w.done && w.blocked && !self.launches[w.launch_idx].aborted
                            });
                        if alloc_blocked {
                            return Err(RunError::HeapDeadlock { cycle: self.cycle });
                        }
                        // Barrier deadlock — or workgroups remain but
                        // dispatch made no progress (impossible given the
                        // fit pre-check, but guard against spinning).
                        return Err(RunError::BarrierDeadlock { cycle: self.cycle });
                    }
                }
            }
        }
        Ok(())
    }

    fn exec_warp(&mut self, core_idx: usize, warp_idx: usize) -> Result<(), RunError> {
        let li = self.cores[core_idx].warps[warp_idx].launch_idx;
        // Disjoint field borrows: the kernel stays interned in its launch
        // (no per-issue `Arc` clone) while the warp mutates.
        let outcome = {
            let lstate = &self.launches[li];
            let ctx = ExecCtx {
                args: &lstate.launch.args,
                local_bases: &lstate.launch.local_bases,
                block_dim: u64::from(lstate.launch.launch.block),
                grid_dim: u64::from(lstate.launch.launch.grid),
            };
            let warp = &mut self.cores[core_idx].warps[warp_idx];
            warp.exec_simple(&lstate.launch.kernel, &lstate.recon, &ctx)
        };
        match outcome {
            SimpleOutcome::Done => {
                self.profile.alu_issues += 1;
                self.launches[li].report.instructions += 1;
                let warp = &mut self.cores[core_idx].warps[warp_idx];
                warp.ready_at = self.cycle + self.cfg.alu_latency;
            }
            SimpleOutcome::Retired => {
                self.profile.alu_issues += 1;
                self.launches[li].report.instructions += 1;
                self.retire_warp(core_idx, warp_idx);
            }
            SimpleOutcome::NeedsCore => {
                let pc = self.cores[core_idx].warps[warp_idx]
                    .pc()
                    .expect("NeedsCore implies a live pc");
                let instr = self.launches[li].launch.kernel.block(pc.0).instrs()[pc.1];
                match instr {
                    Instr::Bar => self.exec_barrier(core_idx, warp_idx),
                    Instr::Malloc { dst, size } => {
                        self.exec_malloc(core_idx, warp_idx, Some(dst), size)?
                    }
                    Instr::Free { ptr: _ } => {
                        // Timing-equivalent to an allocation round-trip.
                        self.exec_malloc(core_idx, warp_idx, None, gpushield_isa::Operand::Imm(0))?
                    }
                    Instr::Ld { .. } | Instr::St { .. } | Instr::AtomAdd { .. } => {
                        self.exec_mem(core_idx, warp_idx, li, pc, instr);
                    }
                    _ => unreachable!("exec_simple handles all other instructions"),
                }
            }
        }
        Ok(())
    }

    fn retire_warp(&mut self, core_idx: usize, warp_idx: usize) {
        let (li, wg) = {
            let w = &self.cores[core_idx].warps[warp_idx];
            (w.launch_idx, w.wg)
        };
        {
            let win = self.cores[core_idx].warps[warp_idx].warp_in_wg;
            self.emit(core_idx, li, wg, win, None, TraceKind::Retire);
        }
        // Release peers blocked on a barrier this warp will never reach:
        // a barrier above divergent exits would deadlock; well-formed
        // kernels place barriers in uniform control flow, so the remaining
        // warps simply reconverge among themselves.
        self.release_barrier_if_complete(core_idx, li, wg);
        let wg_done = self.cores[core_idx]
            .warps
            .iter()
            .filter(|w| w.launch_idx == li && w.wg == wg)
            .all(|w| w.done);
        if wg_done {
            let freed_regs = self.launches[li].warps_per_wg
                * usize::from(self.launches[li].launch.kernel.num_regs())
                * self.cfg.warp_width;
            let core = &mut self.cores[core_idx];
            let freed_shared: u64 = core
                .wgs
                .iter()
                .filter(|g| g.launch_idx == li && g.wg == wg)
                .map(|g| g.shared.len() as u64)
                .sum();
            core.warps.retain(|w| !(w.launch_idx == li && w.wg == wg));
            core.wgs.retain(|g| !(g.launch_idx == li && g.wg == wg));
            core.last_issued = None;
            core.regs_used = core.regs_used.saturating_sub(freed_regs);
            core.shared_used = core.shared_used.saturating_sub(freed_shared);
            let cycle = self.cycle;
            let lstate = &mut self.launches[li];
            lstate.wgs_retired += 1;
            if lstate.finished() {
                lstate.report.end_cycle = cycle;
                let kid = lstate.launch.kernel_id;
                if let Some(f) = self.flight.as_mut() {
                    f.record(cycle, FlightEvent::KernelComplete { kernel_id: kid });
                }
                if let Some(g) = self.guard.as_mut() {
                    g.on_kernel_end(kid);
                }
            }
        }
    }

    fn exec_barrier(&mut self, core_idx: usize, warp_idx: usize) {
        let (li, wg) = {
            let w = &mut self.cores[core_idx].warps[warp_idx];
            w.at_barrier = true;
            w.advance_pc();
            (w.launch_idx, w.wg)
        };
        self.profile.barrier_issues += 1;
        self.launches[li].report.instructions += 1;
        {
            let w = &self.cores[core_idx].warps[warp_idx];
            let (wgid, win) = (w.wg, w.warp_in_wg);
            self.emit(core_idx, li, wgid, win, None, TraceKind::Barrier);
        }
        self.release_barrier_if_complete(core_idx, li, wg);
    }

    fn release_barrier_if_complete(&mut self, core_idx: usize, li: usize, wg: u64) {
        let core = &mut self.cores[core_idx];
        let all_arrived = core
            .warps
            .iter()
            .filter(|w| w.launch_idx == li && w.wg == wg && !w.done)
            .all(|w| w.at_barrier);
        let any_waiting = core
            .warps
            .iter()
            .any(|w| w.launch_idx == li && w.wg == wg && w.at_barrier);
        if all_arrived && any_waiting {
            for w in core
                .warps
                .iter_mut()
                .filter(|w| w.launch_idx == li && w.wg == wg && w.at_barrier)
            {
                w.at_barrier = false;
                w.ready_at = self.cycle + 1;
            }
        }
    }

    fn exec_malloc(
        &mut self,
        core_idx: usize,
        warp_idx: usize,
        dst: Option<gpushield_isa::VReg>,
        size: gpushield_isa::Operand,
    ) -> Result<(), RunError> {
        let li = self.cores[core_idx].warps[warp_idx].launch_idx;
        let heap = match self.launches[li].launch.heap {
            Some(h) => h,
            None => {
                return Err(RunError::NoHeap {
                    kernel: self.launches[li].launch.kernel.name().to_string(),
                })
            }
        };
        let mut scratch = std::mem::take(&mut self.cores[core_idx].scratch);
        {
            let lstate = &self.launches[li];
            let ctx = ExecCtx {
                args: &lstate.launch.args,
                local_bases: &lstate.launch.local_bases,
                block_dim: u64::from(lstate.launch.launch.block),
                grid_dim: u64::from(lstate.launch.launch.grid),
            };
            let warp = &self.cores[core_idx].warps[warp_idx];
            let mut sizes: Row = [0; MAX_LANES];
            warp.load_row(size, &ctx, &mut sizes);
            scratch.lane_sizes.clear();
            scratch.lane_sizes.extend(warp.active_lanes(&sizes));
        }
        let entry = self.heaps.entry(heap.tagged_base.va()).or_default();
        let mut done_at = self.cycle;
        let mut exhausted = false;
        scratch.results.clear();
        scratch.results.resize(scratch.lane_sizes.len(), None);
        for (lane, sz) in scratch.lane_sizes.iter().enumerate() {
            let Some(sz) = sz else { continue };
            // The device allocator is a serialized global resource: each
            // lane's request takes its turn (§5.2.1 footnote 2).
            let start = entry.lock_until.max(self.cycle);
            entry.lock_until = start + self.cfg.heap_alloc_cycles;
            done_at = done_at.max(entry.lock_until);
            if dst.is_some() {
                let aligned = sz.div_ceil(16).max(1) * 16;
                if entry.cursor + aligned <= heap.size {
                    let ptr = heap.tagged_base.raw() + entry.cursor;
                    entry.cursor += aligned;
                    scratch.results[lane] = Some(ptr);
                } else if self.cfg.malloc_blocks_on_exhaustion {
                    // The allocator parks the whole warp until memory is
                    // freed; with nothing freeing, the deadlock detector
                    // reports HeapDeadlock instead of spinning forever.
                    exhausted = true;
                    break;
                } else {
                    scratch.results[lane] = Some(0); // CUDA malloc returns NULL
                }
            }
        }
        if exhausted {
            self.cores[core_idx].warps[warp_idx].blocked = true;
            self.cores[core_idx].scratch = scratch;
            self.profile.malloc_issues += 1;
            self.launches[li].report.instructions += 1;
            return Ok(());
        }
        let warp = &mut self.cores[core_idx].warps[warp_idx];
        if let Some(dst) = dst {
            for (lane, r) in scratch.results.iter().enumerate() {
                if let Some(v) = r {
                    warp.set_reg(dst, lane, *v);
                }
            }
        }
        warp.ready_at = done_at;
        warp.advance_pc();
        self.profile.malloc_issues += 1;
        self.launches[li].report.instructions += 1;
        self.cores[core_idx].scratch = scratch;
        Ok(())
    }

    /// Applies every injected fault scheduled for the current access (see
    /// [`crate::fault`]): pointer-tag mangling and site-check falsification
    /// act on the in-flight access, RBT bit flips and RCache poisoning
    /// corrupt the metadata the bounds check will consult. Returns the
    /// (possibly mangled) pointer and (possibly falsified) decision.
    fn apply_due_faults(
        &mut self,
        core_idx: usize,
        mut ptr: TaggedPtr,
        mut decision: SiteCheck,
    ) -> (TaggedPtr, SiteCheck) {
        let Some(fs) = self.fault.as_mut() else {
            return (ptr, decision);
        };
        let seq = fs.begin_access();
        while let Some(spec) = fs.take_due(seq) {
            let applied = match spec.kind {
                FaultKind::TagMangle => {
                    ptr = fault::mangle_pointer(ptr, spec.entropy);
                    true
                }
                FaultKind::SiteCheckFalsify => {
                    decision = match decision {
                        SiteCheck::Static => SiteCheck::Runtime,
                        _ => SiteCheck::Static,
                    };
                    true
                }
                FaultKind::RbtBitFlip => {
                    fault::flip_rbt_bit(&mut *self.vm, fs.targets(), spec.entropy)
                }
                FaultKind::RcachePoison => self
                    .guard
                    .as_mut()
                    .is_some_and(|g| g.inject_metadata_fault(core_idx, spec.entropy)),
            };
            let cycle = self.cycle;
            fs.record(spec, cycle, seq, applied);
            if applied {
                if let Some(f) = self.flight.as_mut() {
                    f.record(
                        cycle,
                        FlightEvent::FaultInjected {
                            kind: spec.kind.code(),
                        },
                    );
                }
            }
        }
        (ptr, decision)
    }

    /// The full LSU + BCU pipeline for one warp-level memory instruction.
    fn exec_mem(
        &mut self,
        core_idx: usize,
        warp_idx: usize,
        li: usize,
        site: (gpushield_isa::BlockId, usize),
        instr: Instr,
    ) {
        let (is_store, addr, space, width, dst, src, is_atomic) = match instr {
            Instr::Ld {
                dst,
                addr,
                space,
                width,
            } => (false, addr, space, width, Some(dst), None, false),
            Instr::St {
                src,
                addr,
                space,
                width,
            } => (true, addr, space, width, None, Some(src), false),
            Instr::AtomAdd {
                dst,
                addr,
                space,
                width,
                src,
            } => (true, addr, space, width, Some(dst), Some(src), true),
            _ => unreachable!("exec_mem only receives Ld/St/AtomAdd"),
        };
        let width_b = width.bytes();

        // All per-lane buffers live in the core's reusable scratch; it is
        // moved out here and must be moved back on every exit path.
        let mut scratch = std::mem::take(&mut self.cores[core_idx].scratch);

        // ---- Phase 1: AGU — per-lane addresses and store values ----------
        let mut store_vals: Row = [0; MAX_LANES];
        let ptr = {
            let lstate = &self.launches[li];
            let ctx = ExecCtx {
                args: &lstate.launch.args,
                local_bases: &lstate.launch.local_bases,
                block_dim: u64::from(lstate.launch.launch.block),
                grid_dim: u64::from(lstate.launch.launch.grid),
            };
            let warp = &self.cores[core_idx].warps[warp_idx];
            if let Some(s) = src {
                warp.load_row(s, &ctx, &mut store_vals);
            }
            gather_lane_vas(warp, addr, space, &ctx, &mut scratch.lane_vas)
        };

        // ---- Shared memory: on-chip, no VM, no bounds checking -----------
        if space == MemSpace::Shared {
            self.exec_shared_mem(
                core_idx,
                warp_idx,
                li,
                &scratch.lane_vas,
                width_b,
                dst,
                src.map(|_| &store_vals[..]),
                is_atomic,
            );
            self.cores[core_idx].scratch = scratch;
            return;
        }

        // ---- Soundness-audit recording (run_recorded only) ---------------
        // Capture the attempted per-lane extremes *before* any verdict so
        // that a squashed or aborted out-of-bounds access is still visible
        // to the auditor.
        if let Some(obs) = self.launches[li].observed.as_mut() {
            for va in scratch.lane_vas.iter().flatten() {
                let end = va.saturating_add(width_b);
                let e = obs.entry(site).or_insert((*va, end));
                e.0 = e.0.min(*va);
                e.1 = e.1.max(end);
            }
        }

        // ---- Phase 2: translate + cache/TLB timing probe -----------------
        let mut translation_fault: Option<MemFault> = None;
        for va in scratch.lane_vas.iter().flatten() {
            if let Err(f) = self.vm.translate(*va) {
                translation_fault.get_or_insert(f);
            }
        }
        coalesce_warp_into(&scratch.lane_vas, width_b, &mut scratch.txs);
        let start = self.cycle.max(self.cores[core_idx].lsu_busy_until);
        let mut done_at = start + self.cfg.timings.l1_hit;
        let mut all_l1_hit = true;
        for tx in &scratch.txs {
            let Ok(pa) = self.vm.translate_bypass(tx.base) else {
                continue;
            };
            let core = &mut self.cores[core_idx];
            let t_ready = if core.l1tlb.access(tx.base) {
                start
            } else {
                self.shared.translate(tx.base, start)
            };
            let tx_done = if core.l1d.access(pa) {
                (start + self.cfg.timings.l1_hit).max(t_ready + 1)
            } else {
                all_l1_hit = false;
                self.shared
                    .access_data(pa, (start + self.cfg.timings.l1_hit).max(t_ready))
            };
            done_at = done_at.max(tx_done);
        }

        // ---- Phase 3: bounds check (GPUShield BCU or baseline guard) -----
        let mut ptr = ptr;
        let mut decision = self.launches[li].launch.plan.get(site);
        if self.fault.is_some() {
            (ptr, decision) = self.apply_due_faults(core_idx, ptr, decision);
        }
        let mut stall = 0u64;
        let mut verdict = GuardVerdict::Allow;
        if let Some(g) = self.guard.as_mut() {
            if decision == SiteCheck::Static {
                self.launches[li].report.checks_skipped += 1;
                if self.launches[li].launch.plan.certified(site) {
                    self.launches[li].report.checks_certified += 1;
                }
            } else if let Some(range) = warp_address_range(&scratch.lane_vas, width_b) {
                let access = MemAccess {
                    core: core_idx,
                    kernel_id: self.launches[li].launch.kernel_id,
                    is_store,
                    space,
                    pointer: ptr,
                    site,
                    range,
                    site_check: decision,
                    transactions: scratch.txs.len(),
                    active_lanes: scratch.lane_vas.iter().flatten().count(),
                    l1d_all_hit: all_l1_hit,
                };
                let chk = g.check(&access, self.vm);
                stall = chk.stall_cycles;
                verdict = chk.verdict;
                self.profile.bcu_checks += 1;
                let report = &mut self.launches[li].report;
                report.checks_performed += 1;
                report.stall_attribution.record(chk.path, chk.stall_cycles);
                if self.flight.is_some() {
                    let (wg, win) = {
                        let w = &self.cores[core_idx].warps[warp_idx];
                        (w.wg as u32, w.warp_in_wg as u16)
                    };
                    let cycle = self.cycle;
                    if let Some(f) = self.flight.as_mut() {
                        f.record(
                            cycle,
                            FlightEvent::CheckVerdict {
                                kernel_id: access.kernel_id,
                                wg,
                                warp: win,
                                block: site.0 .0,
                                idx: site.1 as u32,
                                path: chk.path.code(),
                                verdict: chk.verdict.code(),
                                is_store,
                                lo: range.0,
                                hi: range.1,
                            },
                        );
                    }
                }
            }
        }

        // ---- Phase 4: outcome -------------------------------------------
        match verdict {
            GuardVerdict::Fault => {
                self.note_flight_abort(core_idx, warp_idx, li, AbortReason::BoundsViolation);
                self.cores[core_idx].scratch = scratch;
                self.abort_launch(li, AbortReason::BoundsViolation);
                return;
            }
            GuardVerdict::Squash => {
                self.launches[li].report.violations_squashed += 1;
                if let Some(d) = dst {
                    // Squashed loads return zero (§5.5.2).
                    let warp = &mut self.cores[core_idx].warps[warp_idx];
                    warp.store_row(d, warp.active_mask(), &[0; MAX_LANES]);
                }
            }
            GuardVerdict::Allow => {
                if let Some(f) = translation_fault {
                    self.note_flight_abort(core_idx, warp_idx, li, AbortReason::MemFault(f));
                    self.cores[core_idx].scratch = scratch;
                    self.abort_launch(li, AbortReason::MemFault(f));
                    return;
                }
                // Functional access.
                let warp_width = self.cores[core_idx].warps[warp_idx].width;
                for (lane, lane_va) in scratch.lane_vas.iter().enumerate().take(warp_width) {
                    let Some(va) = *lane_va else { continue };
                    if is_atomic {
                        // Lanes are serialized in lane order (real hardware
                        // serializes same-address atomics; a fixed order
                        // keeps the simulation deterministic).
                        let old = self
                            .vm
                            .read_uint(va, width_b)
                            .expect("translation already verified");
                        let add = store_vals[lane];
                        self.vm
                            .write_uint(va, width_b, old.wrapping_add(add))
                            .expect("translation already verified");
                        let warp = &mut self.cores[core_idx].warps[warp_idx];
                        warp.set_reg(dst.expect("atomic has dst"), lane, old);
                    } else if is_store {
                        let v = store_vals[lane];
                        self.vm
                            .write_uint(va, width_b, v)
                            .expect("translation already verified");
                    } else {
                        let v = self
                            .vm
                            .read_uint(va, width_b)
                            .expect("translation already verified");
                        let warp = &mut self.cores[core_idx].warps[warp_idx];
                        warp.set_reg(dst.expect("load has dst"), lane, v);
                    }
                }
            }
        }

        // ---- Phase 5: timing commit --------------------------------------
        {
            let w = &self.cores[core_idx].warps[warp_idx];
            let (wgid, win) = (w.wg, w.warp_in_wg);
            self.emit(
                core_idx,
                li,
                wgid,
                win,
                Some(site),
                TraceKind::Mem {
                    space,
                    is_store,
                    transactions: scratch.txs.len().min(255) as u8,
                    stall: stall.min(255) as u8,
                },
            );
        }
        let atomic_serial = if is_atomic {
            scratch.lane_vas.iter().flatten().count() as u64
        } else {
            0
        };
        let n_txs = scratch.txs.len() as u64;
        let core = &mut self.cores[core_idx];
        core.lsu_busy_until = start + n_txs + stall + atomic_serial;
        let warp = &mut core.warps[warp_idx];
        warp.ready_at = done_at + stall + atomic_serial;
        warp.advance_pc();
        core.scratch = scratch;
        self.profile.mem_issues += 1;
        self.profile.lsu_transactions += n_txs;
        self.profile.bcu_stall_cycles += stall;
        if let Some(t) = self.telemetry.as_mut() {
            t.reg.observe(t.visible_stall, stall);
        }
        let report = &mut self.launches[li].report;
        report.instructions += 1;
        report.mem_instructions += 1;
        report.transactions += n_txs;
        report.guard_stall_cycles += stall;
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_shared_mem(
        &mut self,
        core_idx: usize,
        warp_idx: usize,
        li: usize,
        lane_vas: &[Option<u64>],
        width_b: u64,
        dst: Option<gpushield_isa::VReg>,
        store_vals: Option<&[u64]>,
        is_atomic: bool,
    ) {
        self.profile.shared_issues += 1;
        let wg = self.cores[core_idx].warps[warp_idx].wg;
        let start = self.cycle.max(self.cores[core_idx].lsu_busy_until);
        let done_at = start + self.cfg.timings.l1_hit;
        let core = &mut self.cores[core_idx];
        let wg_idx = core
            .wgs
            .iter()
            .position(|g| g.launch_idx == li && g.wg == wg)
            .expect("warp's workgroup is resident");
        // Split borrows: shared data and warp registers.
        let (wgs, warps) = (&mut core.wgs, &mut core.warps);
        let shared = &mut wgs[wg_idx].shared;
        let warp = &mut warps[warp_idx];
        let n = shared.len() as u64;
        for (lane, va) in lane_vas.iter().enumerate() {
            let Some(va) = va else { continue };
            if n == 0 {
                // Kernel accessed shared memory without declaring any;
                // reads yield zero, writes are dropped.
                if let Some(d) = dst {
                    warp.set_reg(d, lane, 0);
                }
                continue;
            }
            // Out-of-bounds shared accesses wrap inside the workgroup's
            // allocation (on-chip scratch is not protected by GPUShield;
            // Table 1 lists shared-memory overflow as possible).
            if is_atomic {
                let mut old_bytes = [0u8; 8];
                for i in 0..width_b {
                    old_bytes[i as usize] = shared[((va + i) % n) as usize];
                }
                let old = u64::from_le_bytes(old_bytes);
                let add = store_vals.expect("atomic has addend")[lane];
                let new_bytes = old.wrapping_add(add).to_le_bytes();
                for i in 0..width_b {
                    shared[((va + i) % n) as usize] = new_bytes[i as usize];
                }
                if let Some(d) = dst {
                    warp.set_reg(d, lane, old);
                }
                continue;
            }
            let mut bytes = [0u8; 8];
            for i in 0..width_b {
                let idx = ((va + i) % n) as usize;
                if let Some(vals) = store_vals {
                    shared[idx] = vals[lane].to_le_bytes()[i as usize];
                } else {
                    bytes[i as usize] = shared[idx];
                }
            }
            if let Some(d) = dst {
                warp.set_reg(d, lane, u64::from_le_bytes(bytes));
            }
        }
        core.lsu_busy_until = start + 1;
        let warp = &mut core.warps[warp_idx];
        warp.ready_at = done_at;
        warp.advance_pc();
        let (wgid, win) = {
            let w = &self.cores[core_idx].warps[warp_idx];
            (w.wg, w.warp_in_wg)
        };
        self.emit(
            core_idx,
            li,
            wgid,
            win,
            None,
            TraceKind::Mem {
                space: MemSpace::Shared,
                is_store: store_vals.is_some(),
                transactions: 1,
                stall: 0,
            },
        );
        let report = &mut self.launches[li].report;
        report.instructions += 1;
        report.mem_instructions += 1;
    }

    /// Records a `KernelAbort` flight event while the guilty warp is still
    /// resident — `abort_launch` strips every warp of the launch, so the
    /// attribution must be captured first.
    fn note_flight_abort(
        &mut self,
        core_idx: usize,
        warp_idx: usize,
        li: usize,
        reason: AbortReason,
    ) {
        if self.flight.is_none() {
            return;
        }
        let (wg, win) = {
            let w = &self.cores[core_idx].warps[warp_idx];
            (w.wg as u32, w.warp_in_wg as u16)
        };
        let kernel_id = self.launches[li].launch.kernel_id;
        let cycle = self.cycle;
        if let Some(f) = self.flight.as_mut() {
            f.record(
                cycle,
                FlightEvent::KernelAbort {
                    kernel_id,
                    wg,
                    warp: win,
                    reason: reason.code(),
                },
            );
        }
    }

    fn abort_launch(&mut self, li: usize, reason: AbortReason) {
        self.emit(0, li, 0, 0, None, TraceKind::Abort);
        let kernel_id = {
            let lstate = &mut self.launches[li];
            lstate.aborted = true;
            lstate.report.abort = Some(reason);
            lstate.report.end_cycle = self.cycle;
            lstate.launch.kernel_id
        };
        for core in &mut self.cores {
            core.warps.retain(|w| w.launch_idx != li);
            core.wgs.retain(|g| g.launch_idx != li);
            core.last_issued = None;
        }
        // Aborts are rare: recompute occupancy caches from scratch.
        for ci in 0..self.cores.len() {
            let regs = self.cores[ci].regs_in_use(&self.launches);
            self.cores[ci].regs_used = regs;
            self.cores[ci].shared_used = self.cores[ci].shared_in_use();
        }
        if let Some(g) = self.guard.as_mut() {
            g.on_kernel_end(kernel_id);
        }
    }

    fn into_report(self) -> RunReport {
        let mut l1d = gpushield_mem::CacheStats::default();
        let mut l1tlb = gpushield_mem::CacheStats::default();
        for c in &self.cores {
            let s = c.l1d.stats();
            l1d.hits += s.hits;
            l1d.misses += s.misses;
            l1d.evictions += s.evictions;
            let t = c.l1tlb.stats();
            l1tlb.hits += t.hits;
            l1tlb.misses += t.misses;
            l1tlb.evictions += t.evictions;
        }
        let dram = self.shared.dram_stats();
        let mut profile = self.profile;
        profile.dram_accesses = dram.requests;
        RunReport {
            cycles: self.cycle,
            launches: self
                .launches
                .into_iter()
                .map(|mut l| {
                    if let Some(obs) = l.observed.take() {
                        let mut v: Vec<_> = obs
                            .into_iter()
                            .map(|(site, (lo, hi))| crate::stats::ObservedRange { site, lo, hi })
                            .collect();
                        v.sort_unstable_by_key(|r| r.site);
                        l.report.observed_ranges = v;
                    }
                    l.report
                })
                .collect(),
            l1d,
            l1_tlb: l1tlb,
            l2: self.shared.l2_stats(),
            l2_tlb: self.shared.l2_tlb_stats(),
            dram,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::{KernelLaunch, LaunchConfig};
    use gpushield_isa::{KernelBuilder, MemWidth, Operand};
    use gpushield_mem::AllocPolicy;
    use std::sync::Arc;

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
    fn unsupported_warp_widths_are_typed_errors_in_both_engines() -> Result<(), Box<dyn Error>> {
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
        let mut trace = crate::trace::Trace::new(10_000);
        let report = gpu
            .run_traced(&mut vm, &[launch], None, &mut trace)
            .unwrap();
        assert!(report.completed());
        let events = trace.events();
        assert!(!trace.truncated());
        // 2 dispatches, one mem + retire per warp (2 wgs x 4 warps).
        let dispatches = events
            .iter()
            .filter(|e| matches!(e.kind, crate::trace::TraceKind::Dispatch { .. }))
            .count();
        let mems = events
            .iter()
            .filter(|e| matches!(e.kind, crate::trace::TraceKind::Mem { .. }))
            .count();
        let retires = events
            .iter()
            .filter(|e| matches!(e.kind, crate::trace::TraceKind::Retire))
            .count();
        assert_eq!(dispatches, 2);
        assert_eq!(mems, 8);
        assert_eq!(retires, 8);
        // Cycles are non-decreasing.
        assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        // A workgroup's dispatch precedes all of its events.
        let first_mem = events
            .iter()
            .position(|e| matches!(e.kind, crate::trace::TraceKind::Mem { .. }))
            .unwrap();
        let first_dispatch = events
            .iter()
            .position(|e| matches!(e.kind, crate::trace::TraceKind::Dispatch { .. }))
            .unwrap();
        assert!(first_dispatch < first_mem);
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
        let report = gpu
            .run_multi(&mut vm, &[l1, l2], MultiKernelMode::InterCore, None)
            .unwrap();
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
        let mut trace = crate::trace::Trace::new(64);
        let r = gpu
            .run_traced(&mut vm, &[launch], None, &mut trace)
            .unwrap();
        assert!(r.completed());
        let cores: std::collections::HashSet<usize> = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, crate::trace::TraceKind::Dispatch { .. }))
            .map(|e| e.core)
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
