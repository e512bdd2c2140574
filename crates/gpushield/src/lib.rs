//! GPUShield — a hardware/software cooperative region-based bounds-checking
//! system for GPUs (reproduction of Lee et al., ISCA 2022).
//!
//! This facade crate wires the whole stack together behind one [`System`]
//! type: the [driver](gpushield_driver) that allocates device memory,
//! assigns encrypted buffer IDs, and builds the per-kernel Region Bounds
//! Table; the [compiler](gpushield_compiler) that statically elides checks;
//! the [BCU](gpushield_core) that checks every warp-level access against
//! the RBT through its RCache hierarchy; and the cycle-level
//! [simulator](gpushield_sim) the evaluation runs on.
//!
//! # Quickstart
//!
//! ```
//! use gpushield::{Arg, System, SystemConfig};
//! use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand};
//! use std::sync::Arc;
//!
//! // A kernel with an out-of-bounds write at thread 100 of a 64-element
//! // buffer.
//! let mut b = KernelBuilder::new("oob");
//! let out = b.param_buffer("out", false);
//! let tid = b.global_thread_id();
//! let off = b.shl(tid, Operand::Imm(2));
//! b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
//! b.ret();
//! let kernel = Arc::new(b.finish()?);
//!
//! // Protected system: the launch is aborted with a bounds violation.
//! // The abort lands at the cycle of the canonically-first violation;
//! // cores still in flight inside the same scheduling quantum may log
//! // further (deterministic) records for the same doomed launch.
//! let mut sys = System::new(SystemConfig::nvidia_protected());
//! let buf = sys.alloc(64 * 4)?;
//! let report = sys.launch(kernel, 4, 32, &[Arg::Buffer(buf)])?;
//! assert!(!report.completed());
//! assert!(!sys.violations().is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forensics;

pub use forensics::PostMortem;
pub use gpushield_core::{Bcu, BcuConfig, BcuStats, ViolationKind, ViolationRecord};
pub use gpushield_driver::{
    Arg, BufferHandle, Driver, DriverConfig, DriverError, DriverStats, RegionIdAllocator,
    ShieldSetup, SiteClaim, TenantId, TenantStats, TenantTable,
};
pub use gpushield_sim::{
    chrome_timeline, CheckPath, FaultKind, FaultPlan, FaultSession, FaultSpec, FaultTargets, Gpu,
    GpuConfig, InjectionRecord, KernelLaunch, LaunchReport, MemGuard, MultiKernelMode,
    ObservedRange, RunError, RunOpts, RunReport, StallAttribution,
};
pub use gpushield_telemetry::flight::{FlightEvent, FlightRecord, FlightRecorder};
pub use gpushield_telemetry::{chrome::ChromeTrace, MetricId, Registry};

use gpushield_compiler::BoundsAnalysis;
use gpushield_driver::{read_entry, PreparedLaunch, RBT_ENTRY_BYTES};
use gpushield_isa::Kernel;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// How much the always-on flight recorder retains (see
/// [`System::enable_observation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObserveMode {
    /// No recorder attached; the observation paths cost nothing.
    #[default]
    Disabled,
    /// Counters-only: a capacity-0 ring. Sequence and drop counters
    /// advance (so `sim.flight.*` telemetry stays meaningful) but no
    /// events are stored and no forensics are possible.
    Counters,
    /// Full recorder at [`gpushield_telemetry::flight::DEFAULT_FLIGHT_CAPACITY`].
    Full,
    /// A [`FlightRecorder::timeline`] ring of `capacity` events: the full
    /// recorder's events plus the engine's dispatch/memory/barrier/retire
    /// timeline, for [`chrome_timeline`].
    Timeline {
        /// Ring capacity in events.
        capacity: usize,
    },
}

/// Top-level configuration: GPU hardware, driver policy, BCU hardware.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Simulated GPU (Table 5 presets available).
    pub gpu: GpuConfig,
    /// Driver policy (shield / static analysis / Type 3).
    pub driver: DriverConfig,
    /// BCU hardware (RCache sizes and latencies).
    pub bcu: BcuConfig,
    /// RNG seed for buffer IDs and keys.
    pub seed: u64,
}

impl SystemConfig {
    /// Nvidia-like GPU with GPUShield enabled (the paper's default
    /// configuration: 4-entry 1-cycle L1 RCache, 64-entry 3-cycle L2).
    pub fn nvidia_protected() -> Self {
        SystemConfig {
            gpu: GpuConfig::nvidia(),
            driver: DriverConfig::default(),
            bcu: BcuConfig::default(),
            seed: 0x6057_5E1D,
        }
    }

    /// Nvidia-like GPU with no bounds checking (the evaluation baseline).
    pub fn nvidia_baseline() -> Self {
        SystemConfig {
            gpu: GpuConfig::nvidia(),
            driver: DriverConfig {
                enable_shield: false,
                ..DriverConfig::default()
            },
            bcu: BcuConfig::default(),
            seed: 0x6057_5E1D,
        }
    }

    /// Intel-like GPU with GPUShield enabled.
    pub fn intel_protected() -> Self {
        SystemConfig {
            gpu: GpuConfig::intel(),
            driver: DriverConfig::default(),
            bcu: BcuConfig::default(),
            seed: 0x6057_5E1D,
        }
    }

    /// Intel-like GPU with no bounds checking.
    pub fn intel_baseline() -> Self {
        SystemConfig {
            gpu: GpuConfig::intel(),
            driver: DriverConfig {
                enable_shield: false,
                ..DriverConfig::default()
            },
            bcu: BcuConfig::default(),
            seed: 0x6057_5E1D,
        }
    }

    /// True when GPUShield is active in this configuration.
    pub fn shield_enabled(&self) -> bool {
        self.driver.enable_shield
    }
}

/// Errors surfaced by [`System`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// Driver-level failure (allocation, argument binding).
    Driver(DriverError),
    /// Simulator-level failure (deadlock, unfittable workgroup).
    Run(RunError),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Driver(e) => write!(f, "driver error: {e}"),
            SystemError::Run(e) => write!(f, "run error: {e}"),
        }
    }
}

impl Error for SystemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SystemError::Driver(e) => Some(e),
            SystemError::Run(e) => Some(e),
        }
    }
}

impl From<DriverError> for SystemError {
    fn from(e: DriverError) -> Self {
        SystemError::Driver(e)
    }
}

impl From<RunError> for SystemError {
    fn from(e: RunError) -> Self {
        SystemError::Run(e)
    }
}

/// A prepared kernel awaiting retirement: its tenant, its RBT (when
/// shielded) and its region IDs.
struct Held {
    tenant: Option<TenantId>,
    shield: Option<ShieldSetup>,
    region_ids: Vec<u16>,
}

/// One kernel of a launch.
#[derive(Clone)]
pub struct ConcurrentKernel<'a> {
    /// The kernel.
    pub kernel: Arc<Kernel>,
    /// Workgroups.
    pub grid: u32,
    /// Workitems per workgroup.
    pub block: u32,
    /// Arguments.
    pub args: &'a [Arg],
    /// The tenant the kernel runs for: its region IDs come from the
    /// tenant's slice of [`LaunchSpec::tenants`] instead of the global
    /// random pool, and its violations and cycles are charged to the
    /// tenant. `None` runs it outside any tenant.
    pub tenant: Option<TenantId>,
}

impl<'a> ConcurrentKernel<'a> {
    /// `kernel` over `grid` workgroups of `block` workitems, outside any
    /// tenant.
    pub fn new(kernel: Arc<Kernel>, grid: u32, block: u32, args: &'a [Arg]) -> Self {
        ConcurrentKernel {
            kernel,
            grid,
            block,
            args,
            tenant: None,
        }
    }
}

/// One launch through [`System::submit`]: the kernels, run concurrently
/// (§6.2), and every optional part of the launch flow.
/// [`LaunchSpec::new`] leaves every option off.
pub struct LaunchSpec<'a> {
    /// The kernels; each gets its own RBT.
    pub kernels: &'a [ConcurrentKernel<'a>],
    /// The tenant table tenant kernels draw region IDs from and are
    /// accounted in. A kernel naming a tenant without a table fails with
    /// [`DriverError::UnknownTenant`].
    pub tenants: Option<&'a mut TenantTable>,
    /// How the kernels share the cores.
    pub mode: MultiKernelMode,
    /// Deterministic fault-injection plan corrupting the protection
    /// substrate mid-run (see [`FaultPlan`]). Its injectable RBT-entry
    /// addresses are every prepared kernel's own region IDs, so the plan
    /// attacks exactly the metadata protecting this launch.
    pub faults: Option<FaultPlan>,
    /// Record every site's attempted-address extremes into the reports'
    /// `observed_ranges` for the soundness audit against
    /// [`Launched::site_claims`].
    pub audit: bool,
    /// A guard consulted instead of the BCU (the software-baseline cost
    /// models); the BCU is then not attached.
    pub guard: Option<&'a mut dyn MemGuard>,
    /// Telemetry registry: the run's scheduler, stall, cache/TLB/DRAM
    /// statistics, the driver's metadata-cost gauges and the flight
    /// recorder's counters are published into it.
    pub registry: Option<&'a mut Registry>,
}

impl<'a> LaunchSpec<'a> {
    /// Launches `kernels` with every option off.
    pub fn new(kernels: &'a [ConcurrentKernel<'a>]) -> Self {
        LaunchSpec {
            kernels,
            tenants: None,
            mode: MultiKernelMode::default(),
            faults: None,
            audit: false,
            guard: None,
            registry: None,
        }
    }
}

/// What one [`System::submit`] produced.
#[derive(Debug)]
pub struct Launched {
    /// The run report.
    pub report: RunReport,
    /// This launch's entries in [`System::violations`] (the BCU's log is
    /// cumulative).
    pub violations: Range<usize>,
    /// Every injected fault that came due (empty without a fault plan).
    pub injections: Vec<InjectionRecord>,
    /// The driver's static [`SiteClaim`]s for every kernel, in kernel
    /// order. Each statically elided (Type 1) or size-embedded (Type 3)
    /// site whose observed addresses escape its declared window is a
    /// soundness violation of the BAT.
    pub site_claims: Vec<SiteClaim>,
}

/// The assembled GPUShield system: driver + compiler + BCU + GPU.
pub struct System {
    cfg: SystemConfig,
    driver: Driver,
    gpu: Gpu,
    bcu: Option<Bcu>,
    last_bat: Option<BoundsAnalysis>,
    flight: Option<FlightRecorder>,
    /// Region IDs ever installed through this system; a re-install of a
    /// seen ID is recorded as a recycle (ID churn is a forensics signal).
    seen_region_ids: HashSet<u16>,
    /// Monotone buffer counter for `BufferAlloc` events.
    buffer_seq: u32,
    /// The prepared kernels of the launch in flight (kept between launches
    /// for its capacity).
    held: Vec<Held>,
    /// The launch descriptors of the launch in flight (likewise).
    launches: Vec<KernelLaunch>,
}

impl System {
    /// Builds a system from `cfg`.
    pub fn new(cfg: SystemConfig) -> Self {
        let bcu = cfg
            .shield_enabled()
            .then(|| Bcu::new(cfg.bcu, cfg.gpu.num_cores));
        System {
            driver: Driver::new(cfg.driver, cfg.seed),
            gpu: Gpu::new(cfg.gpu.clone()),
            bcu,
            last_bat: None,
            flight: None,
            seen_region_ids: HashSet::new(),
            buffer_seq: 0,
            held: Vec::new(),
            launches: Vec::new(),
            cfg,
        }
    }

    /// Attaches (or detaches) the flight recorder. The recorder is
    /// bounded and allocation-free after this call: [`ObserveMode::Full`]
    /// and [`ObserveMode::Timeline`] allocate the ring once,
    /// [`ObserveMode::Counters`] stores nothing, and
    /// [`ObserveMode::Disabled`] removes the recorder entirely. Switching
    /// modes discards any previously recorded events.
    pub fn enable_observation(&mut self, mode: ObserveMode) {
        self.flight = match mode {
            ObserveMode::Disabled => None,
            ObserveMode::Counters => Some(FlightRecorder::counters_only()),
            ObserveMode::Full => Some(FlightRecorder::full()),
            ObserveMode::Timeline { capacity } => Some(FlightRecorder::timeline(capacity)),
        };
    }

    /// The attached flight recorder, if observation is enabled.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Mutable access to the attached flight recorder (e.g. for the
    /// serving loop to stamp tenant admission events).
    pub fn flight_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.flight.as_mut()
    }

    /// Builds a post-mortem from the recorder's resident events, or
    /// `None` when observation is off, the ring is empty, or no anomaly
    /// (violation, abort, watchdog trip) is resident.
    pub fn post_mortem(&self) -> Option<PostMortem> {
        self.flight.as_ref().and_then(PostMortem::from_recorder)
    }

    /// Records the launch-preparation metadata a [`PreparedLaunch`]
    /// installed: the launch itself, each region's RBT window (recycled
    /// IDs flagged), the BAT attach, and every certificate-elided site.
    fn note_prepared(&mut self, prepared: &PreparedLaunch) {
        if self.flight.is_none() {
            return;
        }
        // Resolve region windows (RBT reads borrow the driver) before
        // borrowing the recorder mutably.
        let mut regions: Vec<(u16, u64, u64, bool)> = Vec::new();
        if let Some(setup) = prepared.shield {
            for &id in &prepared.region_ids {
                let recycled = !self.seen_region_ids.insert(id);
                let (base, size) = read_entry(self.driver.vm(), setup.rbt_base, id)
                    .map(|e| (e.base, u64::from(e.size)))
                    .unwrap_or((0, 0));
                regions.push((id, base, size, recycled));
            }
        }
        let Some(f) = self.flight.as_mut() else {
            return;
        };
        f.note(FlightEvent::KernelLaunch {
            kernel_id: prepared.launch.kernel_id,
            regions: prepared.region_ids.len() as u16,
        });
        for (id, base, size, recycled) in regions {
            if recycled {
                f.note(FlightEvent::RegionRecycle { id });
            }
            f.note(FlightEvent::RegionAlloc { id, base, size });
        }
        if let Some(bat) = &prepared.bat {
            f.note(FlightEvent::BatInstall {
                kernel_id: prepared.launch.kernel_id,
                sites_static: bat.sites_static as u16,
                sites_runtime: bat.sites_runtime as u16,
            });
            for site in &bat.elided_sites {
                f.note(FlightEvent::CheckElide {
                    block: site.0 .0,
                    idx: site.1 as u32,
                });
            }
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Allocates a device buffer.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError::BufferTooLarge`].
    pub fn alloc(&mut self, bytes: u64) -> Result<BufferHandle, SystemError> {
        let h = self.driver.malloc(bytes)?;
        let index = self.buffer_seq;
        self.buffer_seq += 1;
        if let Some(f) = self.flight.as_mut() {
            f.note(FlightEvent::BufferAlloc {
                index,
                base: self.driver.buffer_va(h),
                size: self.driver.buffer_size(h),
            });
        }
        Ok(h)
    }

    /// Allocates and initialises a buffer of little-endian `u32`s.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError::BufferTooLarge`].
    pub fn alloc_u32s(&mut self, data: &[u32]) -> Result<BufferHandle, SystemError> {
        let h = self.alloc(data.len() as u64 * 4)?;
        for (i, v) in data.iter().enumerate() {
            self.driver.write_buffer(h, i as u64 * 4, &v.to_le_bytes());
        }
        Ok(h)
    }

    /// Reserves the device heap.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError::AllocationFailed`].
    pub fn set_heap_limit(&mut self, bytes: u64) -> Result<(), SystemError> {
        self.driver.set_heap_limit(bytes)?;
        Ok(())
    }

    /// Host write into a buffer.
    pub fn write_buffer(&mut self, h: BufferHandle, offset: u64, bytes: &[u8]) {
        self.driver.write_buffer(h, offset, bytes);
    }

    /// Host read from a buffer.
    pub fn read_buffer(&self, h: BufferHandle, offset: u64, out: &mut [u8]) {
        self.driver.read_buffer(h, offset, out);
    }

    /// Host read of one little-endian unsigned value.
    pub fn read_uint(&self, h: BufferHandle, offset: u64, width: u64) -> u64 {
        self.driver.read_buffer_uint(h, offset, width)
    }

    /// Registers a prepared launch's shield setup with the BCU and, when
    /// proof-carrying elision is on, primes every core's L2 RCache with
    /// the launch's freshly written RBT entries (§5.4: the driver sets up
    /// launch metadata anyway; leaving it cache-resident keeps certified
    /// elision from deferring a region's first checked access past the
    /// cold-start phase, where the RBT fetch would no longer overlap a
    /// cold data miss).
    fn attach_shield(&mut self, shield: Option<ShieldSetup>, region_ids: &[u16]) {
        let Some(bcu) = self.bcu.as_mut() else { return };
        let Some(setup) = shield else { return };
        bcu.register_kernel(setup);
        if self.driver.config().enable_elision {
            for &id in region_ids {
                bcu.prime_region(setup.kernel_id, id, self.driver.vm());
            }
        }
    }

    /// Runs one launch through the whole flow (§5.4, §6.2): prepares every
    /// kernel (region IDs, RBT, BAT), registers it with the BCU unless an
    /// external guard is given, records the preparation, runs the kernels
    /// concurrently, and charges each tenant kernel's violations and
    /// cycles to its tenant. Every kernel's RBT is retired when the run
    /// ends, on every exit (the RBT is per kernel, §5.4).
    ///
    /// # Errors
    ///
    /// Host-level failures only; an in-kernel bounds violation or memory
    /// fault aborts the launch and is reported in the [`RunReport`]. That
    /// includes [`RunError::CycleBudgetExceeded`] when an injected fault
    /// hangs the kernel past the watchdog budget,
    /// [`DriverError::RegionIdsExhausted`] when a tenant's slice cannot
    /// cover its kernel (counted against the tenant as a rejection) and
    /// [`DriverError::UnknownTenant`] for a tenant outside the table. A
    /// failed launch returns its tenant kernels' IDs to their slices before
    /// the error propagates. A retirement failure surfaces only when the
    /// launch succeeded.
    pub fn submit(&mut self, mut spec: LaunchSpec<'_>) -> Result<Launched, SystemError> {
        let mut held = std::mem::take(&mut self.held);
        let mut launches = std::mem::take(&mut self.launches);
        let result = self.run_spec(&mut spec, &mut held, &mut launches);
        launches.clear();
        self.launches = launches;
        let mut cleanup = Ok(());
        for h in held.drain(..) {
            // A failed launch returns its tenant kernels' IDs to their
            // slices; a finished one already did in `complete_launch`.
            let unfinished = h.tenant.filter(|_| result.is_err());
            if let (Some(t), Some(table)) = (unfinished, spec.tenants.as_deref_mut()) {
                cleanup = cleanup.and(
                    table
                        .allocator_mut(t)
                        .and_then(|a| a.release(&h.region_ids)),
                );
            }
            if let Some(setup) = h.shield {
                cleanup = cleanup.and(self.driver.retire_launch(setup, &h.region_ids));
            }
        }
        self.held = held;
        let out = result?;
        cleanup?;
        Ok(out)
    }

    /// The launch body behind [`System::submit`]; every kernel it prepares
    /// lands in `held` for `submit` to retire.
    fn run_spec(
        &mut self,
        spec: &mut LaunchSpec<'_>,
        held: &mut Vec<Held>,
        launches: &mut Vec<KernelLaunch>,
    ) -> Result<Launched, SystemError> {
        let mut site_claims = Vec::new();
        for k in spec.kernels {
            let scope = match (k.tenant, spec.tenants.as_deref_mut()) {
                (None, _) => None,
                (Some(t), Some(table)) => Some(table.allocator_mut(t)?),
                (Some(t), None) => return Err(DriverError::UnknownTenant { id: t.0 }.into()),
            };
            let prepared = match self.driver.prepare_launch_scoped(
                k.kernel.clone(),
                k.grid,
                k.block,
                k.args,
                scope,
            ) {
                Ok(p) => p,
                Err(e) => {
                    if let (Some(t), Some(table)) = (k.tenant, spec.tenants.as_deref_mut()) {
                        table.record_rejection(t)?;
                        if let Some(f) = self.flight.as_mut() {
                            f.note(FlightEvent::TenantReject { tenant: t.0 });
                        }
                    }
                    return Err(e.into());
                }
            };
            let kernel_id = prepared.launch.kernel_id;
            if spec.guard.is_none() {
                self.attach_shield(prepared.shield, &prepared.region_ids);
            }
            if let (Some(t), Some(f)) = (k.tenant, self.flight.as_mut()) {
                f.note(FlightEvent::TenantAdmit {
                    tenant: t.0,
                    kernel_id,
                });
            }
            self.note_prepared(&prepared);
            let PreparedLaunch {
                launch,
                shield,
                bat,
                region_ids,
                site_claims: claims,
            } = prepared;
            held.push(Held {
                tenant: k.tenant,
                shield,
                region_ids,
            });
            launches.push(launch);
            self.last_bat = bat;
            // A one-kernel launch moves its claims instead of copying them.
            if site_claims.is_empty() {
                site_claims = claims;
            } else {
                site_claims.extend(claims);
            }
            if let (Some(t), Some(table)) = (k.tenant, spec.tenants.as_deref_mut()) {
                table.record_launch(t, kernel_id)?;
            }
        }
        let mut session = spec.faults.take().map(|plan| {
            let rbt_entries = held
                .iter()
                .filter_map(|h| Some((h.shield?.rbt_base, &h.region_ids)))
                .flat_map(|(base, ids)| {
                    ids.iter()
                        .map(move |&id| (base + u64::from(id) * RBT_ENTRY_BYTES, RBT_ENTRY_BYTES))
                })
                .collect();
            FaultSession::new(plan, FaultTargets { rbt_entries })
        });

        let logged_before = self.violations().len();
        let guard: Option<&mut dyn MemGuard> = match spec.guard.as_deref_mut() {
            Some(g) => Some(g),
            None => self.bcu.as_mut().map(|b| b as _),
        };
        let opts = RunOpts {
            mode: spec.mode,
            registry: spec.registry.as_deref_mut(),
            flight: self.flight.as_mut(),
            fault: session.as_mut(),
            observed_ranges: spec.audit,
        };
        let report = self
            .gpu
            .run_with(self.driver.vm_mut(), launches, guard, opts)?;

        let violations = logged_before..self.violations().len();
        if let Some(table) = spec.tenants.as_deref_mut() {
            for v in &self.violations()[violations.clone()] {
                if let Some(owner) = table.owner_of_kernel(v.kernel_id) {
                    table.note_violation(owner)?;
                }
            }
            for h in held.iter() {
                if let Some(t) = h.tenant {
                    table.stats_mut(t)?.cycles_consumed += report.cycles;
                    table.complete_launch(t, &h.region_ids)?;
                }
            }
        }
        if let Some(reg) = spec.registry.as_deref_mut() {
            self.driver.publish_telemetry(reg);
        }
        if let Some(f) = self.flight.as_mut() {
            f.advance_epoch(report.cycles);
            for h in held.iter().filter(|h| h.tenant.is_some()) {
                for &id in &h.region_ids {
                    f.note(FlightEvent::RegionFree { id });
                }
            }
            if let Some(reg) = spec.registry.as_deref_mut() {
                f.publish(reg);
            }
        }
        Ok(Launched {
            report,
            violations,
            injections: session.map(|s| s.injected().to_vec()).unwrap_or_default(),
            site_claims,
        })
    }

    /// Launches one kernel and runs it to completion: [`System::submit`]
    /// with every option off. Kept for perfbench until it moves onto
    /// `submit`.
    ///
    /// # Errors
    ///
    /// As [`System::submit`].
    pub fn launch(
        &mut self,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<RunReport, SystemError> {
        self.submit(LaunchSpec::new(&[ConcurrentKernel::new(
            kernel, grid, block, args,
        )]))
        .map(|l| l.report)
    }

    /// Launches one kernel on behalf of tenant `t` (see
    /// [`ConcurrentKernel::tenant`]) and returns the run report plus the
    /// violations raised by *this* launch. Kept for perfbench until it
    /// moves onto [`System::submit`].
    ///
    /// # Errors
    ///
    /// As [`System::submit`].
    pub fn launch_tenant(
        &mut self,
        tenants: &mut TenantTable,
        t: TenantId,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<(RunReport, Vec<ViolationRecord>), SystemError> {
        self.submit(LaunchSpec {
            tenants: Some(tenants),
            ..LaunchSpec::new(&[ConcurrentKernel {
                tenant: Some(t),
                ..ConcurrentKernel::new(kernel, grid, block, args)
            }])
        })
        .map(|l| (l.report, self.violations()[l.violations].to_vec()))
    }

    /// Launches one kernel with soundness-audit recording
    /// ([`LaunchSpec::audit`]) and returns the run report plus the
    /// driver's static [`SiteClaim`]s for this launch. Kept for perfbench
    /// until it moves onto [`System::submit`].
    ///
    /// # Errors
    ///
    /// As [`System::submit`].
    pub fn launch_audited(
        &mut self,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<(RunReport, Vec<SiteClaim>), SystemError> {
        self.submit(LaunchSpec {
            audit: true,
            ..LaunchSpec::new(&[ConcurrentKernel::new(kernel, grid, block, args)])
        })
        .map(|l| (l.report, l.site_claims))
    }

    /// BCU statistics (zeroed when the shield is off).
    pub fn bcu_stats(&self) -> BcuStats {
        self.bcu.as_ref().map(|b| b.stats()).unwrap_or_default()
    }

    /// Clears BCU statistics and the violation log.
    pub fn reset_bcu_stats(&mut self) {
        if let Some(b) = self.bcu.as_mut() {
            b.reset_stats();
        }
    }

    /// Logged violations (empty when the shield is off).
    pub fn violations(&self) -> &[ViolationRecord] {
        self.bcu.as_ref().map(|b| b.violations()).unwrap_or(&[])
    }

    /// The end-of-kernel error report of §5.5.2: what the driver prints
    /// (or streams to the host through a shared SVM buffer) after a launch.
    pub fn error_report(&self) -> String {
        let vs = self.violations();
        if vs.is_empty() {
            return "no memory-safety violations detected".to_string();
        }
        let mut out = format!(
            "{} memory-safety violation(s) detected:
",
            vs.len()
        );
        for v in vs {
            out.push_str(&format!(
                "  kernel {} at {}:{} — {} ({}) addresses 0x{:x}..0x{:x}
",
                v.kernel_id,
                v.site.0,
                v.site.1,
                v.kind,
                if v.is_store { "store" } else { "load" },
                v.range.0,
                v.range.1
            ));
        }
        out
    }

    /// Flushes the BCU's RCaches as a context switch would (§6.2).
    pub fn context_switch(&mut self) {
        if let Some(b) = self.bcu.as_mut() {
            b.on_context_switch();
        }
    }

    /// The Bounds-Analysis Table of the most recent launch.
    pub fn last_bat(&self) -> Option<&BoundsAnalysis> {
        self.last_bat.as_ref()
    }

    /// Immutable driver access.
    pub fn driver(&self) -> &Driver {
        &self.driver
    }

    /// Device-heap window `(va, size)`, if a heap limit was set.
    pub fn heap_window(&self) -> Option<(u64, u64)> {
        self.driver.heap_window()
    }

    /// Mutable driver access (host-side memory manipulation).
    pub fn driver_mut(&mut self) -> &mut Driver {
        &mut self.driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand};

    fn iota() -> Arc<Kernel> {
        let mut b = KernelBuilder::new("iota");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn protected_run_produces_same_result_as_baseline() {
        for cfg in [
            SystemConfig::nvidia_baseline(),
            SystemConfig::nvidia_protected(),
        ] {
            let mut sys = System::new(cfg);
            let buf = sys.alloc(256 * 4).unwrap();
            let r = sys.launch(iota(), 8, 32, &[Arg::Buffer(buf)]).unwrap();
            assert!(r.completed());
            for i in 0..256 {
                assert_eq!(sys.read_uint(buf, i * 4, 4), i);
            }
        }
    }

    #[test]
    fn static_analysis_elides_all_checks_for_safe_kernel() {
        let mut sys = System::new(SystemConfig::nvidia_protected());
        let buf = sys.alloc(256 * 4).unwrap();
        let r = sys.launch(iota(), 8, 32, &[Arg::Buffer(buf)]).unwrap();
        assert!(r.completed());
        // Everything proven statically: no runtime checks at all.
        assert_eq!(sys.bcu_stats().checks, 0);
        assert_eq!(r.launches[0].checks_performed, 0);
    }

    #[test]
    fn oob_kernel_is_aborted_by_shield_but_not_baseline() {
        // 8×32 threads into a 128-element buffer: threads ≥ 128 overflow —
        // silently, on an unprotected GPU, because the next buffer is
        // adjacent in the same 2MB region.
        let mut base = System::new(SystemConfig::nvidia_baseline());
        let a = base.alloc(128 * 4).unwrap();
        let victim = base.alloc(512).unwrap();
        let r = base.launch(iota(), 8, 32, &[Arg::Buffer(a)]).unwrap();
        assert!(r.completed(), "unprotected GPU lets the overflow through");
        assert_ne!(base.read_uint(victim, 0, 4), 0, "victim corrupted");

        let mut shielded = System::new(SystemConfig::nvidia_protected());
        let a = shielded.alloc(128 * 4).unwrap();
        let victim = shielded.alloc(512).unwrap();
        let r = shielded.launch(iota(), 8, 32, &[Arg::Buffer(a)]).unwrap();
        assert!(!r.completed());
        assert_eq!(shielded.read_uint(victim, 0, 4), 0, "victim intact");
        assert_eq!(shielded.violations()[0].kind, ViolationKind::OutOfBounds);
    }

    #[test]
    fn audited_launch_observes_addresses_within_static_claims() {
        let mut sys = System::new(SystemConfig::nvidia_protected());
        let buf = sys.alloc(256 * 4).unwrap();
        let (r, claims) = sys
            .launch_audited(iota(), 8, 32, &[Arg::Buffer(buf)])
            .unwrap();
        assert!(r.completed());
        // iota's store is fully proven static, so a claim exists for it
        // and every observed address falls inside the claimed window.
        assert!(!claims.is_empty());
        let obs = &r.launches[0].observed_ranges;
        assert!(!obs.is_empty());
        for o in obs {
            let claim = claims.iter().find(|c| c.site == o.site).unwrap();
            assert!(claim.lo <= o.lo && o.hi <= claim.hi);
        }
    }

    #[test]
    fn audited_launch_sees_oob_attempt_outside_runtime_claims() {
        // The shield aborts the overflowing launch, but the recorder must
        // still have captured the attempted out-of-bounds extreme.
        let mut sys = System::new(SystemConfig::nvidia_protected());
        let a = sys.alloc(128 * 4).unwrap();
        let (r, _claims) = sys
            .launch_audited(iota(), 8, 32, &[Arg::Buffer(a)])
            .unwrap();
        assert!(!r.completed());
        let obs = &r.launches[0].observed_ranges;
        assert!(!obs.is_empty());
        let max_hi = obs.iter().map(|o| o.hi).max().unwrap();
        let min_lo = obs.iter().map(|o| o.lo).min().unwrap();
        assert!(max_hi - min_lo > 128 * 4, "overflow attempt was recorded");
    }

    #[test]
    fn observed_oob_launch_yields_a_post_mortem() {
        let mut sys = System::new(SystemConfig::nvidia_protected());
        sys.enable_observation(ObserveMode::Full);
        let a = sys.alloc(128 * 4).unwrap();
        let r = sys.launch(iota(), 8, 32, &[Arg::Buffer(a)]).unwrap();
        assert!(!r.completed());
        let pm = sys
            .post_mortem()
            .expect("violation is resident in the ring");
        assert_eq!(pm.trigger, "kernel_abort");
        assert_eq!(pm.abort_reason, Some(0), "bounds violation");
        let v = pm.violation.expect("the violating access is resident");
        assert!(v.is_store);
        // iota has exactly one memory instruction, so the oracle
        // coordinate is ordinal 0.
        assert_eq!(pm.guilty_mem_ordinal(&iota()), Some(0));
        assert!(pm.victim.is_some(), "overflowed region identified");
        let launch = pm.launch.expect("launch prep was recorded");
        assert_eq!(launch.regions, 1);
    }

    #[test]
    fn counters_mode_counts_but_stores_nothing() {
        let mut sys = System::new(SystemConfig::nvidia_protected());
        sys.enable_observation(ObserveMode::Counters);
        let a = sys.alloc(128 * 4).unwrap();
        let r = sys.launch(iota(), 8, 32, &[Arg::Buffer(a)]).unwrap();
        assert!(!r.completed());
        let f = sys.flight().unwrap();
        assert!(f.events_recorded() > 0);
        assert!(f.is_empty());
        assert!(sys.post_mortem().is_none(), "nothing resident to walk");
    }

    #[test]
    fn post_mortem_is_byte_identical_across_sim_threads() {
        let run = |threads: usize| {
            let mut cfg = SystemConfig::nvidia_protected();
            cfg.gpu.sim_threads = threads;
            let mut sys = System::new(cfg);
            sys.enable_observation(ObserveMode::Full);
            let a = sys.alloc(128 * 4).unwrap();
            let r = sys.launch(iota(), 8, 32, &[Arg::Buffer(a)]).unwrap();
            assert!(!r.completed());
            sys.post_mortem().expect("violation resident").render_json()
        };
        let st1 = run(1);
        assert_eq!(st1, run(4));
        assert_eq!(st1, run(7));
    }

    #[test]
    fn observation_does_not_change_simulated_timing() {
        let cycles = |mode: ObserveMode| {
            let mut sys = System::new(SystemConfig::nvidia_protected());
            sys.enable_observation(mode);
            let buf = sys.alloc(256 * 4).unwrap();
            let r = sys.launch(iota(), 8, 32, &[Arg::Buffer(buf)]).unwrap();
            assert!(r.completed());
            r.cycles
        };
        let base = cycles(ObserveMode::Disabled);
        assert_eq!(base, cycles(ObserveMode::Counters));
        assert_eq!(base, cycles(ObserveMode::Full));
    }

    #[test]
    fn inter_core_concurrent_launch_keeps_the_flight_recorder() {
        for mode in [MultiKernelMode::IntraCore, MultiKernelMode::InterCore] {
            let mut sys = System::new(SystemConfig::nvidia_protected());
            sys.enable_observation(ObserveMode::Full);
            let a = [Arg::Buffer(sys.alloc(128 * 4).unwrap())];
            let b = [Arg::Buffer(sys.alloc(128 * 4).unwrap())];
            let kernels = [
                ConcurrentKernel::new(iota(), 8, 32, &a),
                ConcurrentKernel::new(iota(), 8, 32, &b),
            ];
            let l = sys
                .submit(LaunchSpec {
                    mode,
                    ..LaunchSpec::new(&kernels)
                })
                .unwrap();
            assert!(!l.report.completed());
            let pm = sys
                .post_mortem()
                .unwrap_or_else(|| panic!("{mode:?}: no post-mortem"));
            assert_eq!(pm.trigger, "kernel_abort", "{mode:?}");
        }
    }

    #[test]
    fn concurrent_kernels_both_complete() {
        let mut sys = System::new(SystemConfig::intel_protected());
        let b1 = sys.alloc(256 * 4).unwrap();
        let b2 = sys.alloc(256 * 4).unwrap();
        let (a1, a2) = ([Arg::Buffer(b1)], [Arg::Buffer(b2)]);
        let l = sys
            .submit(LaunchSpec::new(&[
                ConcurrentKernel::new(iota(), 8, 32, &a1),
                ConcurrentKernel::new(iota(), 8, 32, &a2),
            ]))
            .unwrap();
        assert!(l.report.completed());
        assert_eq!(l.report.launches.len(), 2);
        assert_eq!(sys.read_uint(b1, 255 * 4, 4), 255);
        assert_eq!(sys.read_uint(b2, 255 * 4, 4), 255);
    }
}
