//! The two ways an op reaches the GPUShield stack.
//!
//! The untraced path is the facade itself: [`System`]. The traced path
//! is [`Parts`], which owns the same driver, GPU and BCU that
//! [`System::new`] builds and makes the public calls the facade's
//! `launch*` methods make, in the same order, with a span around each:
//! `Driver::prepare_launch[_scoped]`, `Bcu::register_kernel` /
//! `prime_region`, then `Gpu::run` or `Gpu::run_recorded`. Every
//! workload checks that both paths simulate identical cycles,
//! instructions and violations per op.
//!
//! `Parts<true>` swaps `Gpu::run` for `Gpu::run_instrumented` with a live
//! telemetry `Registry`, the only public entry that reports the engine's
//! quantum count. Its per-launch registry set-up is costly on small
//! launches, so it runs one untimed counting round and no timed one.

use crate::layers::Counts;
use crate::trace::Tracer;
use gpushield::{
    Arg, Bcu, BcuStats, BufferHandle, Driver, DriverStats, MemGuard, Registry, RunReport,
    ShieldSetup, System, SystemConfig, SystemError, TenantId, TenantTable, ViolationRecord,
};
use gpushield_compiler::{analyze, prove_sites, AnalysisConfig, ArgInfo, LaunchKnowledge};
use gpushield_isa::{Kernel, PtrClass};
use gpushield_sim::Gpu;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// What an op needs from the stack under test.
pub trait Stack: Sized {
    /// Builds the stack as [`System::new`] does.
    fn build(cfg: SystemConfig) -> Self;
    /// As [`System::alloc`].
    fn alloc(&mut self, bytes: u64) -> Result<BufferHandle, SystemError>;
    /// The driver (host reads and writes).
    fn driver(&self) -> &Driver;
    /// Mutable driver access.
    fn driver_mut(&mut self) -> &mut Driver;
    /// The BCU's cumulative violation log.
    fn violations(&self) -> &[ViolationRecord];
    /// Adds the stack's cumulative per-layer counts (traced path only).
    fn add_counts(&self, _counts: &mut Counts) {}
    /// As [`System::launch`].
    fn launch(
        &mut self,
        tr: &mut Tracer,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<RunReport, SystemError>;
    /// As [`System::launch_tenant`].
    #[allow(clippy::too_many_arguments)]
    fn launch_tenant(
        &mut self,
        tr: &mut Tracer,
        tenants: &mut TenantTable,
        t: TenantId,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<(RunReport, Vec<ViolationRecord>), SystemError>;
    /// As [`System::launch_audited`] (the claims are not needed).
    fn launch_audited(
        &mut self,
        tr: &mut Tracer,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<RunReport, SystemError>;
}

impl Stack for System {
    fn build(cfg: SystemConfig) -> Self {
        System::new(cfg)
    }

    fn alloc(&mut self, bytes: u64) -> Result<BufferHandle, SystemError> {
        System::alloc(self, bytes)
    }

    fn driver(&self) -> &Driver {
        System::driver(self)
    }

    fn driver_mut(&mut self) -> &mut Driver {
        System::driver_mut(self)
    }

    fn violations(&self) -> &[ViolationRecord] {
        System::violations(self)
    }

    fn launch(
        &mut self,
        _tr: &mut Tracer,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<RunReport, SystemError> {
        System::launch(self, kernel, grid, block, args)
    }

    fn launch_tenant(
        &mut self,
        _tr: &mut Tracer,
        tenants: &mut TenantTable,
        t: TenantId,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<(RunReport, Vec<ViolationRecord>), SystemError> {
        System::launch_tenant(self, tenants, t, kernel, grid, block, args)
    }

    fn launch_audited(
        &mut self,
        _tr: &mut Tracer,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<RunReport, SystemError> {
        System::launch_audited(self, kernel, grid, block, args).map(|(r, _)| r)
    }
}

/// The facade's components, driven one public call at a time;
/// `COUNT_QUANTA` selects the registry-instrumented engine entry.
pub struct Parts<const COUNT_QUANTA: bool> {
    driver: Driver,
    gpu: Gpu,
    bcu: Option<Bcu>,
    registry: Option<Registry>,
}

/// Which engine entry a traced launch uses.
#[derive(Clone, Copy)]
enum Engine {
    /// The quantum engine (`Gpu::run` in the facade).
    Quantum,
    /// The serial recording engine (`Gpu::run_recorded`).
    Recorded,
}

impl<const COUNT_QUANTA: bool> Parts<COUNT_QUANTA> {
    /// Builds the components exactly as [`System::new`] does.
    pub fn new(cfg: SystemConfig) -> Self {
        let bcu = cfg
            .shield_enabled()
            .then(|| Bcu::new(cfg.bcu, cfg.gpu.num_cores));
        Parts {
            driver: Driver::new(cfg.driver, cfg.seed),
            gpu: Gpu::new(cfg.gpu),
            bcu,
            registry: COUNT_QUANTA.then(Registry::new),
        }
    }

    /// The BCU's cumulative statistics (zero when the shield is off).
    pub fn bcu_stats(&self) -> BcuStats {
        self.bcu.as_ref().map(|b| b.stats()).unwrap_or_default()
    }

    /// The driver's cumulative metadata-path counters.
    pub fn driver_stats(&self) -> DriverStats {
        self.driver.stats()
    }

    /// The engine's cumulative quantum count (0 unless counted).
    pub fn quanta(&self) -> u64 {
        self.registry
            .as_ref()
            .and_then(|r| r.value("sim.parallel.quantum_count"))
            .unwrap_or(0)
    }

    /// As the facade's private `attach_shield`.
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

    /// Re-times the pure compiler entry points `prepare_launch` runs
    /// internally for this launch, on the inputs it will give them.
    fn retime_compiler(
        &self,
        kernel: &Kernel,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Vec<(&'static str, u64)> {
        let dc = self.driver.config();
        let mut out = Vec::new();
        if !dc.enable_shield || !(dc.enable_static_analysis || dc.enable_elision) {
            return out;
        }
        let know = knowledge(&self.driver, kernel, grid, block, args);
        if dc.enable_static_analysis {
            let t = Instant::now();
            let cfg = AnalysisConfig {
                enable_type3: dc.enable_type3,
                enable_elision: dc.enable_elision,
            };
            let bat = analyze(kernel, &know, cfg);
            // The driver re-analyses without Type 3 when a size-embedded
            // parameter's allocation cannot carry its bound.
            let compatible = bat.param_class.iter().enumerate().all(|(p, c)| {
                *c != PtrClass::SizeEmbedded
                    || match args[p] {
                        Arg::Buffer(h) => {
                            let reserved = self.driver.buffer_reserved(h);
                            reserved.is_power_of_two()
                                && self.driver.buffer_va(h).is_multiple_of(reserved)
                        }
                        Arg::Scalar(_) => false,
                    }
            });
            if dc.enable_type3 && !compatible {
                let cfg = AnalysisConfig {
                    enable_type3: false,
                    ..cfg
                };
                black_box(analyze(kernel, &know, cfg));
            }
            black_box(bat);
            out.push(("compiler.analyze", t.elapsed().as_nanos() as u64));
        }
        if dc.enable_elision {
            let view = know.value_less();
            let t = Instant::now();
            black_box(prove_sites(kernel, &view));
            out.push(("compiler.prove", t.elapsed().as_nanos() as u64));
        }
        out
    }

    fn run_engine(
        &mut self,
        tr: &mut Tracer,
        engine: Engine,
        launch: gpushield_sim::KernelLaunch,
    ) -> Result<RunReport, SystemError> {
        let guard = self.bcu.as_mut().map(|b| b as &mut dyn MemGuard);
        let vm = self.driver.vm_mut();
        tr.begin("sim.run");
        let report = match (engine, self.registry.as_mut()) {
            (Engine::Quantum, Some(reg)) => {
                self.gpu.run_instrumented(vm, &[launch], guard, reg, None)
            }
            (Engine::Quantum, None) => self.gpu.run(vm, &[launch], guard),
            (Engine::Recorded, _) => self.gpu.run_recorded(vm, &[launch], guard),
        };
        tr.end("sim.run");
        Ok(report?)
    }

    /// `System::launch` / `launch_audited`, one call at a time.
    fn launch_plain(
        &mut self,
        tr: &mut Tracer,
        engine: Engine,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<RunReport, SystemError> {
        let retimed = self.retime_compiler(&kernel, grid, block, args);
        tr.begin("gpushield.launch");
        tr.begin_with_retimed("driver.prepare", &retimed);
        let prepared = self.driver.prepare_launch(kernel, grid, block, args);
        tr.end("driver.prepare");
        let report = prepared.map_err(SystemError::from).and_then(|p| {
            self.attach_shield(p.shield, &p.region_ids);
            self.run_engine(tr, engine, p.launch)
        });
        tr.end("gpushield.launch");
        report
    }

    /// `System::launch_tenant`'s body, inside its launch span.
    #[allow(clippy::too_many_arguments)]
    fn launch_tenant_inner(
        &mut self,
        tr: &mut Tracer,
        retimed: &[(&'static str, u64)],
        tenants: &mut TenantTable,
        t: TenantId,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<(RunReport, Vec<ViolationRecord>), SystemError> {
        let scope = tenants.allocator_mut(t)?;
        tr.begin_with_retimed("driver.prepare", retimed);
        let prepared = self
            .driver
            .prepare_launch_scoped(kernel, grid, block, args, Some(scope));
        tr.end("driver.prepare");
        let prepared = match prepared {
            Ok(p) => p,
            Err(e) => {
                tenants.record_rejection(t)?;
                return Err(e.into());
            }
        };
        tenants.record_launch(t, prepared.launch.kernel_id)?;
        self.attach_shield(prepared.shield, &prepared.region_ids);
        let logged_before = self.bcu.as_ref().map(|b| b.violations().len());
        let report = self.run_engine(tr, Engine::Quantum, prepared.launch)?;
        let new_violations: Vec<ViolationRecord> = match (self.bcu.as_ref(), logged_before) {
            (Some(b), Some(n)) => b.violations()[n..].to_vec(),
            _ => Vec::new(),
        };
        for v in &new_violations {
            if let Some(owner) = tenants.owner_of_kernel(v.kernel_id) {
                tenants.note_violation(owner)?;
            }
        }
        tenants.stats_mut(t)?.cycles_consumed += report.cycles;
        tenants.complete_launch(t, &prepared.region_ids)?;
        Ok((report, new_violations))
    }
}

/// The launch knowledge `prepare_launch` builds for its analyses.
fn knowledge(
    driver: &Driver,
    kernel: &Kernel,
    grid: u32,
    block: u32,
    args: &[Arg],
) -> LaunchKnowledge {
    let total_threads = u64::from(grid) * u64::from(block);
    LaunchKnowledge {
        args: args
            .iter()
            .map(|a| match a {
                Arg::Buffer(h) => ArgInfo::Buffer {
                    size: driver.buffer_size(*h),
                },
                Arg::Scalar(v) => ArgInfo::Scalar { value: Some(*v) },
            })
            .collect(),
        local_sizes: kernel
            .locals()
            .iter()
            .map(|l| l.bytes_per_thread() * total_threads)
            .collect(),
        block,
        grid,
        heap_size: driver.heap_window().map(|(_, size)| size),
    }
}

impl<const COUNT_QUANTA: bool> Stack for Parts<COUNT_QUANTA> {
    fn build(cfg: SystemConfig) -> Self {
        Self::new(cfg)
    }

    fn alloc(&mut self, bytes: u64) -> Result<BufferHandle, SystemError> {
        Ok(self.driver.malloc(bytes)?)
    }

    fn driver(&self) -> &Driver {
        &self.driver
    }

    fn driver_mut(&mut self) -> &mut Driver {
        &mut self.driver
    }

    fn violations(&self) -> &[ViolationRecord] {
        self.bcu.as_ref().map(|b| b.violations()).unwrap_or(&[])
    }

    fn add_counts(&self, counts: &mut Counts) {
        counts.parts(self);
    }

    fn launch(
        &mut self,
        tr: &mut Tracer,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<RunReport, SystemError> {
        self.launch_plain(tr, Engine::Quantum, kernel, grid, block, args)
    }

    fn launch_audited(
        &mut self,
        tr: &mut Tracer,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<RunReport, SystemError> {
        self.launch_plain(tr, Engine::Recorded, kernel, grid, block, args)
    }

    /// `System::launch_tenant`, one call at a time.
    fn launch_tenant(
        &mut self,
        tr: &mut Tracer,
        tenants: &mut TenantTable,
        t: TenantId,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<(RunReport, Vec<ViolationRecord>), SystemError> {
        let retimed = self.retime_compiler(&kernel, grid, block, args);
        tr.begin("gpushield.launch");
        let result = self.launch_tenant_inner(tr, &retimed, tenants, t, kernel, grid, block, args);
        tr.end("gpushield.launch");
        result
    }
}
