//! Adapter running workload host programs on a [`System`].

use gpushield::{
    Arg, BufferHandle, ConcurrentKernel, LaunchSpec, MemGuard, Registry, System, SystemConfig,
    Trace,
};
use gpushield_isa::Kernel;
use gpushield_sim::RunReport;
use gpushield_workloads::{BufId, HostApi, WArg};
use std::sync::Arc;

/// Runs workload programs against a live [`System`], accumulating one
/// [`RunReport`] per launch.
pub struct SystemHost {
    sys: System,
    bufs: Vec<BufferHandle>,
    guard: Option<Box<dyn MemGuard>>,
    registry: Option<Registry>,
    trace: Option<Trace>,
    /// One report per kernel launch, in order.
    pub reports: Vec<RunReport>,
}

impl SystemHost {
    /// Builds a host around a fresh system.
    pub fn new(cfg: SystemConfig) -> Self {
        SystemHost {
            sys: System::new(cfg),
            bufs: Vec::new(),
            guard: None,
            registry: None,
            trace: None,
            reports: Vec::new(),
        }
    }

    /// Builds a host whose launches run under an external guard (used for
    /// the software-tool cost models of Fig. 19); the system itself should
    /// be a shield-off baseline in that case.
    pub fn with_guard(cfg: SystemConfig, guard: Box<dyn MemGuard>) -> Self {
        SystemHost {
            sys: System::new(cfg),
            bufs: Vec::new(),
            guard: Some(guard),
            registry: None,
            trace: None,
            reports: Vec::new(),
        }
    }

    /// Attaches a telemetry registry: every later launch publishes
    /// scheduler, memory and driver metrics into it (see
    /// [`LaunchSpec::registry`]). Attaching a [`Registry::disabled`]
    /// registry keeps the instrumented code path but records nothing.
    pub fn attach_registry(&mut self, registry: Registry) {
        self.registry = Some(registry);
    }

    /// Detaches and returns the registry attached with
    /// [`SystemHost::attach_registry`], if any.
    pub fn take_registry(&mut self) -> Option<Registry> {
        self.registry.take()
    }

    /// Attaches an execution trace recorder: every later launch appends
    /// its events to this trace (subject to its capacity bound).
    pub fn attach_trace(&mut self, trace: Trace) {
        self.trace = Some(trace);
    }

    /// Detaches and returns the trace attached with
    /// [`SystemHost::attach_trace`], if any.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Total simulated cycles across all launches (host programs run their
    /// launches sequentially).
    pub fn total_cycles(&self) -> u64 {
        self.reports.iter().map(|r| r.cycles).sum()
    }

    /// Number of launches performed.
    pub fn launches(&self) -> u64 {
        self.reports.len() as u64
    }

    /// Total bytes allocated.
    pub fn buffer_bytes(&self) -> u64 {
        self.bufs
            .iter()
            .map(|b| self.sys.driver().buffer_size(*b))
            .sum()
    }

    /// Number of buffers allocated.
    pub fn buffer_count(&self) -> u64 {
        self.bufs.len() as u64
    }

    /// The driver handle of the `i`-th allocated buffer.
    pub fn handle(&self, i: usize) -> BufferHandle {
        self.bufs[i]
    }

    /// True when any launch aborted (bounds violation or fault).
    pub fn any_abort(&self) -> bool {
        self.reports.iter().any(|r| !r.completed())
    }

    /// Fraction of runtime checks removed by static analysis, aggregated.
    pub fn check_reduction(&self) -> f64 {
        let performed: u64 = self
            .reports
            .iter()
            .flat_map(|r| &r.launches)
            .map(|l| l.checks_performed)
            .sum();
        let skipped: u64 = self
            .reports
            .iter()
            .flat_map(|r| &r.launches)
            .map(|l| l.checks_skipped)
            .sum();
        if performed + skipped == 0 {
            0.0
        } else {
            skipped as f64 / (performed + skipped) as f64
        }
    }

    /// The underlying system (BCU statistics, violations, …).
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Mutable access to the underlying system.
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.sys
    }

    /// Translates workload arguments into driver arguments.
    pub fn map_args(&self, args: &[WArg]) -> Vec<Arg> {
        args.iter()
            .map(|a| match a {
                WArg::Buf(b) => Arg::Buffer(self.bufs[*b]),
                WArg::Scalar(v) => Arg::Scalar(*v),
            })
            .collect()
    }
}

impl HostApi for SystemHost {
    fn alloc(&mut self, bytes: u64) -> BufId {
        let h = self.sys.alloc(bytes).expect("workload allocation");
        self.bufs.push(h);
        self.bufs.len() - 1
    }

    fn upload_u32(&mut self, buf: BufId, offset_bytes: u64, data: &[u32]) {
        let h = self.bufs[buf];
        let mut bytes = Vec::with_capacity(data.len() * 4);
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.sys.write_buffer(h, offset_bytes, &bytes);
    }

    fn set_heap(&mut self, bytes: u64) {
        self.sys.set_heap_limit(bytes).expect("heap limit");
    }

    fn launch(&mut self, kernel: &Arc<Kernel>, grid: u32, block: u32, args: &[WArg]) {
        let mapped = self.map_args(args);
        let launched = self
            .sys
            .submit(LaunchSpec {
                guard: self.guard.as_deref_mut().map(|g| g as _),
                registry: self.registry.as_mut(),
                trace: self.trace.as_mut(),
                ..LaunchSpec::new(&[ConcurrentKernel::new(kernel.clone(), grid, block, &mapped)])
            })
            .expect("workload launch");
        self.reports.push(launched.report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpushield_workloads::by_name;

    #[test]
    fn vectoradd_runs_on_baseline_and_shield() {
        let w = by_name("vectoradd").unwrap();
        let mut base = SystemHost::new(SystemConfig::nvidia_baseline());
        w.run(&mut base);
        assert!(!base.any_abort());
        assert!(base.total_cycles() > 0);

        let mut prot = SystemHost::new(SystemConfig::nvidia_protected());
        w.run(&mut prot);
        assert!(!prot.any_abort(), "no false positives on a benign workload");
    }
}
