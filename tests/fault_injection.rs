//! Fault-injection integration tests: the deterministic corruption harness
//! must produce byte-identical outcomes regardless of worker count, the
//! watchdog and heap-deadlock detectors must convert injected livelocks
//! into structured errors, and an empty plan must be indistinguishable
//! from a plain launch.

use gpushield::{
    Arg, ConcurrentKernel, DriverConfig, DriverError, FaultKind, FaultPlan, GpuConfig,
    InjectionRecord, LaunchSpec, RunError, RunReport, System, SystemConfig, SystemError,
};
use gpushield_isa::{CmpOp, Kernel, KernelBuilder, MemSpace, MemWidth, Operand};
use gpushield_runtime::pool;
use std::sync::Arc;

fn shielded_config() -> SystemConfig {
    let mut cfg = SystemConfig::nvidia_protected();
    cfg.driver = DriverConfig {
        enable_static_analysis: false,
        ..cfg.driver
    };
    cfg
}

/// Launches one kernel under `plan`, returning the report and the
/// injection log.
fn launch_with_faults(
    sys: &mut System,
    kernel: Arc<Kernel>,
    grid: u32,
    block: u32,
    args: &[Arg],
    plan: FaultPlan,
) -> Result<(RunReport, Vec<InjectionRecord>), SystemError> {
    sys.submit(LaunchSpec {
        faults: Some(plan),
        ..LaunchSpec::new(&[ConcurrentKernel::new(kernel, grid, block, args)])
    })
    .map(|l| (l.report, l.injections))
}

/// `out[tid] = tid` — the benign store workload.
fn store_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("fi_store");
    let out = b.param_buffer("out", false);
    let tid = b.global_thread_id();
    let off = b.shl(tid, Operand::Imm(2));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
    b.ret();
    Arc::new(b.finish().unwrap())
}

/// Spins while `flag[0] == 0`; with the flag left at zero this never
/// terminates on its own.
fn spin_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("fi_spin");
    let flag = b.param_buffer("flag", false);
    b.while_loop(
        |b| {
            let v = b.ld(
                MemSpace::Global,
                MemWidth::W4,
                b.base_offset(flag, Operand::Imm(0)),
            );
            Operand::Reg(b.cmp(CmpOp::Eq, v, Operand::Imm(0)))
        },
        |_| {},
    );
    b.ret();
    Arc::new(b.finish().unwrap())
}

/// One full injected run, summarised as a comparable string: the launch
/// outcome, the violation log, the injection log, and the output bytes.
fn injected_run_fingerprint(seed: u64) -> String {
    let mut sys = System::new(shielded_config());
    let buf = sys.alloc(128 * 4).expect("alloc");
    let plan = FaultPlan::generate(seed, &FaultKind::ALL, 3, 4);
    let outcome = launch_with_faults(&mut sys, store_kernel(), 4, 32, &[Arg::Buffer(buf)], plan);
    let mut out = String::new();
    match outcome {
        Ok((report, injected)) => {
            out.push_str(&format!(
                "completed={} cycles={} injected={:?}\n",
                report.completed(),
                report.cycles,
                injected
            ));
        }
        Err(e) => out.push_str(&format!("error={e}\n")),
    }
    out.push_str(&format!("violations={:?}\n", sys.violations()));
    for i in 0..128 {
        out.push_str(&format!("{:x} ", sys.read_uint(buf, i * 4, 4)));
    }
    out
}

#[test]
fn same_seed_and_plan_give_identical_outcomes() {
    let a = injected_run_fingerprint(7);
    for _ in 0..3 {
        assert_eq!(a, injected_run_fingerprint(7));
    }
    assert_ne!(
        injected_run_fingerprint(7),
        injected_run_fingerprint(8),
        "different seeds should perturb different accesses"
    );
}

#[test]
fn outcomes_are_identical_across_worker_counts() {
    let seeds: Vec<u64> = (0..12).collect();
    let run = |workers: usize| -> Vec<String> {
        let tasks: Vec<_> = seeds
            .iter()
            .map(|&s| move || injected_run_fingerprint(s))
            .collect();
        pool::run_all(tasks, workers)
    };
    assert_eq!(run(1), run(8), "fan-out must not change any trial");
}

#[test]
fn watchdog_converts_livelock_into_cycle_budget_error() {
    let mut cfg = shielded_config();
    cfg.gpu = GpuConfig {
        max_cycles: 5_000,
        ..cfg.gpu
    };
    let mut sys = System::new(cfg);
    let flag = sys.alloc(64).expect("alloc");
    // flag[0] stays 0: the spin never exits without the watchdog.
    let err = sys
        .launch(spin_kernel(), 1, 32, &[Arg::Buffer(flag)])
        .expect_err("watchdog must fire");
    match err {
        SystemError::Run(RunError::CycleBudgetExceeded { cycle, budget }) => {
            assert_eq!(budget, 5_000);
            assert!(cycle >= budget, "terminated at cycle {cycle}");
        }
        other => panic!("expected CycleBudgetExceeded, got {other:?}"),
    }
}

#[test]
fn blocking_malloc_exhaustion_is_reported_as_heap_deadlock() {
    let mut cfg = shielded_config();
    cfg.gpu = GpuConfig {
        malloc_blocks_on_exhaustion: true,
        ..cfg.gpu
    };
    let mut sys = System::new(cfg);
    sys.set_heap_limit(256).unwrap();
    let mut b = KernelBuilder::new("fi_malloc");
    b.malloc(Operand::Imm(1024));
    b.ret();
    let kernel = Arc::new(b.finish().unwrap());
    let err = sys
        .launch(kernel, 1, 32, &[])
        .expect_err("exhausted blocking malloc must deadlock");
    assert!(
        matches!(err, SystemError::Run(RunError::HeapDeadlock { .. })),
        "expected HeapDeadlock, got {err:?}"
    );
}

#[test]
fn empty_plan_matches_a_plain_launch() {
    let run_plain = |with_faults: bool| -> (bool, u64, Vec<u64>) {
        let mut sys = System::new(shielded_config());
        let buf = sys.alloc(128 * 4).expect("alloc");
        let report = if with_faults {
            let (r, injected) = launch_with_faults(
                &mut sys,
                store_kernel(),
                4,
                32,
                &[Arg::Buffer(buf)],
                FaultPlan::empty(),
            )
            .expect("launch");
            assert!(injected.is_empty());
            r
        } else {
            sys.launch(store_kernel(), 4, 32, &[Arg::Buffer(buf)])
                .expect("launch")
        };
        let words = (0..128).map(|i| sys.read_uint(buf, i * 4, 4)).collect();
        (report.completed(), report.cycles, words)
    };
    assert_eq!(run_plain(false), run_plain(true));
}

#[test]
fn degenerate_launch_geometry_is_a_structured_error() {
    let mut sys = System::new(shielded_config());
    for (grid, block) in [(0, 32), (4, 0), (0, 0)] {
        let err = sys
            .launch(store_kernel(), grid, block, &[])
            .expect_err("degenerate geometry must be rejected");
        match err {
            SystemError::Driver(DriverError::DegenerateLaunch { grid: g, block: b }) => {
                assert_eq!((g, b), (grid, block));
            }
            other => panic!("expected DegenerateLaunch, got {other:?}"),
        }
        assert!(err.to_string().contains("degenerate launch geometry"));
    }
}
