//! Determinism matrix for the cycle-quantum parallel engine.
//!
//! Sharding the simulated GPU's SIMT cores across worker threads is a
//! wall-clock optimisation only: every simulated quantity — cycle counts,
//! scheduling order, verdicts, abort cycles, memory contents, telemetry —
//! must be byte-identical at every `sim_threads` value. These tests pin
//! that across the interesting worker counts: 1 (sequential), 2 and 4
//! (even shards of the 16-core Nvidia config), and 7 (cores don't divide
//! evenly, so claim order and shard sizes differ maximally), including
//! the park-and-drain paths (device malloc, global atomics) and the
//! quantum-granular abort path.

use gpushield::{
    chrome_timeline, Arg, ConcurrentKernel, FaultKind, FaultPlan, LaunchSpec, MultiKernelMode,
    ObserveMode, Registry, System, SystemConfig,
};
use gpushield_bench::adapter::SystemHost;
use gpushield_bench::runner::{config, Protection, Target};
use gpushield_isa::{Kernel, KernelBuilder, MemSpace, MemWidth, Operand};
use gpushield_workloads::by_name;
use std::sync::Arc;

const WORKER_MATRIX: [usize; 4] = [1, 2, 4, 7];

/// Protected Nvidia system with an explicit engine worker count.
fn protected_system(sim_threads: usize) -> System {
    let mut cfg = SystemConfig::nvidia_protected();
    cfg.gpu.sim_threads = sim_threads;
    System::new(cfg)
}

/// Runs one registered workload end-to-end at `sim_threads` workers with
/// full telemetry, and serializes everything observable: every run
/// report and the rendered registry dump.
fn workload_fingerprint(name: &str, sim_threads: usize) -> String {
    let w = by_name(name).expect("workload registered");
    let mut cfg = config(Target::Nvidia, Protection::shield_lat(1, 3));
    cfg.gpu.sim_threads = sim_threads;
    let mut host = SystemHost::new(cfg);
    host.attach_registry(Registry::new());
    w.run(&mut host);
    let reg = host.take_registry().expect("registry attached");
    format!("{:#?}\n{}", host.reports, reg.render_json())
}

#[test]
fn workload_results_are_identical_at_every_worker_count() {
    for name in ["vectoradd", "bfs-dtc"] {
        let base = workload_fingerprint(name, WORKER_MATRIX[0]);
        for &n in &WORKER_MATRIX[1..] {
            assert_eq!(
                base,
                workload_fingerprint(name, n),
                "{name}: reports or telemetry drift at sim_threads={n}"
            );
        }
    }
}

/// Stores one word out of bounds from every block; under the shield the
/// launch aborts via the quantum drain's canonical first-abort rule.
fn oob_store_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("par_oob_store");
    let a = b.param_buffer("A", false);
    b.st(
        MemSpace::Global,
        MemWidth::W4,
        b.base_offset(a, Operand::Imm(0x80 * 4)),
        Operand::Imm(0xBAD),
    );
    b.ret();
    Arc::new(b.finish().unwrap())
}

#[test]
fn abort_cycle_and_violation_log_are_identical_at_every_worker_count() {
    let run = |sim_threads: usize| -> String {
        let mut sys = protected_system(sim_threads);
        let a = sys.alloc(64).unwrap();
        let victim = sys.alloc(64).unwrap();
        let r = sys
            .launch(oob_store_kernel(), 8, 32, &[Arg::Buffer(a)])
            .unwrap();
        assert!(!r.completed(), "shield must abort the overflow");
        let victim_words: Vec<u64> = (0..16).map(|i| sys.read_uint(victim, i * 4, 4)).collect();
        format!("{r:#?}\n{:#?}\n{victim_words:?}", sys.violations())
    };
    let base = run(WORKER_MATRIX[0]);
    for &n in &WORKER_MATRIX[1..] {
        assert_eq!(base, run(n), "abort drift at sim_threads={n}");
    }
}

/// The Chrome timeline export reads the ring the quantum drain fills in
/// canonical order, so it is byte-identical at every worker count — for
/// a benign multi-workgroup launch and for one the shield aborts.
#[test]
fn chrome_timeline_is_identical_at_every_worker_count() {
    let export = |kernel: Arc<Kernel>, bytes: u64, sim_threads: usize| -> String {
        let mut sys = protected_system(sim_threads);
        sys.enable_observation(ObserveMode::Timeline { capacity: 1 << 16 });
        let a = sys.alloc(bytes).unwrap();
        let _victim = sys.alloc(64).unwrap();
        let r = sys.launch(kernel, 8, 32, &[Arg::Buffer(a)]).unwrap();
        let ring = sys.flight().unwrap();
        assert_eq!(ring.events_dropped(), 0, "the ring holds the whole run");
        format!("{}\n{}", r.completed(), chrome_timeline(ring).render())
    };
    for (what, kernel, bytes) in [
        ("multi-workgroup", faulted_store_kernel(), 8 * 32 * 4),
        ("aborting", oob_store_kernel(), 64),
    ] {
        let base = export(kernel.clone(), bytes, 1);
        assert!(base.contains("\"dispatch\""), "{what}: no timeline");
        assert_eq!(base.starts_with("false"), what == "aborting");
        assert_eq!(base.contains("\"abort\""), what == "aborting");
        for n in [2, 7] {
            assert_eq!(
                base,
                export(kernel.clone(), bytes, n),
                "{what}: Chrome export drift at sim_threads={n}"
            );
        }
    }
}

/// Every thread stores its ID; the fault plan corrupts the protection
/// metadata mid-run.
fn faulted_store_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("par_faulted_store");
    let a = b.param_buffer("A", false);
    let tid = b.global_thread_id();
    let off = b.shl(tid, Operand::Imm(2));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(a, off), tid);
    b.ret();
    Arc::new(b.finish().unwrap())
}

/// A fault session runs the engine on one worker with the whole guard,
/// so its access counter advances in one canonical order and
/// `sim_threads` must have no observable effect on a faulted session
/// either — report, injection record, verdicts, and memory identical.
#[test]
fn faulted_sessions_are_identical_at_every_worker_count() {
    let run = |sim_threads: usize| -> String {
        let mut sys = protected_system(sim_threads);
        let a = sys.alloc(8 * 32 * 4).unwrap();
        let res = sys
            .submit(LaunchSpec {
                faults: Some(FaultPlan::generate(7, &FaultKind::ALL, 3, 64)),
                ..LaunchSpec::new(&[ConcurrentKernel::new(
                    faulted_store_kernel(),
                    8,
                    32,
                    &[Arg::Buffer(a)],
                )])
            })
            .map(|l| (l.report, l.injections));
        let words: Vec<u64> = (0..16).map(|i| sys.read_uint(a, i * 4, 4)).collect();
        format!("{res:#?}\n{:#?}\n{words:?}", sys.violations())
    };
    let base = run(WORKER_MATRIX[0]);
    for &n in &WORKER_MATRIX[1..] {
        assert_eq!(base, run(n), "faulted-session drift at sim_threads={n}");
    }
}

/// Every thread device-mallocs a block, bumps a global counter
/// atomically, synchronizes, and records its pointer — covering all
/// three park-and-drain operations (malloc, global atomic, barrier
/// release) in one kernel.
fn park_heavy_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("par_park_heavy");
    let out = b.param_buffer("out", false);
    let ctr = b.param_buffer("ctr", false);
    let tid = b.global_thread_id();
    let p = b.malloc(Operand::Imm(64));
    let _ = b.atom_add(
        MemSpace::Global,
        MemWidth::W4,
        b.base_offset(ctr, Operand::Imm(0)),
        Operand::Imm(1),
    );
    b.bar();
    let off = b.shl(tid, Operand::Imm(3));
    b.st(MemSpace::Global, MemWidth::W8, b.base_offset(out, off), p);
    b.ret();
    Arc::new(b.finish().unwrap())
}

#[test]
fn park_and_drain_paths_are_identical_at_every_worker_count() {
    let run = |sim_threads: usize| -> String {
        let mut sys = protected_system(sim_threads);
        sys.set_heap_limit(1 << 20).unwrap();
        let threads = 8 * 32u64;
        let out = sys.alloc(threads * 8).unwrap();
        let ctr = sys.alloc(64).unwrap();
        let r = sys
            .launch(
                park_heavy_kernel(),
                8,
                32,
                &[Arg::Buffer(out), Arg::Buffer(ctr)],
            )
            .unwrap();
        assert!(r.completed(), "benign kernel must complete");
        assert_eq!(
            sys.read_uint(ctr, 0, 4),
            threads,
            "atomic counter saw every thread exactly once"
        );
        let ptrs: Vec<u64> = (0..threads).map(|i| sys.read_uint(out, i * 8, 8)).collect();
        format!("{r:#?}\n{ptrs:?}")
    };
    let base = run(WORKER_MATRIX[0]);
    for &n in &WORKER_MATRIX[1..] {
        assert_eq!(base, run(n), "park/drain drift at sim_threads={n}");
    }
}

/// Launches that leave most cores idle: one and three workgroups, and two
/// kernels partitioning the cores (`InterCore`) with workgroup counts
/// that fill neither half. The idle cores sleep and are never visited, so
/// the scheduler's telemetry — `no_issue_slots`, the busy-cycle skew and
/// every per-core busy gauge — must still be identical at every worker
/// count.
#[test]
fn sparse_launches_are_identical_at_every_worker_count() {
    type Case = (&'static str, &'static [u32], MultiKernelMode);
    const CASES: [Case; 3] = [
        ("one workgroup", &[1], MultiKernelMode::IntraCore),
        ("three workgroups", &[3], MultiKernelMode::IntraCore),
        (
            "two kernels, InterCore",
            &[3, 5],
            MultiKernelMode::InterCore,
        ),
    ];
    let run = |grids: &[u32], mode: MultiKernelMode, sim_threads: usize| -> String {
        let mut sys = protected_system(sim_threads);
        let bufs: Vec<_> = grids
            .iter()
            .map(|&g| sys.alloc(u64::from(g) * 32 * 4).unwrap())
            .collect();
        let args: Vec<[Arg; 1]> = bufs.iter().map(|&b| [Arg::Buffer(b)]).collect();
        let kernels: Vec<ConcurrentKernel<'_>> = grids
            .iter()
            .zip(&args)
            .map(|(&g, a)| ConcurrentKernel::new(faulted_store_kernel(), g, 32, a))
            .collect();
        let mut reg = Registry::new();
        let r = sys
            .submit(LaunchSpec {
                mode,
                registry: Some(&mut reg),
                ..LaunchSpec::new(&kernels)
            })
            .unwrap()
            .report;
        assert!(r.completed(), "benign kernels must complete");
        for name in [
            "sim.sched.no_issue_slots",
            "sim.parallel.max_skew_cycles",
            "sim.parallel.cluster.15.busy_cycles",
        ] {
            assert!(reg.value(name).is_some(), "{name} published");
        }
        format!("{r:#?}\n{}", reg.render_json())
    };
    for (what, grids, mode) in CASES {
        let base = run(grids, mode, WORKER_MATRIX[0]);
        for &n in &WORKER_MATRIX[1..] {
            assert_eq!(
                base,
                run(grids, mode, n),
                "{what}: drift at sim_threads={n}"
            );
        }
    }
}
