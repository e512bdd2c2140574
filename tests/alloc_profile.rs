//! Allocation profile of the simulator hot path and the serving launch.
//!
//! The workspace crates all `forbid(unsafe_code)`; the root integration
//! tests are the one place a counting `#[global_allocator]` can live. The
//! steady-state simulation loop (scheduling, ALU issue, the LSU/BCU
//! pipeline, address translation) is allocation-free: decoded kernels are
//! interned behind `Arc` and issued as `Copy` instructions, the page table
//! is a flat radix tree, operand rows and per-access lane buffers live in
//! per-core scratch that is reused without re-zeroing, and a core hands a
//! retired warp's register file and SIMT stack to the next one it
//! dispatches. A run's cores, outboxes,
//! launch states and guard shards live in the `Gpu`'s engine arena, and a
//! kernel builds its reconvergence table once. What still allocates per
//! launch is the driver's preparation and the run report; these tests pin
//! both.
//!
//! Two counters run side by side. The process-wide one sees the engine's
//! worker threads, so the per-kilocycle bounds read it; the tests take
//! [`MEASURE`] for their whole body, since with the default parallel test
//! threads one test would otherwise count another's allocations. The
//! per-thread one sees only the calling thread, so the harness thread
//! allocating as it starts the next test never lands in a measurement;
//! the tests that pin an exact count read it, and their work runs on the
//! test thread (`sim_threads` 1 runs the engine inline).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialised and without a destructor, so reading it never
    // allocates and it stays usable while a thread is torn down.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations made so far by the calling thread alone.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Held by every test in this file, so only one counts at a time.
static MEASURE: Mutex<()> = Mutex::new(());

fn measure_alone() -> MutexGuard<'static, ()> {
    // A panicking test poisons the lock; the counter it guards is still
    // valid, so the next test proceeds.
    MEASURE.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn hot_path_allocations_per_kilocycle_stay_bounded() {
    use gpushield_bench::runner::{run_workload, Protection, Target};
    use gpushield_workloads::by_name;
    let _alone = measure_alone();

    // The longest-running registry workload (~300k cycles), so per-run
    // setup (host, caches, buffers) amortises away and the measurement
    // reflects the steady-state loop.
    let w = by_name("streamcluster").expect("streamcluster registered");

    // Warm-up run: one-time lazies (workload construction, registry
    // strings) don't count against the steady state.
    let warm = run_workload(&w, Target::Nvidia, Protection::shield_lat(1, 3));
    assert!(warm.cycles > 0);

    let before = allocs();
    let r = run_workload(&w, Target::Nvidia, Protection::shield_lat(1, 3));
    let during = allocs() - before;

    let per_kilocycle = during as f64 * 1000.0 / r.cycles as f64;
    // What is left (5.8 per kilocycle, ~12 per launch) is the driver's
    // per-launch analysis and tagging and each run's report, across
    // streamcluster's 150 small launches. The bound is that level plus
    // ~70%. Register files and SIMT stacks allocated per dispatched warp,
    // 16 boxed guard shards and a reconvergence table per launch read
    // 61.6 together; a reconvergence table rebuilt per launch alone adds
    // ~5.4, boxed shards alone ~8.3, and a per-access allocation 1000+.
    assert!(
        per_kilocycle < 10.0,
        "hot path regressed to {per_kilocycle:.1} allocations per kilocycle \
         ({during} allocations over {} cycles)",
        r.cycles
    );
}

/// The telemetry disabled path costs nothing: running through the
/// instrumented entry point with a [`Registry::disabled`] registry must
/// satisfy the same allocation bound as the plain hot-path run above —
/// registration returns `MetricId::NONE` without allocating and every
/// recording hook degenerates to one early-returning branch.
#[test]
fn disabled_telemetry_keeps_the_hot_path_allocation_free() {
    use gpushield::Registry;
    use gpushield_bench::adapter::SystemHost;
    use gpushield_bench::runner::{config, Protection, Target};
    use gpushield_workloads::by_name;
    let _alone = measure_alone();

    let w = by_name("streamcluster").expect("streamcluster registered");
    let run = || {
        let mut host = SystemHost::new(config(Target::Nvidia, Protection::shield_lat(1, 3)));
        host.attach_registry(Registry::disabled());
        w.run(&mut host);
        host
    };

    // Warm-up run, as in the plain-path test.
    let warm = run();
    assert!(warm.total_cycles() > 0);

    let before = allocs();
    let mut host = run();
    let during = allocs() - before;

    let reg = host.take_registry().expect("registry attached");
    assert!(!reg.enabled());
    assert!(reg.is_empty(), "a disabled registry must register nothing");

    let cycles = host.total_cycles();
    let per_kilocycle = during as f64 * 1000.0 / cycles as f64;
    assert!(
        per_kilocycle < 10.0,
        "disabled-telemetry path regressed to {per_kilocycle:.1} allocations \
         per kilocycle ({during} allocations over {cycles} cycles)"
    );
}

/// Publishing into a disabled registry builds no label strings: the
/// `driver.*`, `driver.tenant.*`, and `driver.audit.*` surfaces all pass
/// their labels as lazy closures, so the disabled early-return fires
/// before any `format!` runs. Zero allocations, not just "few".
#[test]
fn disabled_registry_publish_builds_no_label_strings() {
    use gpushield::Registry;
    use gpushield_driver::{Driver, DriverConfig, TenantId, TenantTable};
    let _alone = measure_alone();

    let driver = Driver::new(DriverConfig::default(), 7);
    let mut table = TenantTable::new(2);
    let _ = table.record_launch(TenantId(0), 1);
    let _ = table.note_probe(TenantId(1), true);

    let mut reg = Registry::disabled();
    // Warm-up: nothing to warm, but keep symmetry with the other tests.
    driver.publish_telemetry(&mut reg);
    table.publish_telemetry(&mut reg);

    let before = thread_allocs();
    driver.publish_telemetry(&mut reg);
    table.publish_telemetry(&mut reg);
    table.audit().publish(&mut reg);
    let during = thread_allocs() - before;

    assert!(reg.is_empty(), "a disabled registry must register nothing");
    assert_eq!(
        during, 0,
        "disabled-registry publish allocated {during} times: a label \
         string is being formatted eagerly"
    );
}

/// Where a steady-state serving launch still allocates: the driver's
/// parameter classes (kept as the launch's BAT), the region IDs drawn
/// from the tenant's slice and the launch's bound arguments, then the
/// run report's launch vector and kernel name. Everything else — the
/// engine's cores, slots and launch states, the guard's per-core shards,
/// the crew, warps' registers and stacks, the reconvergence table and the
/// driver's grouping and RBT scratch — is reused from earlier launches.
const SERVING_LAUNCH_ALLOCS: u64 = 5;

/// A long-lived serving `System` launches a benign 1×32-thread
/// `serve_iota` job for a tenant (the perfbench `serving` mix's common
/// job) with [`SERVING_LAUNCH_ALLOCS`] heap allocations, after warm-up.
#[test]
fn a_steady_state_serving_launch_allocates_almost_nothing() -> Result<(), Box<dyn std::error::Error>>
{
    use gpushield::{
        Arg, BcuConfig, DriverConfig, GpuConfig, System, SystemConfig, TenantId, TenantTable,
    };
    use gpushield_bench::serving::iota_kernel;
    let _alone = measure_alone();

    let mut sys = System::new(SystemConfig {
        gpu: GpuConfig {
            max_cycles: 200_000,
            sim_threads: 1,
            ..GpuConfig::nvidia()
        },
        driver: DriverConfig {
            enable_static_analysis: false,
            enable_type3: false,
            ..DriverConfig::default()
        },
        bcu: BcuConfig {
            strict_runtime_tags: true,
            ..BcuConfig::default()
        },
        seed: 0x6057_5E1D,
    });
    let mut tenants = TenantTable::with_slices([(1u16, 17u16, 1u64), (17, 33, 1)]);
    let work = sys.alloc(32 * 4)?;
    let kernel = iota_kernel();
    let mut launch = |sys: &mut System| {
        let args = [Arg::Buffer(work)];
        sys.launch_tenant(&mut tenants, TenantId(0), kernel.clone(), 1, 32, &args)
    };
    for _ in 0..200 {
        launch(&mut sys)?;
    }
    let before = thread_allocs();
    let (report, violations) = launch(&mut sys)?;
    let during = thread_allocs() - before;
    assert!(report.completed() && violations.is_empty());
    assert_eq!(
        during, SERVING_LAUNCH_ALLOCS,
        "a steady-state serving launch made {during} allocations"
    );
    Ok(())
}

/// Under `Gpu::run_with` a steady-state run allocates only the report it
/// returns: its launch vector and the kernel's name. The guard is a
/// forkable BCU, so the run goes through the per-core shards.
#[test]
fn a_steady_state_run_allocates_only_its_report() -> Result<(), Box<dyn std::error::Error>> {
    use gpushield::{Bcu, BcuConfig, GpuConfig};
    use gpushield_bench::serving::iota_kernel;
    use gpushield_isa::TaggedPtr;
    use gpushield_mem::{AllocPolicy, VirtualMemorySpace};
    use gpushield_sim::{Gpu, KernelLaunch, LaunchConfig, MemGuard, RunOpts};
    let _alone = measure_alone();

    let cfg = GpuConfig {
        sim_threads: 1,
        ..GpuConfig::nvidia()
    };
    let mut bcu = Bcu::new(BcuConfig::default(), cfg.num_cores);
    let mut gpu = Gpu::new(cfg);
    let mut vm = VirtualMemorySpace::new();
    let buf = vm.alloc(32 * 4, AllocPolicy::Device512)?;
    let launch = KernelLaunch::new(iota_kernel(), LaunchConfig::new(1, 32))
        .arg(TaggedPtr::unprotected(buf.va).raw());
    let launches = std::slice::from_ref(&launch);
    let mut run = |vm: &mut VirtualMemorySpace, guard: &mut dyn MemGuard| {
        gpu.run_with(vm, launches, Some(guard), RunOpts::default())
    };
    for _ in 0..50 {
        run(&mut vm, &mut bcu)?;
    }
    let before = thread_allocs();
    let report = run(&mut vm, &mut bcu)?;
    let during = thread_allocs() - before;
    assert!(report.completed());
    assert_eq!(during, 2, "a steady-state run made {during} allocations");
    Ok(())
}
