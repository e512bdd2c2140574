//! Cross-tenant isolation integration tests: a table-driven sweep of
//! attacker/victim tenant pairs across every pointer-addressing vector
//! (raw class-0 VAs, legitimate Region pointers pushed out of bounds,
//! forged Region IDs, forged Type 3 size claims). Every probe must
//! classify as Detected — never Masked, never SilentCorruption — and the
//! violation must be attributed to the attacking tenant via its recorded
//! kernel ID.

use gpushield::{
    Arg, BcuConfig, DriverConfig, DriverError, GpuConfig, RunError, System, SystemConfig,
    SystemError, TenantId, TenantTable, ViolationKind,
};
use gpushield_bench::serving::{run_serving, JobKind, ServingConfig};
use gpushield_isa::{CmpOp, Kernel, KernelBuilder, MemSpace, MemWidth, Operand};
use std::sync::Arc;

fn strict_tenant_config() -> SystemConfig {
    SystemConfig {
        gpu: GpuConfig {
            max_cycles: 200_000,
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
    }
}

/// Stores through its own pointer at an offset loaded from memory.
fn indirect_offset_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("isolation_indirect");
    let a = b.param_buffer("A", false);
    let off = b.ld(
        MemSpace::Global,
        MemWidth::W8,
        b.base_offset(a, Operand::Imm(8)),
    );
    b.st(
        MemSpace::Global,
        MemWidth::W4,
        b.base_offset(a, off),
        Operand::Imm(0xBAD),
    );
    b.ret();
    Arc::new(b.finish().expect("valid kernel"))
}

/// The full attacker x victim x vector matrix, driven through the serving
/// loop: one probe per run, and the run's classification record must show
/// exactly one Detected outcome with the attacker charged.
#[test]
fn every_cross_tenant_probe_is_detected_and_attributed() {
    const N: usize = 3;
    let vectors: [fn(usize) -> JobKind; 4] = [
        |v| JobKind::AttackRawVa { victim: v },
        |v| JobKind::AttackRegionOob { victim: v },
        |v| JobKind::AttackForgedId { victim: v },
        |v| JobKind::AttackForgedType3 { victim: v },
    ];
    for attacker in 0..N {
        for victim in (0..N).filter(|v| *v != attacker) {
            for (vi, vector) in vectors.iter().enumerate() {
                let mut queues = vec![Vec::new(); N];
                queues[attacker] = vec![vector(victim)];
                let cfg = ServingConfig {
                    slices: (0..N as u16)
                        .map(|t| (1 + t * 64, 65 + t * 64, 1))
                        .collect(),
                    queues,
                    strict_runtime_tags: true,
                    max_cycles: 200_000,
                };
                let s = run_serving(&cfg);
                let ctx = format!("attacker={attacker} victim={victim} vector={vi}");
                assert_eq!(
                    s.tallies[2], 1,
                    "probe not Detected ({ctx}): {:?}",
                    s.tallies
                );
                assert_eq!(
                    s.tallies[3] + s.tallies[4],
                    0,
                    "probe Masked or Silent ({ctx})"
                );
                assert!(s.secrets_intact, "victim secret corrupted ({ctx})");
                assert_eq!(s.misattributed, 0, "violation misattributed ({ctx})");
                assert!(
                    s.per_tenant[attacker].violations_attributed >= 1,
                    "attacker not charged ({ctx})"
                );
                for t in (0..N).filter(|t| *t != attacker) {
                    assert_eq!(
                        s.per_tenant[t].violations_attributed, 0,
                        "bystander charged ({ctx})"
                    );
                }
            }
        }
    }
}

/// Facade-level attribution: the violation record's kernel ID resolves to
/// the attacking tenant through the table's launch registry.
#[test]
fn violation_kernel_id_resolves_to_the_attacking_tenant() {
    let mut sys = System::new(strict_tenant_config());
    let mut tenants = TenantTable::with_slices([(1u16, 65u16, 1u64), (65, 129, 1)]);
    let attacker_buf = sys.alloc(64).expect("attacker buffer");
    let victim_buf = sys.alloc(64).expect("victim buffer");
    let delta = sys
        .driver()
        .buffer_va(victim_buf)
        .wrapping_sub(sys.driver().buffer_va(attacker_buf));
    sys.write_buffer(attacker_buf, 8, &delta.to_le_bytes());
    let (report, violations) = sys
        .launch_tenant(
            &mut tenants,
            TenantId(0),
            indirect_offset_kernel(),
            1,
            1,
            &[Arg::Buffer(attacker_buf)],
        )
        .expect("launch admitted");
    assert!(!report.completed(), "probe must abort under precise faults");
    assert!(!violations.is_empty(), "violation logged");
    for v in &violations {
        assert_eq!(
            tenants.owner_of_kernel(v.kernel_id),
            Some(TenantId(0)),
            "violation attributed to the wrong tenant"
        );
        assert_eq!(v.kind, ViolationKind::OutOfBounds);
    }
    let stats = tenants.stats(TenantId(0)).expect("attacker stats");
    assert_eq!(stats.violations_attributed, violations.len() as u64);
    assert_eq!(
        tenants
            .stats(TenantId(1))
            .expect("victim stats")
            .violations_attributed,
        0
    );
}

/// Without strict runtime tags the raw-VA probe completes silently and
/// corrupts the victim — the exposure the serving configuration closes.
#[test]
fn lax_tags_let_raw_va_probes_corrupt_silently() {
    let cfg = ServingConfig {
        slices: vec![(1, 65, 1), (65, 129, 1)],
        queues: vec![vec![JobKind::AttackRawVa { victim: 1 }], Vec::new()],
        strict_runtime_tags: false,
        max_cycles: 200_000,
    };
    let s = run_serving(&cfg);
    assert_eq!(
        s.tallies[4], 1,
        "raw-VA probe should corrupt silently: {:?}",
        s.tallies
    );
}

/// A tenant whose slice is exhausted gets a typed rejection, and the
/// launch path surfaces it without panicking; once traffic drains, the
/// recycled slice admits new launches again.
#[test]
fn slice_exhaustion_is_typed_and_recoverable() {
    let mut sys = System::new(strict_tenant_config());
    let mut tenants = TenantTable::with_slices([(1u16, 2u16, 1u64)]);
    let buf = sys.alloc(64).expect("buffer");

    let mut two_buffers = KernelBuilder::new("isolation_two_bufs");
    let x = two_buffers.param_buffer("x", false);
    let y = two_buffers.param_buffer("y", false);
    let tid = two_buffers.global_thread_id();
    let off = two_buffers.shl(tid, Operand::Imm(2));
    two_buffers.st(
        MemSpace::Global,
        MemWidth::W4,
        two_buffers.base_offset(x, off),
        tid,
    );
    two_buffers.st(
        MemSpace::Global,
        MemWidth::W4,
        two_buffers.base_offset(y, off),
        tid,
    );
    two_buffers.ret();
    let wide = Arc::new(two_buffers.finish().expect("valid kernel"));

    let err = sys
        .launch_tenant(
            &mut tenants,
            TenantId(0),
            wide,
            1,
            4,
            &[Arg::Buffer(buf), Arg::Buffer(buf)],
        )
        .expect_err("two IDs cannot fit a one-ID slice");
    assert!(
        matches!(
            err,
            SystemError::Driver(DriverError::RegionIdsExhausted { needed: 2 })
        ),
        "wrong error: {err:?}"
    );
    assert_eq!(
        tenants.stats(TenantId(0)).expect("stats").launches_rejected,
        1
    );

    // Single-ID launches keep working, recycling the lone ID each time.
    let mut single = KernelBuilder::new("isolation_single");
    let a = single.param_buffer("A", false);
    let tid = single.global_thread_id();
    let off = single.shl(tid, Operand::Imm(2));
    single.st(
        MemSpace::Global,
        MemWidth::W4,
        single.base_offset(a, off),
        tid,
    );
    single.ret();
    let narrow = Arc::new(single.finish().expect("valid kernel"));
    for _ in 0..3 {
        let (report, violations) = sys
            .launch_tenant(
                &mut tenants,
                TenantId(0),
                narrow.clone(),
                1,
                4,
                &[Arg::Buffer(buf)],
            )
            .expect("single-ID launch admitted");
        assert!(report.completed());
        assert!(violations.is_empty());
    }
    let stats = tenants.stats(TenantId(0)).expect("stats");
    assert_eq!(stats.launches_completed, 3);
}

/// Spins while `flag[0]` is zero — forever, as nothing sets it.
fn spin_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("isolation_spin");
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
    Arc::new(b.finish().expect("valid kernel"))
}

/// A launch the watchdog ends still returns its region IDs: on a 4-ID
/// slice, eight spinning jobs in a row each trip the watchdog (none is
/// rejected for want of IDs), and no ID stays live after any of them.
#[test]
fn watchdog_trips_release_the_tenants_region_ids() {
    let mut cfg = strict_tenant_config();
    cfg.gpu.max_cycles = 2_000;
    let mut sys = System::new(cfg);
    let mut tenants = TenantTable::with_slices([(1u16, 5u16, 1u64)]);
    let flag = sys.alloc(64).expect("buffer");
    let spin = spin_kernel();
    for job in 0..8 {
        let err = sys
            .launch_tenant(
                &mut tenants,
                TenantId(0),
                spin.clone(),
                1,
                32,
                &[Arg::Buffer(flag)],
            )
            .expect_err("the spin never ends");
        assert!(
            matches!(
                err,
                SystemError::Run(RunError::CycleBudgetExceeded { budget: 2_000, .. })
            ),
            "job {job}: {err:?}"
        );
        let live = tenants
            .allocator_mut(TenantId(0))
            .expect("tenant")
            .live_count();
        assert_eq!(live, 0, "job {job}");
    }
}
