//! The per-kernel RBT lifecycle (§5.4): every launch's RBT is retired
//! when the launch ends — each of its entries invalidated — and reused by
//! a later launch instead of mapping a new table.
//!
//! A pointer tagged for a retired launch must stay useless in the launch
//! that reuses its table: every cross-tenant probe vector built from such
//! a stale pointer is Detected, never Masked or a silent corruption.
//! Kernels in flight together hold distinct tables, and a long serving
//! session maps no new device memory once its first launches are done.

use gpushield::{
    Arg, BcuConfig, ConcurrentKernel, DriverConfig, DriverError, GpuConfig, MultiKernelMode,
    RunError, System, SystemConfig, SystemError, TenantId, TenantTable,
};
use gpushield_isa::{Kernel, KernelBuilder, MemSpace, MemWidth, Operand, PtrClass, TaggedPtr};
use std::error::Error;
use std::sync::Arc;

const SECRET: [u32; 8] = [
    0x5EC0, 0x5EC1, 0x5EC2, 0x5EC3, 0x5EC4, 0x5EC5, 0x5EC6, 0x5EC7,
];

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

/// `W[0] = S`: leaks the tagged pointer the launch was given for `S`.
fn leak_kernel() -> Result<Arc<Kernel>, Box<dyn Error>> {
    let mut b = KernelBuilder::new("rbt_leak");
    let w = b.param_buffer("W", false);
    let s = b.param_buffer("S", true);
    b.st(
        MemSpace::Global,
        MemWidth::W8,
        b.base_offset(w, Operand::Imm(0)),
        s,
    );
    b.ret();
    Ok(Arc::new(b.finish()?))
}

/// Stores through a pointer loaded from its own buffer.
fn deref_loaded_kernel() -> Result<Arc<Kernel>, Box<dyn Error>> {
    let mut b = KernelBuilder::new("rbt_deref_loaded");
    let a = b.param_buffer("A", false);
    let p = b.ld(
        MemSpace::Global,
        MemWidth::W8,
        b.base_offset(a, Operand::Imm(0)),
    );
    b.st(
        MemSpace::Global,
        MemWidth::W4,
        b.base_offset(p, Operand::Imm(0)),
        Operand::Imm(0xBAD),
    );
    b.ret();
    Ok(Arc::new(b.finish()?))
}

/// Stores through its own pointer at an offset loaded from memory.
fn indirect_offset_kernel() -> Result<Arc<Kernel>, Box<dyn Error>> {
    let mut b = KernelBuilder::new("rbt_indirect");
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
    Ok(Arc::new(b.finish()?))
}

/// `out[tid] = tid`.
fn iota_kernel() -> Result<Arc<Kernel>, Box<dyn Error>> {
    let mut b = KernelBuilder::new("rbt_iota");
    let out = b.param_buffer("out", false);
    let tid = b.global_thread_id();
    let off = b.shl(tid, Operand::Imm(2));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
    b.ret();
    Ok(Arc::new(b.finish()?))
}

/// How the probe of launch *k+1* uses the pointer kept from launch *k*.
#[derive(Debug, Clone, Copy)]
enum Vector {
    /// The stale pointer's untagged VA, dereferenced raw.
    RawVa,
    /// The attacker's own fresh pointer pushed to the stale pointer's VA.
    RegionOob,
    /// The stale Region pointer replayed verbatim: its ID was encrypted
    /// under the retired launch's key.
    ForgedId,
    /// The stale pointer's VA under a crafted Type 3 size claim.
    ForgedType3,
}

/// Launch *k*: the victim tenant leaks its tagged secret pointer. Launch
/// *k+1*: `prober` runs over the recycled RBT with a payload built from
/// that pointer. The probe must be Detected and the secret intact.
fn stale_pointer_probe(vector: Vector, prober: u16) -> Result<(), Box<dyn Error>> {
    let mut sys = System::new(strict_tenant_config());
    let mut tenants = TenantTable::with_slices([(1u16, 17u16, 1u64), (17, 33, 1)]);
    let victim = TenantId(1);
    let attacker_work = sys.alloc(64)?;
    let victim_work = sys.alloc(64)?;
    let secret = sys.alloc_u32s(&SECRET)?;

    let (report, _) = sys.launch_tenant(
        &mut tenants,
        victim,
        leak_kernel()?,
        1,
        1,
        &[Arg::Buffer(victim_work), Arg::Buffer(secret)],
    )?;
    assert!(report.completed());
    let stale = TaggedPtr::from_raw(sys.read_uint(victim_work, 0, 8));
    assert_eq!(stale.class(), PtrClass::Region);
    assert_eq!(stale.va(), sys.driver().buffer_va(secret));

    let prober_id = TenantId(prober);
    let work = if prober_id == victim {
        victim_work
    } else {
        attacker_work
    };
    let (kernel, offset, payload) = match vector {
        Vector::RawVa => (deref_loaded_kernel()?, 0, stale.va()),
        Vector::RegionOob => {
            let delta = stale.va().wrapping_sub(sys.driver().buffer_va(work));
            (indirect_offset_kernel()?, 8, delta)
        }
        Vector::ForgedId => (deref_loaded_kernel()?, 0, stale.raw()),
        Vector::ForgedType3 => (
            deref_loaded_kernel()?,
            0,
            TaggedPtr::with_log2_size(stale.va(), 40).raw(),
        ),
    };
    sys.write_buffer(work, offset, &payload.to_le_bytes());
    let (report, violations) =
        sys.launch_tenant(&mut tenants, prober_id, kernel, 1, 1, &[Arg::Buffer(work)])?;
    let ctx = format!("{vector:?} by tenant {prober}");
    assert_eq!(
        sys.driver().stats().rbt_allocs,
        1,
        "launch k+1 reuses launch k's RBT ({ctx})"
    );
    assert!(
        !report.completed() || !violations.is_empty(),
        "probe not detected ({ctx})"
    );
    assert!(!violations.is_empty(), "violation not logged ({ctx})");
    for v in &violations {
        assert_eq!(tenants.owner_of_kernel(v.kernel_id), Some(prober_id));
    }
    for (i, word) in SECRET.iter().enumerate() {
        assert_eq!(
            sys.read_uint(secret, i as u64 * 4, 4),
            u64::from(*word),
            "secret word {i} corrupted ({ctx})"
        );
    }
    Ok(())
}

#[test]
fn stale_pointers_are_detected_over_a_recycled_rbt() -> Result<(), Box<dyn Error>> {
    for vector in [
        Vector::RawVa,
        Vector::RegionOob,
        Vector::ForgedId,
        Vector::ForgedType3,
    ] {
        stale_pointer_probe(vector, 0)?;
    }
    // The victim's own dangling pointer, replayed in its next launch.
    stale_pointer_probe(Vector::ForgedId, 1)
}

#[test]
fn concurrent_tenant_kernels_hold_distinct_rbts() -> Result<(), Box<dyn Error>> {
    let mut sys = System::new(strict_tenant_config());
    let mut tenants = TenantTable::with_slices((0..3u16).map(|t| (1 + 16 * t, 17 + 16 * t, 1)));
    let bufs = [sys.alloc(128)?, sys.alloc(128)?, sys.alloc(128)?];
    let kernel = iota_kernel()?;
    let mut batch = |sys: &mut System, n: usize| -> Result<(), Box<dyn Error>> {
        let kernels = (0..n)
            .map(|t| {
                let k = ConcurrentKernel {
                    kernel: kernel.clone(),
                    grid: 1,
                    block: 32,
                    args: vec![Arg::Buffer(bufs[t])],
                };
                (TenantId(t as u16), k)
            })
            .collect();
        let (report, violations) =
            sys.launch_tenant_concurrent(&mut tenants, kernels, MultiKernelMode::IntraCore)?;
        assert!(report.completed() && violations.is_empty());
        Ok(())
    };
    batch(&mut sys, 2)?;
    assert_eq!(sys.driver().stats().rbt_allocs, 2, "one RBT per kernel");
    batch(&mut sys, 2)?;
    assert_eq!(sys.driver().stats().rbt_allocs, 2, "both RBTs reused");
    batch(&mut sys, 3)?;
    assert_eq!(sys.driver().stats().rbt_allocs, 3, "only the third is new");
    for (t, buf) in bufs.iter().enumerate() {
        for i in 0..32u64 {
            assert_eq!(sys.read_uint(*buf, i * 4, 4), i, "tenant {t} word {i}");
        }
    }
    Ok(())
}

/// A launch whose run fails, or whose preparation is refused, leaves no
/// RBT behind: the engine error still retires the table, and a refused
/// launch never takes one.
#[test]
fn failed_launches_hold_no_rbt() -> Result<(), Box<dyn Error>> {
    let mut cfg = strict_tenant_config();
    cfg.gpu.max_cycles = 10;
    let mut sys = System::new(cfg);
    let mut tenants = TenantTable::with_slices([(1u16, 17u16, 1u64)]);
    let buf = sys.alloc(64 * 32 * 4)?;
    for _ in 0..3 {
        let err = sys.launch_tenant(
            &mut tenants,
            TenantId(0),
            iota_kernel()?,
            64,
            32,
            &[Arg::Buffer(buf)],
        );
        assert!(
            matches!(
                err,
                Err(SystemError::Run(RunError::CycleBudgetExceeded { .. }))
            ),
            "{err:?}"
        );
    }
    assert_eq!(
        sys.driver().stats().rbt_allocs,
        1,
        "the watchdog path retires"
    );

    let mut b = KernelBuilder::new("rbt_two_bufs");
    let x = b.param_buffer("x", false);
    let y = b.param_buffer("y", false);
    b.st(
        MemSpace::Global,
        MemWidth::W4,
        b.base_offset(x, Operand::Imm(0)),
        Operand::Imm(1),
    );
    b.st(
        MemSpace::Global,
        MemWidth::W4,
        b.base_offset(y, Operand::Imm(0)),
        Operand::Imm(2),
    );
    b.ret();
    let wide = Arc::new(b.finish()?);
    let mut sys = System::new(strict_tenant_config());
    let mut tenants = TenantTable::with_slices([(1u16, 2u16, 1u64)]);
    let (x, y) = (sys.alloc(64)?, sys.alloc(64)?);
    let refused = sys.launch_tenant(
        &mut tenants,
        TenantId(0),
        wide,
        1,
        1,
        &[Arg::Buffer(x), Arg::Buffer(y)],
    );
    assert!(
        matches!(
            refused,
            Err(SystemError::Driver(DriverError::RegionIdsExhausted { .. }))
        ),
        "{refused:?}"
    );
    assert_eq!(sys.driver().stats().rbt_allocs, 0, "a refusal maps nothing");
    Ok(())
}

/// A long serving session on one system: benign jobs and aborting probes
/// alternate across two tenants, and the device memory mapped after
/// 1,000 jobs is all the session ever maps.
#[test]
fn serving_maps_no_memory_after_warm_up() -> Result<(), Box<dyn Error>> {
    let mut sys = System::new(strict_tenant_config());
    let mut tenants = TenantTable::with_slices([(1u16, 17u16, 1u64), (17, 33, 1)]);
    let work = [sys.alloc(128)?, sys.alloc(128)?];
    let secret = sys.alloc_u32s(&SECRET)?;
    let (iota, probe) = (iota_kernel()?, indirect_offset_kernel()?);
    let delta = sys
        .driver()
        .buffer_va(secret)
        .wrapping_sub(sys.driver().buffer_va(work[0]));
    sys.write_buffer(work[0], 8, &delta.to_le_bytes());
    let mut frames_at_1k = 0;
    for job in 1..=20_000u32 {
        let t = (job % 2) as usize;
        let (kernel, block) = if t == 0 && job % 25 == 0 {
            (&probe, 1)
        } else {
            (&iota, 1 + job % 32)
        };
        let (report, violations) = sys.launch_tenant(
            &mut tenants,
            TenantId(t as u16),
            kernel.clone(),
            1,
            block,
            &[Arg::Buffer(work[t])],
        )?;
        assert_eq!(
            report.completed(),
            violations.is_empty(),
            "job {job}: only probes abort"
        );
        if t == 0 {
            sys.write_buffer(work[0], 8, &delta.to_le_bytes());
        }
        if job == 1_000 {
            frames_at_1k = sys.driver().vm().mapped_frames();
        }
    }
    assert_eq!(sys.driver().vm().mapped_frames(), frames_at_1k);
    assert_eq!(sys.driver().stats().rbt_allocs, 1);
    assert_eq!(sys.driver().stats().launches_prepared, 20_000);
    Ok(())
}
