//! End-to-end verification of the Fig. 12 stall-visibility rule through
//! the timeline ring: which memory accesses pay a BCU bubble, and when.

use gpushield::{
    Arg, ConcurrentKernel, FlightEvent, LaunchSpec, ObserveMode, System, SystemConfig,
};
use gpushield_isa::{Kernel, KernelBuilder, MemSpace, MemWidth, Operand};
use std::sync::Arc;

/// `(transactions, stall)` of every memory instruction in the timeline.
fn mem_events(sys: &System) -> Vec<(u8, u8)> {
    sys.flight()
        .expect("recorder attached")
        .iter()
        .filter_map(|r| match r.ev {
            FlightEvent::Mem {
                transactions,
                stall,
                ..
            } => Some((transactions, stall)),
            _ => None,
        })
        .collect()
}

/// A kernel that loads the same (L1-resident, single-transaction) line
/// repeatedly through a runtime-checked pointer: offset loaded from
/// memory so static analysis cannot elide the checks.
fn repeated_load_kernel(rounds: usize) -> Arc<Kernel> {
    let mut b = KernelBuilder::new("stall_probe");
    let buf = b.param_buffer("buf", false);
    let j = b.ld(
        MemSpace::Global,
        MemWidth::W4,
        b.base_offset(buf, Operand::Imm(0)),
    );
    let off = b.shl(j, Operand::Imm(2));
    let acc = b.mov(Operand::Imm(0));
    for _ in 0..rounds {
        let v = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(buf, off));
        let t = b.add(acc, v);
        b.assign(acc, t);
    }
    let out_off = b.shl(j, Operand::Imm(3));
    b.st(
        MemSpace::Global,
        MemWidth::W4,
        b.base_offset(buf, out_off),
        acc,
    );
    b.ret();
    Arc::new(b.finish().unwrap())
}

fn stalls_under(l1_lat: u64, l2_lat: u64) -> (u64, u64) {
    let mut cfg = SystemConfig::nvidia_protected();
    cfg.bcu.l1_latency = l1_lat;
    cfg.bcu.l2_latency = l2_lat;
    let mut sys = System::new(cfg);
    sys.enable_observation(ObserveMode::Timeline { capacity: 4096 });
    let buf = sys.alloc(4096).unwrap();
    let r = sys
        .submit(LaunchSpec::new(&[ConcurrentKernel::new(
            repeated_load_kernel(12),
            1,
            32,
            &[Arg::Buffer(buf)],
        )]))
        .unwrap()
        .report;
    assert!(r.completed());
    let mut stalled = 0u64;
    let mut unstalled = 0u64;
    for (_, stall) in mem_events(&sys) {
        if stall > 0 {
            stalled += 1;
        } else {
            unstalled += 1;
        }
    }
    (stalled, unstalled)
}

#[test]
fn default_latencies_never_stall_l1_rcache_hits() {
    // L1 RCache hit path (1 cycle) is fully hidden by the 4-stage LSU
    // pipeline; only the very first accesses (RBT fetch) may show a stall.
    let (stalled, unstalled) = stalls_under(1, 3);
    assert!(unstalled >= 12, "warm accesses must be free");
    assert!(
        stalled <= 1,
        "at most the initial RBT fetch may be visible, got {stalled}"
    );
}

#[test]
fn two_cycle_l1_rcache_exposes_one_bubble_per_warm_access() {
    // With L1:2 the per-access path exceeds the overlap budget by one
    // cycle, so (nearly) every single-transaction L1D-hit access stalls.
    let (stalled, unstalled) = stalls_under(2, 5);
    assert!(
        stalled >= 10,
        "lengthened RCache must expose bubbles, got {stalled} stalled / {unstalled} free"
    );
}

#[test]
fn multi_transaction_accesses_hide_the_bubble() {
    // A strided access producing many transactions keeps the BCU hidden
    // even with slow RCaches (the Fig. 12 "all other cases" rule).
    let mut b = KernelBuilder::new("strided");
    let buf = b.param_buffer("buf", false);
    let j = b.ld(
        MemSpace::Global,
        MemWidth::W4,
        b.base_offset(buf, Operand::Imm(0)),
    );
    let tid = b.global_thread_id();
    // 128-byte stride: every lane its own transaction.
    let lane_off = b.mul(tid, Operand::Imm(128));
    let jo = b.shl(j, Operand::Imm(2));
    let off = b.add(lane_off, jo);
    let acc = b.mov(Operand::Imm(0));
    for _ in 0..6 {
        let v = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(buf, off));
        let t = b.add(acc, v);
        b.assign(acc, t);
    }
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(buf, jo), acc);
    b.ret();
    let k = Arc::new(b.finish().unwrap());

    let mut cfg = SystemConfig::nvidia_protected();
    cfg.bcu.l1_latency = 2;
    cfg.bcu.l2_latency = 5;
    let mut sys = System::new(cfg);
    sys.enable_observation(ObserveMode::Timeline { capacity: 4096 });
    let buf = sys.alloc(32 * 128 + 4096).unwrap();
    let r = sys
        .submit(LaunchSpec::new(&[ConcurrentKernel::new(
            k,
            1,
            32,
            &[Arg::Buffer(buf)],
        )]))
        .unwrap()
        .report;
    assert!(r.completed());
    let mems = mem_events(&sys);
    for &(transactions, stall) in &mems {
        if transactions > 1 {
            assert_eq!(stall, 0, "multi-tx access must hide the BCU");
        }
    }
    // And the strided loads really were multi-transaction.
    assert!(
        mems.iter().any(|&(transactions, _)| transactions > 8),
        "expected heavily uncoalesced accesses in the timeline"
    );
}
