//! Execution timeline: watch a kernel's dispatch, memory traffic,
//! barriers, and retirement cycle by cycle in a timeline flight ring —
//! and see exactly where a bounds violation fired.
//!
//! ```text
//! cargo run --release --example trace_debug
//! ```

use gpushield::{
    Arg, ConcurrentKernel, FlightRecord, LaunchSpec, ObserveMode, System, SystemConfig,
};
use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand};
use std::error::Error;
use std::sync::Arc;

/// One ring record per line: global cycle, kind, payload.
fn line(r: &FlightRecord) -> String {
    format!("[{:>8}] {:<15} {:?}", r.t, r.ev.kind_name(), r.ev)
}

fn main() -> Result<(), Box<dyn Error>> {
    // A two-phase kernel: stage values in shared memory, synchronize,
    // then write reversed within the workgroup.
    let mut b = KernelBuilder::new("reverse");
    let out = b.param_buffer("out", false);
    b.shared_mem(64 * 4);
    let tid = b.mov(b.thread_id());
    let soff = b.shl(tid, Operand::Imm(2));
    b.st(MemSpace::Shared, MemWidth::W4, b.flat(soff), tid);
    b.bar();
    let mate = b.sub(Operand::Imm(63), tid);
    let moff = b.shl(mate, Operand::Imm(2));
    let v = b.ld(MemSpace::Shared, MemWidth::W4, b.flat(moff));
    let g = b.global_thread_id();
    let goff = b.shl(g, Operand::Imm(2));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, goff), v);
    b.ret();
    let kernel = Arc::new(b.finish()?);

    let mut sys = System::new(SystemConfig::nvidia_protected());
    sys.enable_observation(ObserveMode::Timeline { capacity: 4096 });
    let buf = sys.alloc(128 * 4)?;
    let report = sys
        .submit(LaunchSpec::new(&[ConcurrentKernel::new(
            kernel,
            2,
            64,
            &[Arg::Buffer(buf)],
        )]))?
        .report;
    assert!(report.completed());
    assert_eq!(
        sys.read_uint(buf, 0, 4),
        63,
        "reversed within the workgroup"
    );

    let ring = sys.flight().ok_or("recorder attached")?;
    println!("== first 20 events ==");
    for r in ring.iter().take(20) {
        println!("{}", line(r));
    }
    let count = |kind: &str| ring.iter().filter(|r| r.ev.kind_name() == kind).count();
    println!(
        "\n{} events total: {} barrier arrivals, {} memory instructions",
        ring.len(),
        count("barrier"),
        count("mem")
    );

    // Now trace an out-of-bounds kernel and find the abort.
    let mut bad = KernelBuilder::new("oob");
    let p = bad.param_buffer("p", false);
    bad.st(
        MemSpace::Global,
        MemWidth::W4,
        bad.base_offset(p, Operand::Imm(1 << 20)),
        Operand::Imm(1),
    );
    bad.ret();
    let bad = Arc::new(bad.finish()?);
    sys.enable_observation(ObserveMode::Timeline { capacity: 256 });
    let small = sys.alloc(64)?;
    let report = sys
        .submit(LaunchSpec::new(&[ConcurrentKernel::new(
            bad,
            1,
            1,
            &[Arg::Buffer(small)],
        )]))?
        .report;
    assert!(!report.completed());
    println!("\n== violating launch ==");
    for r in sys.flight().ok_or("recorder attached")?.iter() {
        println!("{}", line(r));
    }
    println!("\n{}", sys.error_report());
    Ok(())
}
