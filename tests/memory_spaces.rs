//! Per-space integration tests covering every Table 1 memory type and
//! every access width.

use gpushield::{Arg, System, SystemConfig, ViolationKind};
use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand, ValidateError};
use std::sync::Arc;

#[test]
fn texture_space_is_read_only_at_validation() {
    let mut b = KernelBuilder::new("tex_store");
    let t = b.param_buffer_in("tex", MemSpace::Texture, true);
    b.st(
        MemSpace::Texture,
        MemWidth::W4,
        b.base_offset(t, Operand::Imm(0)),
        Operand::Imm(1),
    );
    b.ret();
    assert!(matches!(
        b.finish().unwrap_err(),
        ValidateError::ConstStore(_, _)
    ));
}

#[test]
fn texture_loads_run_and_are_protected() {
    // Reads through a texture-space buffer work; an OOB read is caught.
    let mut b = KernelBuilder::new("tex_read");
    let t = b.param_buffer_in("tex", MemSpace::Texture, true);
    let out = b.param_buffer("out", false);
    let tid = b.global_thread_id();
    let off = b.shl(tid, Operand::Imm(2));
    let v = b.ld(MemSpace::Texture, MemWidth::W4, b.base_offset(t, off));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), v);
    b.ret();
    let k = Arc::new(b.finish().unwrap());

    let mut sys = System::new(SystemConfig::nvidia_protected());
    let tex = sys.alloc(64 * 4).unwrap();
    for i in 0..64u64 {
        sys.write_buffer(tex, i * 4, &(7 * i as u32).to_le_bytes());
    }
    let out = sys.alloc(64 * 4).unwrap();
    let r = sys
        .launch(k.clone(), 2, 32, &[Arg::Buffer(tex), Arg::Buffer(out)])
        .unwrap();
    assert!(r.completed());
    assert_eq!(sys.read_uint(out, 63 * 4, 4), 7 * 63);

    // Oversized launch: threads ≥ 64 read out of bounds.
    let mut sys = System::new(SystemConfig::nvidia_protected());
    let tex = sys.alloc(64 * 4).unwrap();
    let out = sys.alloc(256 * 4).unwrap();
    let r = sys
        .launch(k, 8, 32, &[Arg::Buffer(tex), Arg::Buffer(out)])
        .unwrap();
    assert!(!r.completed());
    assert_eq!(sys.violations()[0].kind, ViolationKind::OutOfBounds);
}

#[test]
fn constant_space_loads_work_under_protection() {
    let mut b = KernelBuilder::new("const_read");
    let c = b.param_buffer_in("coeffs", MemSpace::Const, true);
    let out = b.param_buffer("out", false);
    let tid = b.global_thread_id();
    let small = b.rem(tid, Operand::Imm(8));
    let coff = b.shl(small, Operand::Imm(2));
    let v = b.ld(MemSpace::Const, MemWidth::W4, b.base_offset(c, coff));
    let goff = b.shl(tid, Operand::Imm(2));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, goff), v);
    b.ret();
    let k = Arc::new(b.finish().unwrap());

    let mut sys = System::new(SystemConfig::nvidia_protected());
    let coeffs = sys.alloc(8 * 4).unwrap();
    for i in 0..8u64 {
        sys.write_buffer(coeffs, i * 4, &(100 + i as u32).to_le_bytes());
    }
    let out = sys.alloc(64 * 4).unwrap();
    let r = sys
        .launch(k, 2, 32, &[Arg::Buffer(coeffs), Arg::Buffer(out)])
        .unwrap();
    assert!(r.completed());
    assert_eq!(sys.read_uint(out, 10 * 4, 4), 102);
}

#[test]
fn all_access_widths_round_trip() {
    for (width, bytes) in [
        (MemWidth::W1, 1u64),
        (MemWidth::W2, 2),
        (MemWidth::W4, 4),
        (MemWidth::W8, 8),
    ] {
        let mut b = KernelBuilder::new("widths");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.mul(tid, Operand::Imm(bytes as i64));
        // Store tid (truncated to the width by the memory system).
        b.st(MemSpace::Global, width, b.base_offset(out, off), tid);
        b.ret();
        let k = Arc::new(b.finish().unwrap());

        let mut sys = System::new(SystemConfig::nvidia_protected());
        let out = sys.alloc(64 * bytes).unwrap();
        let r = sys.launch(k, 2, 32, &[Arg::Buffer(out)]).unwrap();
        assert!(r.completed(), "width {bytes}");
        let mask = if bytes == 8 {
            u64::MAX
        } else {
            (1u64 << (bytes * 8)) - 1
        };
        for i in 0..64u64 {
            let got = sys.read_uint(out, i * bytes, bytes);
            assert_eq!(got, i & mask, "width {bytes} element {i}");
        }
    }
}

#[test]
fn three_concurrent_kernels_share_the_gpu() {
    use gpushield::{ConcurrentKernel, LaunchSpec};
    fn iota() -> Arc<gpushield_isa::Kernel> {
        let mut b = KernelBuilder::new("iota3");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        Arc::new(b.finish().unwrap())
    }
    let mut sys = System::new(SystemConfig::nvidia_protected());
    let bufs: Vec<_> = (0..3).map(|_| sys.alloc(128 * 4).unwrap()).collect();
    let args: Vec<[Arg; 1]> = bufs.iter().map(|b| [Arg::Buffer(*b)]).collect();
    let kernels: Vec<ConcurrentKernel> = args
        .iter()
        .map(|a| ConcurrentKernel::new(iota(), 4, 32, a))
        .collect();
    let r = sys.submit(LaunchSpec::new(&kernels)).unwrap().report;
    assert!(r.completed());
    assert_eq!(r.launches.len(), 3);
    for b in bufs {
        assert_eq!(sys.read_uint(b, 127 * 4, 4), 127);
    }
}

#[test]
fn mem_fraction_and_ipc_are_sane() {
    let mut b = KernelBuilder::new("mix");
    let out = b.param_buffer("out", false);
    let tid = b.global_thread_id();
    let off = b.shl(tid, Operand::Imm(2));
    let x = b.mul(tid, Operand::Imm(3));
    let y = b.add(x, Operand::Imm(1));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), y);
    b.ret();
    let k = Arc::new(b.finish().unwrap());
    let mut sys = System::new(SystemConfig::nvidia_protected());
    let out = sys.alloc(256 * 4).unwrap();
    let r = sys.launch(k, 8, 32, &[Arg::Buffer(out)]).unwrap();
    let l = &r.launches[0];
    assert!(l.mem_fraction() > 0.0 && l.mem_fraction() < 0.5);
    assert!(l.ipc() > 0.0);
}
