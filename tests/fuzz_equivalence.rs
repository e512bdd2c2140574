//! Randomized end-to-end properties:
//!
//! 1. **SIMT equivalence** — a parameterised kernel family produces exactly
//!    the host-oracle result for random shapes, with and without GPUShield
//!    (protection is functionally invisible).
//! 2. **Static-analysis soundness** — enabling check elision never changes
//!    which launches are aborted: a Type 1 classification may only remove
//!    checks the access could never fail.
//!
//! Seeded loops on the in-tree RNG (formerly proptest): each case derives
//! from a fixed seed, so failures reproduce exactly.

use gpushield::{Arg, BcuConfig, DriverConfig, GpuConfig, System, SystemConfig};
use gpushield_isa::{Kernel, KernelBuilder, MemSpace, MemWidth, Operand};
use gpushield_runtime::rng::StdRng;
use std::sync::Arc;

fn tiny_cfg(shield: bool, static_analysis: bool) -> SystemConfig {
    SystemConfig {
        gpu: GpuConfig::test_tiny(),
        driver: DriverConfig {
            enable_shield: shield,
            enable_static_analysis: static_analysis,
            ..DriverConfig::default()
        },
        bcu: BcuConfig::default(),
        seed: 7,
    }
}

/// `out[tid] = f(in0[tid], …) if tid < n`, where `f` xors the inputs and
/// applies `alu` rounds of `x*A + B` — mirrored exactly by the host oracle.
fn streaming_like(inputs: usize, alu: usize, mul: i64, add: i64) -> Arc<Kernel> {
    let mut b = KernelBuilder::new("fuzz_stream");
    let ins: Vec<_> = (0..inputs)
        .map(|i| b.param_buffer(&format!("in{i}"), true))
        .collect();
    let out = b.param_buffer("out", false);
    let n = b.param_scalar("n");
    let tid = b.global_thread_id();
    let guard = b.lt(tid, n);
    b.if_then(guard, |b| {
        let off = b.shl(tid, Operand::Imm(2));
        let mut acc = b.mov(Operand::Imm(0));
        for p in &ins {
            let x = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(*p, off));
            acc = b.xor(acc, x);
        }
        for _ in 0..alu {
            let t = b.mul(acc, Operand::Imm(mul));
            acc = b.add(t, Operand::Imm(add));
        }
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), acc);
    });
    b.ret();
    Arc::new(b.finish().expect("valid kernel"))
}

fn host_oracle(rows: &[Vec<u32>], alu: usize, mul: i64, add: i64, i: usize) -> u32 {
    let mut acc: u64 = 0;
    for r in rows {
        acc ^= u64::from(r[i]);
    }
    for _ in 0..alu {
        acc = acc.wrapping_mul(mul as u64).wrapping_add(add as u64);
    }
    acc as u32
}

#[test]
fn simt_matches_host_oracle_protected_and_not() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    for case in 0..8 {
        let inputs = rng.gen_range(1usize..4);
        let alu = rng.gen_range(0usize..6);
        let mul = rng.gen_range(3i64..99);
        let add = rng.gen_range(0i64..1000);
        let n = rng.gen_range(17u64..200);
        let rows: Vec<Vec<u32>> = (0..inputs)
            .map(|_| (0..n).map(|_| rng.gen()).collect())
            .collect();
        let kernel = streaming_like(inputs, alu, mul, add);
        // The last workgroup is partial unless n is a multiple of 16.
        let grid = (n as u32).div_ceil(16);

        for shield in [false, true] {
            let mut sys = System::new(tiny_cfg(shield, true));
            let mut args = Vec::new();
            for r in &rows {
                let h = sys.alloc(n * 4).unwrap();
                for (i, v) in r.iter().enumerate() {
                    sys.write_buffer(h, i as u64 * 4, &v.to_le_bytes());
                }
                args.push(Arg::Buffer(h));
            }
            let out = sys.alloc(n * 4).unwrap();
            args.push(Arg::Buffer(out));
            args.push(Arg::Scalar(n));
            let r = sys.launch(kernel.clone(), grid, 16, &args).unwrap();
            assert!(
                r.completed(),
                "benign kernel aborted (case {case}, shield={shield})"
            );
            for i in 0..n as usize {
                let got = sys.read_uint(out, i as u64 * 4, 4) as u32;
                assert_eq!(
                    got,
                    host_oracle(&rows, alu, mul, add, i),
                    "case {case}, element {i} (shield={shield})"
                );
            }
        }
    }
}

/// `out[tid * stride] = tid` with random buffer sizing: sometimes safe,
/// sometimes overflowing. Static analysis must agree with the all-runtime
/// configuration about which launches abort.
#[test]
fn static_elision_never_changes_abort_behaviour() {
    let mut rng = StdRng::seed_from_u64(0xE2);
    for _ in 0..32 {
        let stride = rng.gen_range(1i64..8);
        let elems = rng.gen_range(8u64..256);
        let threads_pow = rng.gen_range(1u32..4);

        let mut b = KernelBuilder::new("fuzz_static");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let idx = b.mul(tid, Operand::Imm(stride));
        let off = b.shl(idx, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        let kernel = Arc::new(b.finish().unwrap());
        let grid = 1u32 << threads_pow; // 16 × grid threads

        let run = |static_on: bool| -> bool {
            let mut sys = System::new(tiny_cfg(true, static_on));
            let buf = sys.alloc(elems * 4).unwrap();
            let r = sys
                .launch(kernel.clone(), grid, 16, &[Arg::Buffer(buf)])
                .unwrap();
            r.completed()
        };
        let with_static = run(true);
        let without_static = run(false);
        assert_eq!(
            with_static, without_static,
            "static analysis changed detection (stride={stride}, elems={elems}, grid={grid})"
        );
        // Cross-check against ground truth: the launch is safe iff the
        // largest touched element fits.
        let max_index = (u64::from(grid) * 16 - 1) * stride as u64;
        assert_eq!(without_static, max_index < elems, "runtime check oracle");
    }
}
