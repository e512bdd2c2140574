//! Randomized property tests on the system's core invariants.
//!
//! Formerly proptest-based; now seeded loops over the in-tree
//! `gpushield_runtime::rng` so the default build resolves offline. Every
//! case is derived from a fixed seed, so failures reproduce exactly.

use gpushield_driver::{decrypt_id, encrypt_id, BoundsEntry};
use gpushield_isa::{PtrClass, TaggedPtr};
use gpushield_mem::{
    coalesce_lanes_into, AllocPolicy, VirtualMemorySpace, WarpLanes, TRANSACTION_BYTES,
};
use gpushield_runtime::rng::StdRng;

const CASES: usize = 256;

/// The 14-bit ID cipher is a bijection for every key.
#[test]
fn cipher_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0xC1);
    for _ in 0..CASES {
        let id = rng.gen_range(0u16..(1 << 14));
        let key: u64 = rng.gen();
        let ct = encrypt_id(id, key);
        assert!(ct < (1 << 14));
        assert_eq!(decrypt_id(ct, key), id, "id={id:#x} key={key:#x}");
    }
}

/// Distinct IDs stay distinct after encryption (injectivity spot check).
#[test]
fn cipher_is_injective() {
    let mut rng = StdRng::seed_from_u64(0xC2);
    for _ in 0..CASES {
        let a = rng.gen_range(0u16..(1 << 14));
        let b = rng.gen_range(0u16..(1 << 14));
        if a == b {
            continue;
        }
        let key: u64 = rng.gen();
        assert_ne!(
            encrypt_id(a, key),
            encrypt_id(b, key),
            "a={a} b={b} key={key:#x}"
        );
    }
}

/// Tagged-pointer fields survive a round trip for all inputs.
#[test]
fn tagged_pointer_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0xC3);
    for _ in 0..CASES {
        let va = rng.gen_range(0u64..(1 << 48));
        let id = rng.gen_range(0u16..(1 << 14));
        let p = TaggedPtr::with_region_id(va, id);
        assert_eq!(p.class(), PtrClass::Region);
        assert_eq!(p.va(), va);
        assert_eq!(p.info(), id);
    }
}

/// Pointer arithmetic below the tag bits preserves class and info.
#[test]
fn pointer_arithmetic_preserves_tag() {
    let mut rng = StdRng::seed_from_u64(0xC4);
    for _ in 0..CASES {
        let va = rng.gen_range(0u64..(1u64 << 40));
        let id = rng.gen_range(0u16..(1 << 14));
        let delta = rng.gen_range(0u64..(1u64 << 30));
        let p = TaggedPtr::with_region_id(va, id);
        let q = TaggedPtr::from_raw(p.raw().wrapping_add(delta));
        assert_eq!(q.class(), PtrClass::Region);
        assert_eq!(q.info(), id);
        assert_eq!(q.va(), va + delta);
    }
}

/// Coalescing covers every active lane and produces unique, sorted,
/// aligned transactions.
#[test]
fn coalescer_covers_and_partitions() {
    let mut rng = StdRng::seed_from_u64(0xC5);
    let (mut lanes, mut txs) = (WarpLanes::default(), Vec::new());
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..33);
        let mut mask = 0u64;
        let row: Vec<u64> = (0..n)
            .map(|lane| {
                if rng.gen_bool(0.75) {
                    mask |= 1 << lane;
                }
                rng.gen_range(0u64..(1 << 20))
            })
            .collect();
        let active: Vec<u64> = (0..n)
            .filter(|&lane| mask >> lane & 1 != 0)
            .map(|lane| row[lane])
            .collect();
        let width = [1u64, 2, 4, 8][rng.gen_range(0usize..4)];
        lanes.fill(n, mask, width, |r| r[..n].copy_from_slice(&row));
        coalesce_lanes_into(&lanes, &mut txs);
        // Unique and sorted.
        for w in txs.windows(2) {
            assert!(w[0].base < w[1].base);
        }
        for t in &txs {
            assert_eq!(t.base % TRANSACTION_BYTES, 0);
        }
        // Coverage: every byte of every active access is in some tx, and
        // every tx holds a byte of some active access.
        for &a in &active {
            for byte in a..(a + width) {
                assert!(
                    txs.iter().any(|t| t.contains(byte)),
                    "byte {byte} uncovered"
                );
            }
        }
        for t in &txs {
            assert!(active
                .iter()
                .any(|&a| (a..a + width).any(|b| t.contains(b))));
        }
        // The gathered range is exactly the active lanes' extent.
        let range = active
            .iter()
            .map(|&a| (a, a + width))
            .reduce(|(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
        assert_eq!(lanes.span().range(), range);
    }
}

/// Device allocations never overlap, regardless of the size sequence and
/// policy mix.
#[test]
fn allocations_never_overlap() {
    let mut rng = StdRng::seed_from_u64(0xC6);
    for _ in 0..CASES / 2 {
        let mut vm = VirtualMemorySpace::new();
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for _ in 0..rng.gen_range(1usize..40) {
            let size = rng.gen_range(1u64..10_000);
            let policy = match rng.gen_range(0u8..3) {
                0 => AllocPolicy::Device512,
                1 => AllocPolicy::PowerOfTwo,
                _ => AllocPolicy::Isolated,
            };
            let a = vm.alloc(size, policy).unwrap();
            assert!(a.reserved >= a.size);
            for (lo, hi) in &ranges {
                assert!(
                    a.reserved_end() <= *lo || a.va >= *hi,
                    "overlap: [{}, {}) vs [{}, {})",
                    a.va,
                    a.reserved_end(),
                    lo,
                    hi
                );
            }
            ranges.push((a.va, a.reserved_end()));
        }
    }
}

/// Functional memory is a memory: the last write wins, other bytes are
/// untouched.
#[test]
fn memory_reads_see_last_write() {
    let mut rng = StdRng::seed_from_u64(0xC7);
    for _ in 0..CASES / 2 {
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(8192, AllocPolicy::Device512).unwrap();
        let mut model = std::collections::HashMap::new();
        for _ in 0..rng.gen_range(1usize..50) {
            let off = rng.gen_range(0u64..4000) & !3; // aligned words
            let val: u32 = rng.gen();
            vm.write_uint(a.va + off, 4, u64::from(val)).unwrap();
            model.insert(off, val);
        }
        for (off, val) in model {
            assert_eq!(vm.read_uint(a.va + off, 4).unwrap(), u64::from(val));
        }
    }
}

/// The RBT bounds comparison agrees with a direct range oracle.
#[test]
fn bounds_entry_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC8);
    for _ in 0..CASES {
        let base = rng.gen_range(0u64..(1 << 30));
        let size = rng.gen_range(1u32..(1 << 20));
        let lo = rng.gen_range(0u64..(1 << 31));
        let len = rng.gen_range(1u64..4096);
        let e = BoundsEntry {
            valid: true,
            readonly: false,
            kernel_id: 1,
            base,
            size,
        };
        let hi = lo + len;
        let oracle = lo >= base && hi <= base + u64::from(size);
        assert_eq!(
            e.in_bounds(lo, hi),
            oracle,
            "[{lo}, {hi}) vs base={base} size={size}"
        );
    }
}

/// RBT entries round-trip through their packed encoding.
#[test]
fn rbt_encoding_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0xC9);
    for _ in 0..CASES {
        let e = BoundsEntry {
            valid: rng.gen(),
            readonly: rng.gen(),
            kernel_id: rng.gen_range(0u16..(1 << 12)),
            base: rng.gen_range(0u64..(1 << 48)),
            size: rng.gen(),
        };
        assert_eq!(BoundsEntry::decode(e.encode()), e);
    }
}

/// Interval arithmetic soundness: the abstract result of an operation
/// contains every concrete result of members of the inputs.
mod interval_soundness {
    use gpushield_compiler::Interval;
    use gpushield_runtime::rng::StdRng;

    fn small_interval(rng: &mut StdRng) -> (Interval, Vec<i128>) {
        let lo = i128::from(rng.gen_range(-1000i64..1000));
        let w = i128::from(rng.gen_range(0i64..50));
        let iv = Interval::range(lo, lo + w);
        let samples = vec![lo, lo + w / 2, lo + w];
        (iv, samples)
    }

    #[test]
    fn add_sub_mul_are_sound() {
        let mut rng = StdRng::seed_from_u64(0xD1);
        for _ in 0..super::CASES {
            let (a, xa) = small_interval(&mut rng);
            let (b, xb) = small_interval(&mut rng);
            for &x in &xa {
                for &y in &xb {
                    assert!(a.add(&b).contains(x + y));
                    assert!(a.sub(&b).contains(x - y));
                    assert!(a.mul(&b).contains(x * y));
                    assert!(a.min_(&b).contains(x.min(y)));
                    assert!(a.max_(&b).contains(x.max(y)));
                }
            }
        }
    }

    #[test]
    fn bit_ops_are_sound() {
        let mut rng = StdRng::seed_from_u64(0xD2);
        for _ in 0..super::CASES {
            let (a, xa) = small_interval(&mut rng);
            let mask = i128::from(rng.gen_range(0i64..4096));
            let shift = i128::from(rng.gen_range(0i64..8));
            let m = Interval::constant(mask);
            let s = Interval::constant(shift);
            for &x in &xa {
                assert!(a.and(&m).contains(x & mask));
                if x >= 0 {
                    assert!(a.or_xor(&m).contains(x | mask) || a.lo() < 0);
                    assert!(a.shr(&s).contains(x >> shift) || a.lo() < 0);
                }
                assert!(a.shl(&s).contains(x << shift));
                if mask > 0 {
                    assert!(a.rem(&Interval::constant(mask)).contains(x % mask));
                    assert!(a.div(&Interval::constant(mask)).contains(x / mask));
                }
            }
        }
    }

    #[test]
    fn union_and_widen_grow() {
        let mut rng = StdRng::seed_from_u64(0xD3);
        for _ in 0..super::CASES {
            let (a, xa) = small_interval(&mut rng);
            let (b, xb) = small_interval(&mut rng);
            let u = a.union(&b);
            for &x in xa.iter().chain(&xb) {
                assert!(u.contains(x));
            }
            let w = a.widen(&u);
            for &x in xa.iter().chain(&xb) {
                assert!(w.contains(x));
            }
        }
    }
}
