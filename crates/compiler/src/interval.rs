//! Interval domain for the static bounds analysis.
//!
//! Values are modelled as mathematical integers in `i128` with clamped
//! "infinite" bounds, so 64-bit kernel arithmetic never overflows the
//! abstract domain. All operations are *sound over-approximations*: the
//! concrete result of an operation on members of the input intervals is
//! always contained in the output interval.

use std::fmt;

/// Lower clamp standing in for −∞.
pub const NEG_INF: i128 = i128::MIN >> 2;
/// Upper clamp standing in for +∞.
pub const POS_INF: i128 = i128::MAX >> 2;

/// A closed integer interval `[lo, hi]`.
///
/// # Example
///
/// ```
/// use gpushield_compiler::Interval;
///
/// // tid in [0, 255], elements of 4 bytes: offsets in [0, 1020].
/// let tid = Interval::range(0, 255);
/// let off = tid.mul(&Interval::constant(4));
/// assert!(off.within(0, 1020));
/// assert!(!off.within(0, 1019));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    lo: i128,
    hi: i128,
}

fn clamp(v: i128) -> i128 {
    v.clamp(NEG_INF, POS_INF)
}

impl Interval {
    /// The full (unknown) interval.
    pub fn full() -> Self {
        Interval {
            lo: NEG_INF,
            hi: POS_INF,
        }
    }

    /// The singleton interval `[v, v]`.
    pub fn constant(v: i128) -> Self {
        let v = clamp(v);
        Interval { lo: v, hi: v }
    }

    /// The interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(lo: i128, hi: i128) -> Self {
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Interval {
            lo: clamp(lo),
            hi: clamp(hi),
        }
    }

    /// Lower bound.
    pub fn lo(&self) -> i128 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> i128 {
        self.hi
    }

    /// True when this is the full interval.
    pub fn is_full(&self) -> bool {
        self.lo <= NEG_INF && self.hi >= POS_INF
    }

    /// True when `v` lies in the interval.
    pub fn contains(&self, v: i128) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// True when the whole interval lies in `[lo, hi]`.
    pub fn within(&self, lo: i128, hi: i128) -> bool {
        lo <= self.lo && self.hi <= hi
    }

    /// Convex hull of two intervals (the join of the lattice).
    pub fn union(&self, o: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Intersection; `None` when disjoint.
    pub fn intersect(&self, o: &Interval) -> Option<Interval> {
        let lo = self.lo.max(o.lo);
        let hi = self.hi.min(o.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Standard widening: bounds that grew jump to ±∞ so fixpoints are
    /// reached in finitely many steps.
    pub fn widen(&self, newer: &Interval) -> Interval {
        Interval {
            lo: if newer.lo < self.lo { NEG_INF } else { self.lo },
            hi: if newer.hi > self.hi { POS_INF } else { self.hi },
        }
    }

    /// `self + o`.
    pub fn add(&self, o: &Interval) -> Interval {
        Interval {
            lo: clamp(self.lo.saturating_add(o.lo)),
            hi: clamp(self.hi.saturating_add(o.hi)),
        }
    }

    /// `self - o`.
    pub fn sub(&self, o: &Interval) -> Interval {
        Interval {
            lo: clamp(self.lo.saturating_sub(o.hi)),
            hi: clamp(self.hi.saturating_sub(o.lo)),
        }
    }

    /// `self * o`.
    pub fn mul(&self, o: &Interval) -> Interval {
        let narrow = |v: i128| i64::try_from(v).ok();
        let cands = match (narrow(self.lo), narrow(self.hi), narrow(o.lo), narrow(o.hi)) {
            // Products of i64 factors have magnitude at most 2^126, so
            // the widening product is exact and cannot saturate.
            (Some(a), Some(b), Some(c), Some(d)) => {
                let wide = |x: i64, y: i64| i128::from(x) * i128::from(y);
                [wide(a, c), wide(a, d), wide(b, c), wide(b, d)]
            }
            _ => [
                self.lo.saturating_mul(o.lo),
                self.lo.saturating_mul(o.hi),
                self.hi.saturating_mul(o.lo),
                self.hi.saturating_mul(o.hi),
            ],
        };
        let [p, q, r, t] = cands;
        Interval {
            lo: clamp(p.min(q).min(r.min(t))),
            hi: clamp(p.max(q).max(r.max(t))),
        }
    }

    /// Signed division (sound superset; exact for constant positive
    /// divisors).
    pub fn div(&self, o: &Interval) -> Interval {
        if o.lo == o.hi && o.lo > 0 {
            Interval {
                lo: self.lo.div_euclid(o.lo).min(self.lo / o.lo),
                hi: self.hi.div_euclid(o.lo).max(self.hi / o.lo),
            }
        } else {
            Interval::full()
        }
    }

    /// Signed remainder (sound superset; tight for constant positive
    /// divisors).
    pub fn rem(&self, o: &Interval) -> Interval {
        if o.lo == o.hi && o.lo > 0 {
            let n = o.lo;
            if self.lo >= 0 {
                // Result in [0, n-1]; keep tighter bound for small ranges.
                if self.hi < n {
                    *self
                } else {
                    Interval::range(0, n - 1)
                }
            } else {
                Interval::range(-(n - 1), n - 1)
            }
        } else {
            Interval::full()
        }
    }

    /// Bitwise and.
    pub fn and(&self, o: &Interval) -> Interval {
        // x & c with constant c ≥ 0 keeps only c's bits: result ∈ [0, c].
        if o.lo == o.hi && o.lo >= 0 {
            return Interval::range(0, o.lo);
        }
        if self.lo == self.hi && self.lo >= 0 {
            return Interval::range(0, self.lo);
        }
        if self.lo >= 0 && o.lo >= 0 {
            return Interval::range(0, self.hi.min(o.hi));
        }
        Interval::full()
    }

    /// Bitwise or / xor share the same sound bound for non-negative inputs.
    pub fn or_xor(&self, o: &Interval) -> Interval {
        if self.lo >= 0 && o.lo >= 0 {
            let m = self.hi.max(o.hi);
            // Smallest all-ones value ≥ m bounds both OR and XOR.
            let bound = if m <= 0 {
                0
            } else {
                (1i128 << (128 - (m as u128).leading_zeros())) - 1
            };
            Interval::range(0, clamp(bound))
        } else {
            Interval::full()
        }
    }

    /// Left shift by a constant amount.
    pub fn shl(&self, o: &Interval) -> Interval {
        if o.lo == o.hi && (0..=63).contains(&o.lo) {
            let k = o.lo as u32;
            let lo = self.lo.checked_shl(k);
            let hi = self.hi.checked_shl(k);
            match (lo, hi) {
                (Some(l), Some(h)) if (l >> k) == self.lo && (h >> k) == self.hi && l <= h => {
                    Interval::range(clamp(l), clamp(h))
                }
                _ => Interval::full(),
            }
        } else {
            Interval::full()
        }
    }

    /// Logical right shift by a constant amount (non-negative ranges only;
    /// logical and arithmetic shifts agree there).
    pub fn shr(&self, o: &Interval) -> Interval {
        if o.lo == o.hi && (0..=63).contains(&o.lo) && self.lo >= 0 {
            Interval::range(self.lo >> o.lo, self.hi >> o.lo)
        } else {
            Interval::full()
        }
    }

    /// Signed minimum.
    pub fn min_(&self, o: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.min(o.hi),
        }
    }

    /// Signed maximum.
    pub fn max_(&self, o: &Interval) -> Interval {
        Interval {
            lo: self.lo.max(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Negation.
    pub fn neg(&self) -> Interval {
        Interval {
            lo: clamp(-self.hi),
            hi: clamp(-self.lo),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Interval {
        if self.lo >= 0 {
            *self
        } else if self.hi <= 0 {
            self.neg()
        } else {
            Interval::range(0, self.hi.max(-self.lo))
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |v: i128| -> String {
            if v <= NEG_INF {
                "-inf".into()
            } else if v >= POS_INF {
                "+inf".into()
            } else {
                v.to_string()
            }
        };
        write!(f, "[{}, {}]", show(self.lo), show(self.hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_soundness_spot_checks() {
        let a = Interval::range(2, 5);
        let b = Interval::range(-3, 4);
        assert_eq!(a.add(&b), Interval::range(-1, 9));
        assert_eq!(a.sub(&b), Interval::range(-2, 8));
        assert_eq!(a.mul(&b), Interval::range(-15, 20));
    }

    /// `mul` on every pair drawn from the i64 edges, the infinity clamps
    /// and seeded random bounds equals the all-saturating product it
    /// replaced.
    #[test]
    fn mul_matches_the_saturating_product() {
        fn saturating(a: &Interval, o: &Interval) -> Interval {
            let cands = [
                a.lo.saturating_mul(o.lo),
                a.lo.saturating_mul(o.hi),
                a.hi.saturating_mul(o.lo),
                a.hi.saturating_mul(o.hi),
            ];
            Interval {
                lo: clamp(*cands.iter().min().expect("four candidates")),
                hi: clamp(*cands.iter().max().expect("four candidates")),
            }
        }
        let (min, max) = (i128::from(i64::MIN), i128::from(i64::MAX));
        let mut values = vec![
            NEG_INF,
            NEG_INF + 1,
            min - 1,
            min,
            min + 1,
            -1,
            0,
            1,
            max - 1,
            max,
            max + 1,
            POS_INF - 1,
            POS_INF,
        ];
        let mut state = 0x1_2E57_u64;
        for _ in 0..60 {
            // SplitMix64, spread over small, i64-wide and i128-wide bounds.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let z = z ^ (z >> 31);
            let v = match z % 3 {
                0 => i128::from(z as i16),
                1 => i128::from(z as i64),
                _ => clamp(i128::from(z as i64) << (z % 64)),
            };
            values.push(v);
        }
        let intervals: Vec<Interval> = values
            .iter()
            .flat_map(|&a| {
                values
                    .iter()
                    .map(move |&b| Interval::range(a.min(b), a.max(b)))
            })
            .step_by(7)
            .collect();
        for a in &intervals {
            for b in intervals.iter().step_by(5) {
                assert_eq!(a.mul(b), saturating(a, b), "{a:?} * {b:?}");
            }
        }
    }

    #[test]
    fn shifts_on_constants() {
        let a = Interval::range(0, 31);
        assert_eq!(a.shl(&Interval::constant(2)), Interval::range(0, 124));
        assert_eq!(a.shr(&Interval::constant(2)), Interval::range(0, 7));
        assert!(a.shl(&Interval::range(0, 2)).is_full());
    }

    #[test]
    fn rem_by_positive_constant() {
        let a = Interval::range(0, 1000);
        assert_eq!(a.rem(&Interval::constant(32)), Interval::range(0, 31));
        let small = Interval::range(0, 5);
        assert_eq!(small.rem(&Interval::constant(32)), small);
        let neg = Interval::range(-10, 10);
        assert_eq!(neg.rem(&Interval::constant(4)), Interval::range(-3, 3));
    }

    #[test]
    fn and_masks() {
        let a = Interval::full();
        assert_eq!(a.and(&Interval::constant(0xff)), Interval::range(0, 255));
    }

    #[test]
    fn or_xor_bound_is_all_ones() {
        let a = Interval::range(0, 5);
        let b = Interval::range(0, 9);
        let r = a.or_xor(&b);
        assert_eq!(r, Interval::range(0, 15));
    }

    #[test]
    fn widening_stabilizes() {
        let old = Interval::range(0, 10);
        let grown = Interval::range(0, 11);
        let w = old.widen(&grown);
        assert_eq!(w.lo(), 0);
        assert!(w.hi() >= POS_INF);
        // Widening an already-widened interval is a no-op.
        assert_eq!(w.widen(&Interval::range(0, 1 << 40)), w);
    }

    #[test]
    fn union_and_intersect() {
        let a = Interval::range(0, 4);
        let b = Interval::range(10, 12);
        assert_eq!(a.union(&b), Interval::range(0, 12));
        assert!(a.intersect(&b).is_none());
        assert_eq!(
            a.intersect(&Interval::range(3, 7)),
            Some(Interval::range(3, 4))
        );
    }

    #[test]
    fn display_infinities() {
        assert_eq!(Interval::full().to_string(), "[-inf, +inf]");
        assert_eq!(Interval::constant(3).to_string(), "[3, 3]");
    }

    #[test]
    fn abs_and_neg() {
        let a = Interval::range(-5, 3);
        assert_eq!(a.neg(), Interval::range(-3, 5));
        assert_eq!(a.abs(), Interval::range(0, 5));
    }

    #[test]
    fn widening_chain_reaches_fixpoint_past_widen_after() {
        // Simulates the analyser's loop handling: after WIDEN_AFTER visits
        // it widens every further growth, so any monotone chain of updates
        // stabilises in at most two widening steps per side.
        let mut cur = Interval::range(0, 0);
        let mut steps = 0;
        loop {
            let grown = cur.add(&Interval::constant(1));
            let next = cur.widen(&grown);
            steps += 1;
            if next == cur {
                break;
            }
            cur = next;
            assert!(steps < 4, "widening failed to converge");
        }
        assert!(cur.hi() >= POS_INF);
        assert_eq!(cur.lo(), 0);
        // A two-sided growing chain also converges immediately.
        let full = Interval::range(0, 0).widen(&Interval::range(-1, 1));
        assert!(full.is_full());
        assert_eq!(full.widen(&Interval::full()), full);
    }

    #[test]
    fn empty_meets() {
        // Disjoint, adjacent, and barely-touching intersections.
        let a = Interval::range(0, 9);
        assert!(a.intersect(&Interval::range(10, 20)).is_none());
        assert!(Interval::constant(5)
            .intersect(&Interval::constant(6))
            .is_none());
        // Touching at a single point is a singleton, not empty.
        assert_eq!(
            a.intersect(&Interval::range(9, 20)),
            Some(Interval::constant(9))
        );
        // Meets against the full interval are identity.
        assert_eq!(a.intersect(&Interval::full()), Some(a));
        // An empty meet of refined branch facts, e.g. x < 0 ∧ x ∈ [0, 9].
        assert!(a.intersect(&Interval::range(NEG_INF, -1)).is_none());
    }

    #[test]
    fn u64_boundary_arithmetic_does_not_overflow() {
        // The analyser models 64-bit kernel values in i128; every bound a
        // kernel can produce must survive arithmetic without a debug-mode
        // overflow panic (clamped to the ±inf sentinels instead).
        let umax = Interval::constant(u64::MAX as i128);
        let r = umax.add(&umax);
        assert!(r.contains(2 * u64::MAX as i128));
        let sq = umax.mul(&umax);
        assert_eq!(sq.hi(), POS_INF);
        assert!(!umax.sub(&umax.neg()).is_full() || umax.sub(&umax.neg()).hi() >= POS_INF);

        // Full-interval (±inf sentinel) arithmetic saturates, never panics.
        let f = Interval::full();
        assert!(f.add(&f).is_full());
        assert!(f.sub(&f).is_full());
        assert!(f.mul(&f).is_full());
        // Negating the sentinels clamps (−POS_INF is one above NEG_INF):
        // still a superset of every representable 64-bit value, no panic.
        let nf = f.neg();
        assert!(nf.lo() <= NEG_INF + 1 && nf.hi() >= POS_INF);

        // Shifting a u64-sized value left by 63 overflows 64 bits but not
        // the i128 domain; the result is exact.
        let one = Interval::constant(1);
        let shifted = one.shl(&Interval::constant(63));
        assert_eq!(shifted, Interval::constant(1i128 << 63));
        // Shifting the sentinel loses exactness and falls back to full.
        assert!(Interval::full().shl(&Interval::constant(1)).is_full());
        // Right shift of a u64::MAX-sized value stays exact.
        assert_eq!(
            umax.shr(&Interval::constant(32)),
            Interval::range(u64::MAX as i128 >> 32, u64::MAX as i128 >> 32)
        );

        // or/xor near the top of the u64 range stays sound and finite.
        let big = Interval::range(0, (u64::MAX - 1) as i128);
        let bound = big.or_xor(&big);
        assert!(bound.hi() >= big.hi());
    }

    #[test]
    fn widen_at_the_u64_boundary() {
        let umax = u64::MAX as i128;
        let near = Interval::range(umax - 1, umax);
        // A stable interval never widens against itself.
        assert_eq!(near.widen(&near), near);
        // Growth past u64::MAX blasts the grown side to the sentinel in
        // one step (no creeping through the 2^64..2^126 gap)…
        let w = near.widen(&Interval::range(umax - 1, umax + 1));
        assert_eq!(w.lo(), umax - 1);
        assert!(w.hi() >= POS_INF);
        // …and is then stable for arbitrarily larger updates.
        assert_eq!(w.widen(&Interval::range(umax - 1, POS_INF)), w);
        // Downward growth at the negated boundary widens lo, keeps hi.
        let neg = Interval::range(-umax, 0);
        let wn = neg.widen(&Interval::range(-umax - 1, 0));
        assert!(wn.lo() <= NEG_INF);
        assert_eq!(wn.hi(), 0);
    }

    #[test]
    fn meet_and_union_at_the_u64_boundary() {
        let umax = u64::MAX as i128;
        // Meets touching exactly at u64::MAX keep the exact singleton.
        assert_eq!(
            Interval::range(0, umax).intersect(&Interval::range(umax, POS_INF)),
            Some(Interval::constant(umax))
        );
        // One-past-the-end guard facts produce an empty meet, not a wrap.
        assert!(Interval::range(umax + 1, POS_INF)
            .intersect(&Interval::range(0, umax))
            .is_none());
        // Unions spanning the full u64 range stay exact (no sentinel).
        let u = Interval::range(0, 1).union(&Interval::constant(umax));
        assert_eq!(u, Interval::range(0, umax));
        assert!(u.hi() < POS_INF);
        // Boundary arithmetic feeding a meet: (umax + 1) − 1 meets back
        // down to a representable singleton.
        let bumped = Interval::constant(umax).add(&Interval::constant(1));
        let back = bumped.sub(&Interval::constant(1));
        assert_eq!(
            back.intersect(&Interval::range(0, umax)),
            Some(Interval::constant(umax))
        );
    }
}
