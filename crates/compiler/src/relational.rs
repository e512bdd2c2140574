//! Relational bounds domain with proof-carrying certificates (§5.3
//! upgraded): a reduced product of three components evaluated under the
//! *compile-time* view of a launch ([`LaunchKnowledge::value_less`]):
//!
//! 1. **Affine forms** `t·tid + b·ctaid + c` ([`crate::affine::Aff`]) so
//!    per-thread windows keep their shape through arithmetic instead of
//!    collapsing to one grid-wide interval.
//! 2. **Congruences** `x ≡ r (mod m)` ([`Cong`]) for alignment and
//!    stride facts — a site whose offset is provably `0 (mod 8)` cannot
//!    straddle an 8-byte boundary, and a congruence tightens the maximal
//!    reachable offset below a symbolic bound.
//! 3. **Symbolic linear bounds** ([`LinExpr`], sums `Σ kᵢ·argᵢ + k`)
//!    derived from guards: `if (i < n)` caps `i` at `n − 1` even though
//!    `n`'s value is unknown at compile time, and the cap flows through
//!    `+`, `−`, `·const`, `shl`, `min` — which is exactly what counted
//!    loops and grid-stride loops need after widening blasts their
//!    induction variable to `⊤`.
//!
//! [`prove_sites`] runs the product fixpoint and emits one [`SiteProof`]
//! per provable memory site: the proven per-site offset window (concrete
//! and/or symbolic), its side-conditions and the congruence fact. The
//! driver later *discharges* a certificate against the concrete argument
//! values of a real launch ([`discharge`]): the symbolic window is
//! evaluated, tightened by the congruence, and checked against the
//! region's actual size — only then is the site's runtime check elided.
//! The BAT soundness auditor closes the loop at runtime by comparing
//! every discharged window against the observed per-site address range.

use crate::absval::Origin;
use crate::affine::{aff_bin, aff_un, negate, swap, Aff};
use crate::analysis::{origin_size, protected_site_width, ArgInfo, LaunchKnowledge};
use crate::interval::{Interval, NEG_INF, POS_INF};
use gpushield_isa::{
    AddrExpr, BinOp, BlockId, CmpOp, Instr, Kernel, Operand, ParamKind, Special, VReg,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

// ---------------------------------------------------------------------------
// Symbolic linear expressions over unknown scalar arguments.

/// Fit discipline for symbolic expressions: monomial counts and
/// coefficient magnitudes are capped at construction time, and
/// [`discharge`] additionally requires every evaluated quantity to lie
/// within ±2⁶² — together this keeps accepted windows far away from the
/// wrap-around behaviour of the 64-bit ISA arithmetic.
const MAX_MONOMIALS: usize = 8;
const MAX_COEFF: i128 = 1 << 32;
const MAX_K: i128 = 1 << 44;
const FIT_BOUND: i128 = 1 << 62;

/// Merges two sorted `(key, coefficient)` monomial lists, dropping
/// zero-coefficient entries; `None` on coefficient overflow.
fn merge_monomials<K: Ord + Copy>(a: &[(K, i128)], b: &[(K, i128)]) -> Option<Vec<(K, i128)>> {
    let mut out: Vec<(K, i128)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let (p, c) = match (a.get(i), b.get(j)) {
            (Some(&(pa, ca)), Some(&(pb, cb))) if pa == pb => {
                i += 1;
                j += 1;
                (pa, ca.checked_add(cb)?)
            }
            (Some(&(pa, ca)), Some(&(pb, _))) if pa < pb => {
                i += 1;
                (pa, ca)
            }
            (Some(_), Some(&(pb, cb))) => {
                j += 1;
                (pb, cb)
            }
            (Some(&(pa, ca)), None) => {
                i += 1;
                (pa, ca)
            }
            (None, Some(&(pb, cb))) => {
                j += 1;
                (pb, cb)
            }
            (None, None) => unreachable!("loop condition"),
        };
        if c != 0 {
            out.push((p, c));
        }
    }
    Some(out)
}

/// A polynomial `k + Σ kᵢ·arg(i) + Σ kᵢⱼ·arg(i)·arg(j)` of degree ≤ 2
/// over the kernel's *unknown scalar* arguments, used for guard-derived
/// symbolic bounds (the quadratic monomials cover `tid < n·n`-style
/// guards of flattened 2-D kernels).
///
/// Buffer sizes, grid geometry, and known scalars are folded into the
/// constant term at construction time; only genuinely launch-varying
/// scalars appear as monomials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinExpr {
    /// Constant term.
    pub k: i128,
    /// Linear `(argument index, coefficient)` pairs, sorted, no zeros.
    pub terms: Vec<(u8, i128)>,
    /// Quadratic `((i, j), coefficient)` monomials `arg(i)·arg(j)` with
    /// `i ≤ j`, sorted, no zeros.
    pub quad: Vec<((u8, u8), i128)>,
}

impl LinExpr {
    /// The constant expression `k`.
    pub fn constant(k: i128) -> Self {
        LinExpr {
            k,
            terms: vec![],
            quad: vec![],
        }
    }

    /// The expression `arg(p)`.
    pub fn arg(p: u8) -> Self {
        LinExpr {
            k: 0,
            terms: vec![(p, 1)],
            quad: vec![],
        }
    }

    /// `Some(k)` when the expression is the constant `k`.
    pub fn as_const(&self) -> Option<i128> {
        (self.terms.is_empty() && self.quad.is_empty()).then_some(self.k)
    }

    /// Enforces the fit discipline on a freshly built expression.
    fn bounded(self) -> Option<LinExpr> {
        let small = self.terms.len() + self.quad.len() <= MAX_MONOMIALS
            && self.k.abs() <= MAX_K
            && self.terms.iter().all(|&(_, c)| c.abs() <= MAX_COEFF)
            && self.quad.iter().all(|&(_, c)| c.abs() <= MAX_COEFF);
        small.then_some(self)
    }

    /// `self + o`; `None` on overflow or a fit-discipline breach.
    pub fn add(&self, o: &LinExpr) -> Option<LinExpr> {
        LinExpr {
            k: self.k.checked_add(o.k)?,
            terms: merge_monomials(&self.terms, &o.terms)?,
            quad: merge_monomials(&self.quad, &o.quad)?,
        }
        .bounded()
    }

    /// `self + k`; `None` on overflow.
    pub fn add_const(&self, k: i128) -> Option<LinExpr> {
        LinExpr {
            k: self.k.checked_add(k)?,
            terms: self.terms.clone(),
            quad: self.quad.clone(),
        }
        .bounded()
    }

    /// `self − o`; `None` on overflow or a fit-discipline breach.
    pub fn sub(&self, o: &LinExpr) -> Option<LinExpr> {
        self.add(&o.mul_const(-1)?)
    }

    /// `self · k`; `None` on overflow.
    pub fn mul_const(&self, k: i128) -> Option<LinExpr> {
        if k == 0 {
            return Some(LinExpr::constant(0));
        }
        let mut terms = Vec::with_capacity(self.terms.len());
        for &(p, c) in &self.terms {
            terms.push((p, c.checked_mul(k)?));
        }
        let mut quad = Vec::with_capacity(self.quad.len());
        for &(pq, c) in &self.quad {
            quad.push((pq, c.checked_mul(k)?));
        }
        LinExpr {
            k: self.k.checked_mul(k)?,
            terms,
            quad,
        }
        .bounded()
    }

    /// `self · o` as a polynomial product; `None` when the result would
    /// exceed degree 2 (either factor already quadratic and the other
    /// non-constant) or breach the fit discipline.
    pub fn mul(&self, o: &LinExpr) -> Option<LinExpr> {
        if let Some(k) = o.as_const() {
            return self.mul_const(k);
        }
        if let Some(k) = self.as_const() {
            return o.mul_const(k);
        }
        if !self.quad.is_empty() || !o.quad.is_empty() {
            return None; // degree would exceed 2
        }
        let mut acc = LinExpr::constant(self.k.checked_mul(o.k)?);
        for &(p, c) in &o.terms {
            let t = LinExpr {
                k: 0,
                terms: vec![(p, c.checked_mul(self.k)?)],
                quad: vec![],
            };
            acc = acc.add(&t)?;
        }
        for &(p, c) in &self.terms {
            let t = LinExpr {
                k: 0,
                terms: vec![(p, c.checked_mul(o.k)?)],
                quad: vec![],
            };
            acc = acc.add(&t)?;
        }
        for &(p, cp) in &self.terms {
            for &(q, cq) in &o.terms {
                let key = if p <= q { (p, q) } else { (q, p) };
                let t = LinExpr {
                    k: 0,
                    terms: vec![],
                    quad: vec![(key, cp.checked_mul(cq)?)],
                };
                acc = acc.add(&t)?;
            }
        }
        Some(acc)
    }

    /// Evaluates against concrete launch knowledge; `None` when a
    /// monomial's argument has no known value or the arithmetic
    /// overflows.
    pub fn eval(&self, know: &LaunchKnowledge) -> Option<i128> {
        let val = |p: u8| match know.args.get(usize::from(p)) {
            Some(ArgInfo::Scalar { value: Some(v) }) => Some(i128::from(*v)),
            _ => None,
        };
        let mut acc = self.k;
        for &(p, c) in &self.terms {
            acc = acc.checked_add(c.checked_mul(val(p)?)?)?;
        }
        for &((p, q), c) in &self.quad {
            acc = acc.checked_add(c.checked_mul(val(p)?)?.checked_mul(val(q)?)?)?;
        }
        Some(acc)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &((p, q), c) in &self.quad {
            if !first {
                f.write_str(" + ")?;
            }
            first = false;
            if c == 1 {
                write!(f, "arg{p}*arg{q}")?;
            } else {
                write!(f, "{c}*arg{p}*arg{q}")?;
            }
        }
        for &(p, c) in &self.terms {
            if !first {
                f.write_str(" + ")?;
            }
            first = false;
            if c == 1 {
                write!(f, "arg{p}")?;
            } else {
                write!(f, "{c}*arg{p}")?;
            }
        }
        if self.k != 0 || first {
            if !first {
                f.write_str(" + ")?;
            }
            write!(f, "{}", self.k)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Congruence (stride/alignment) component.

/// Congruence modulus ceiling: facts coarser than this collapse to ⊤,
/// which sidesteps overflow in modulus products (alignment facts that
/// matter here are tiny powers of two).
const CONG_MAX_M: i128 = 1 << 20;

/// The congruence `x ≡ r (mod m)`: `m > 1` is a real stride fact,
/// `m == 0` means exactly the constant `r`, and `m == 1` is ⊤.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cong {
    /// Modulus (`0` = constant, `1` = unconstrained).
    pub m: i128,
    /// Residue; normalized to `0 ≤ r < m` when `m > 1`.
    pub r: i128,
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Cong {
    /// The unconstrained congruence (⊤).
    pub fn top() -> Self {
        Cong { m: 1, r: 0 }
    }

    /// Exactly the constant `v`.
    pub fn constant(v: i128) -> Self {
        Cong { m: 0, r: v }
    }

    /// True for ⊤.
    pub fn is_top(&self) -> bool {
        self.m == 1
    }

    fn norm(m: i128, r: i128) -> Cong {
        if m == 0 {
            return Cong { m: 0, r };
        }
        if m == 1 || m > CONG_MAX_M {
            return Cong::top();
        }
        Cong {
            m,
            r: r.rem_euclid(m),
        }
    }

    /// Lattice join. Chains are finite (each join moves the modulus to a
    /// divisor of the previous one), so no widening operator is needed.
    pub fn join(&self, o: &Cong) -> Cong {
        if self.m == 0 && o.m == 0 && self.r == o.r {
            return *self;
        }
        let g = gcd(gcd(self.m, o.m), self.r - o.r);
        if g == 0 {
            *self // both constants, equal residues
        } else {
            Cong::norm(g, self.r)
        }
    }

    /// `self + o`.
    pub fn add(&self, o: &Cong) -> Cong {
        if self.m == 0 && o.m == 0 {
            return match self.r.checked_add(o.r) {
                Some(v) => Cong::constant(v),
                None => Cong::top(),
            };
        }
        let g = if self.m == 0 || o.m == 0 {
            self.m.max(o.m)
        } else {
            gcd(self.m, o.m)
        };
        Cong::norm(g, self.r.wrapping_add(o.r))
    }

    /// `self - o`.
    pub fn sub(&self, o: &Cong) -> Cong {
        self.add(&Cong {
            m: o.m,
            r: match o.r.checked_neg() {
                Some(v) => v,
                None => return Cong::top(),
            },
        })
    }

    /// `self · o`.
    pub fn mul(&self, o: &Cong) -> Cong {
        if self.m == 0 && o.m == 0 {
            return match self.r.checked_mul(o.r) {
                Some(v) => Cong::constant(v),
                None => Cong::top(),
            };
        }
        // kx ≡ kr (mod |k|m) for a constant factor k.
        let by_const = |k: i128, c: &Cong| -> Cong {
            if k == 0 {
                return Cong::constant(0);
            }
            match (c.m.checked_mul(k.abs()), c.r.checked_mul(k)) {
                (Some(m), Some(r)) => Cong::norm(m, r),
                _ => Cong::top(),
            }
        };
        if self.m == 0 {
            return by_const(self.r, o);
        }
        if o.m == 0 {
            return by_const(o.r, self);
        }
        // x = am + r, y = bm' + r': xy ≡ rr' (mod gcd(mm', mr', m'r)).
        match (
            self.m.checked_mul(o.m),
            self.m.checked_mul(o.r),
            o.m.checked_mul(self.r),
            self.r.checked_mul(o.r),
        ) {
            (Some(mm), Some(mr), Some(mr2), Some(rr)) => Cong::norm(gcd(gcd(mm, mr), mr2), rr),
            _ => Cong::top(),
        }
    }

    /// Largest value `≤ hi` consistent with the congruence (tightens a
    /// window's upper bound). Identity for ⊤ and constants.
    pub fn tighten_hi(&self, hi: i128) -> i128 {
        if self.m > 1 {
            hi - (hi - self.r).rem_euclid(self.m)
        } else {
            hi
        }
    }
}

impl fmt::Display for Cong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.m {
            0 => write!(f, "= {}", self.r),
            1 => f.write_str("(mod 1)"),
            _ => write!(f, "≡ {} (mod {})", self.r, self.m),
        }
    }
}

// ---------------------------------------------------------------------------
// The product value and state.

/// How many side-conditions one window may accumulate before it is
/// dropped (discharge cost and join-precision both degrade past this).
const MAX_CONDS: usize = 6;

/// Deduplicating union of two side-condition sets; `None` when the
/// result would exceed [`MAX_CONDS`].
fn merge_conds(a: &[LinExpr], b: &[LinExpr]) -> Option<Vec<LinExpr>> {
    let mut out = a.to_vec();
    for c in b {
        if !out.contains(c) {
            out.push(c.clone());
        }
    }
    (out.len() <= MAX_CONDS).then_some(out)
}

/// A conditionally-valid symbolic window on a value: *if* every
/// expression in `conds` evaluates ≥ 0 under the launch's concrete
/// scalar arguments, the value lies in `[lo, hi]` (each bound optional,
/// inclusive). Guard-derived facts carry no conditions; rule-derived
/// facts (e.g. multiplying a window by a symbolic factor, which is only
/// monotone when that factor is non-negative) record what must be
/// re-checked at discharge time.
#[derive(Debug, Clone, PartialEq, Default)]
struct SymWin {
    lo: Option<LinExpr>,
    hi: Option<LinExpr>,
    conds: Vec<LinExpr>,
}

impl SymWin {
    fn is_empty(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }
}

/// One register's abstract numeric value in the product domain.
#[derive(Debug, Clone, PartialEq)]
struct RelVal {
    /// Affine form with interval coefficients.
    aff: Aff,
    /// Congruence of the value.
    cong: Cong,
    /// Exact symbolic value, when the value *is* a polynomial of
    /// unknown scalar args (e.g. the register holding `n - 1`).
    sym: Option<LinExpr>,
    /// Guard- and rule-derived symbolic window on the value.
    win: SymWin,
}

impl RelVal {
    fn top() -> Self {
        RelVal {
            aff: Aff::top(),
            cong: Cong::top(),
            sym: None,
            win: SymWin::default(),
        }
    }

    fn constant(v: i128) -> Self {
        RelVal {
            aff: Aff::uniform(Interval::constant(v)),
            cong: Cong::constant(v),
            sym: Some(LinExpr::constant(v)),
            win: SymWin::default(),
        }
    }

    fn from_aff(aff: Aff) -> Self {
        RelVal {
            aff,
            cong: Cong::top(),
            sym: None,
            win: SymWin::default(),
        }
    }

    /// The concrete interval under the feasible `tid`/`ctaid` ranges.
    fn conc(&self, tids: &Interval, ctaids: &Interval) -> Interval {
        self.aff.concretize(tids, ctaids)
    }

    /// Window view `(lo, hi, conds)` of the value: the exact symbolic
    /// value when there is one, else the guard window with finite
    /// concrete bounds filling either missing side.
    fn wview(
        &self,
        tids: &Interval,
        ctaids: &Interval,
    ) -> (Option<LinExpr>, Option<LinExpr>, Vec<LinExpr>) {
        if let Some(s) = &self.sym {
            return (Some(s.clone()), Some(s.clone()), vec![]);
        }
        let conc = self.conc(tids, ctaids);
        let clo = (conc.lo() > NEG_INF).then(|| LinExpr::constant(conc.lo()));
        let chi = (conc.hi() < POS_INF).then(|| LinExpr::constant(conc.hi()));
        if self.win.is_empty() {
            (clo, chi, vec![])
        } else {
            (
                self.win.lo.clone().or(clo),
                self.win.hi.clone().or(chi),
                self.win.conds.clone(),
            )
        }
    }

    fn join(&self, o: &RelVal) -> RelVal {
        RelVal {
            aff: self.aff.join(&o.aff),
            cong: self.cong.join(&o.cong),
            sym: (self.sym == o.sym).then(|| self.sym.clone()).flatten(),
            win: if self.win == o.win {
                self.win.clone()
            } else {
                SymWin::default()
            },
        }
    }

    fn widen(&self, newer: &RelVal) -> RelVal {
        RelVal {
            aff: self.aff.widen(&newer.aff),
            // Congruence chains are finite; join suffices for termination.
            cong: self.cong.join(&newer.cong),
            sym: (self.sym == newer.sym).then(|| self.sym.clone()).flatten(),
            win: if self.win == newer.win {
                self.win.clone()
            } else {
                SymWin::default()
            },
        }
    }
}

/// A register value: a number or a region-relative pointer.
#[derive(Debug, Clone, PartialEq)]
enum RelAbs {
    Num(RelVal),
    Ptr(Origin, RelVal),
}

impl RelAbs {
    fn top() -> Self {
        RelAbs::Num(RelVal::top())
    }

    fn as_num(&self) -> Cow<'_, RelVal> {
        match self {
            RelAbs::Num(v) => Cow::Borrowed(v),
            // A pointer's numeric value is unknown at analysis time.
            RelAbs::Ptr(..) => Cow::Owned(RelVal::top()),
        }
    }

    fn join(&self, o: &RelAbs) -> RelAbs {
        match (self, o) {
            (RelAbs::Num(a), RelAbs::Num(b)) => RelAbs::Num(a.join(b)),
            (RelAbs::Ptr(oa, a), RelAbs::Ptr(ob, b)) if oa == ob => RelAbs::Ptr(*oa, a.join(b)),
            _ => RelAbs::top(),
        }
    }

    fn widen(&self, newer: &RelAbs) -> RelAbs {
        match (self, newer) {
            (RelAbs::Num(a), RelAbs::Num(b)) => RelAbs::Num(a.widen(b)),
            (RelAbs::Ptr(oa, a), RelAbs::Ptr(ob, b)) if oa == ob => RelAbs::Ptr(*oa, a.widen(b)),
            _ => RelAbs::top(),
        }
    }
}

/// Per-path state: register values plus the feasible `tid`/`ctaid`
/// ranges under the guards taken so far.
#[derive(Debug, Clone, PartialEq)]
struct RelState {
    regs: Vec<RelAbs>,
    tid: Interval,
    ctaid: Interval,
}

type Fact = (CmpOp, Operand, Operand);

/// The abstract value of `op`; a register operand is borrowed from `st`.
fn eval<'a>(
    op: Operand,
    st: &'a RelState,
    kernel: &Kernel,
    know: &LaunchKnowledge,
) -> Cow<'a, RelAbs> {
    let v = match op {
        Operand::Reg(VReg(r)) => return Cow::Borrowed(&st.regs[usize::from(r)]),
        Operand::Imm(i) => RelAbs::Num(RelVal::constant(i128::from(i))),
        Operand::Param(p) => match kernel.params()[usize::from(p)].kind() {
            ParamKind::Buffer { .. } => RelAbs::Ptr(Origin::Param(p), RelVal::constant(0)),
            ParamKind::Scalar => match know.args.get(usize::from(p)) {
                Some(ArgInfo::Scalar { value: Some(v) }) => {
                    RelAbs::Num(RelVal::constant(i128::from(*v)))
                }
                // The whole point: an unknown scalar is *symbolically*
                // exact even though its interval is ⊤.
                _ => RelAbs::Num(RelVal {
                    aff: Aff::top(),
                    cong: Cong::top(),
                    sym: Some(LinExpr::arg(p)),
                    win: SymWin::default(),
                }),
            },
        },
        Operand::LocalBase(v) => RelAbs::Ptr(Origin::Local(v), RelVal::constant(0)),
        Operand::Special(s) => RelAbs::Num(match s {
            Special::ThreadId => RelVal::from_aff(Aff::tid()),
            Special::BlockId => RelVal::from_aff(Aff::ctaid()),
            Special::BlockDim => RelVal::constant(i128::from(know.block)),
            Special::GridDim => RelVal::constant(i128::from(know.grid)),
            Special::LaneId => RelVal::from_aff(Aff::uniform(Interval::range(0, 63))),
        }),
    };
    Cow::Owned(v)
}

/// Binary transfer on the numeric product value.
fn rel_bin(op: BinOp, x: &RelVal, y: &RelVal, tids: &Interval, ctaids: &Interval) -> RelVal {
    let xc = x.conc(tids, ctaids);
    let yc = y.conc(tids, ctaids);
    let y_const = (yc.lo() == yc.hi() && yc.lo() > NEG_INF).then(|| yc.lo());
    let x_const = (xc.lo() == xc.hi() && xc.lo() > NEG_INF).then(|| xc.lo());

    let mut aff = aff_bin(op, x.aff, y.aff);
    // Interval-domain tightenings the affine form alone cannot express
    // (non-uniform operand masked/reduced by a constant).
    match op {
        BinOp::And => {
            if let Some(k) = y_const.or(x_const) {
                if k >= 0 {
                    let hi = if xc.lo() >= 0 && yc.lo() >= 0 {
                        k.min(xc.hi().min(yc.hi()))
                    } else {
                        k
                    };
                    aff = Aff::uniform(Interval::range(0, hi));
                }
            }
        }
        BinOp::Rem => {
            if let Some(n) = y_const {
                if n > 0 && aff.c.is_full() && aff.is_uniform() {
                    aff = Aff::uniform(if xc.lo() >= 0 {
                        Interval::range(0, n - 1)
                    } else {
                        Interval::range(-(n - 1), n - 1)
                    });
                }
            }
        }
        _ => {}
    }

    // Congruence component.
    let cong = match op {
        BinOp::Add => x.cong.add(&y.cong),
        BinOp::Sub => x.cong.sub(&y.cong),
        BinOp::Mul => x.cong.mul(&y.cong),
        BinOp::Shl => match y_const {
            Some(s) if (0..=63).contains(&s) => x.cong.mul(&Cong::constant(1i128 << s)),
            _ => Cong::top(),
        },
        BinOp::Rem => match y_const {
            // n | m ⇒ (x mod n) keeps the residue mod n (for x ≥ 0, where
            // the machine's remainder matches the mathematical one).
            Some(n) if n > 1 && x.cong.m > 0 && x.cong.m % n == 0 && xc.lo() >= 0 => {
                Cong::constant(x.cong.r.rem_euclid(n))
            }
            _ => Cong::top(),
        },
        _ => Cong::top(),
    };

    // Exact symbolic value.
    let sym = match op {
        BinOp::Add => match (&x.sym, &y.sym) {
            (Some(a), Some(b)) => a.add(b),
            _ => None,
        },
        BinOp::Sub => match (&x.sym, &y.sym) {
            (Some(a), Some(b)) => a.sub(b),
            _ => None,
        },
        BinOp::Mul => match (&x.sym, y_const, &y.sym, x_const) {
            (Some(a), Some(k), _, _) => a.mul_const(k),
            (_, _, Some(b), Some(k)) => b.mul_const(k),
            // Polynomial product (e.g. the `n·n` guard of a flattened
            // 2-D kernel), degree-capped at 2.
            (Some(a), _, Some(b), _) => a.mul(b),
            _ => None,
        },
        BinOp::Shl => match (&x.sym, y_const) {
            (Some(a), Some(s)) if (0..=63).contains(&s) => a.mul_const(1i128 << s),
            _ => None,
        },
        _ => None,
    };

    // The exact symbolic value subsumes any window, so a window is only
    // built for values without one.
    let win = if sym.is_some() {
        SymWin::default()
    } else {
        bin_window(op, x, y, (x_const, y_const), tids, ctaids, &aff)
    };

    RelVal {
        aff,
        cong,
        sym: sym.filter(|s| s.as_const().is_none() || x.sym.is_some() && y.sym.is_some()),
        win,
    }
}

/// The conditionally-valid symbolic window of `x op y` for a result whose
/// affine form is `aff`; `consts` are the operands' constant values.
fn bin_window(
    op: BinOp,
    x: &RelVal,
    y: &RelVal,
    consts: (Option<i128>, Option<i128>),
    tids: &Interval,
    ctaids: &Interval,
    aff: &Aff,
) -> SymWin {
    let (x_const, y_const) = consts;
    // Each rule combines the operands' window views and records, as
    // side-conditions, whatever sign facts its monotonicity argument
    // needs — `discharge` evaluates those against the launch's concrete
    // scalars before trusting the window, and an inconsistent window
    // (lo > hi) is rejected there.
    let (xlo, xhi, xconds) = x.wview(tids, ctaids);
    let (ylo, yhi, yconds) = y.wview(tids, ctaids);
    let xlo_nonneg = xlo
        .as_ref()
        .and_then(LinExpr::as_const)
        .is_some_and(|c| c >= 0);
    let mut win = (|| -> Option<SymWin> {
        let pair = |a: &Option<LinExpr>,
                    b: &Option<LinExpr>,
                    f: fn(&LinExpr, &LinExpr) -> Option<LinExpr>| match (a, b) {
            (Some(a), Some(b)) => f(a, b),
            _ => None,
        };
        Some(match op {
            BinOp::Add => SymWin {
                lo: pair(&xlo, &ylo, LinExpr::add),
                hi: pair(&xhi, &yhi, LinExpr::add),
                conds: merge_conds(&xconds, &yconds)?,
            },
            BinOp::Sub => SymWin {
                lo: pair(&xlo, &yhi, LinExpr::sub),
                hi: pair(&xhi, &ylo, LinExpr::sub),
                conds: merge_conds(&xconds, &yconds)?,
            },
            BinOp::Mul | BinOp::Shl => {
                // Reduce both to multiplication by a known factor.
                let (wlo, whi, wconds, factor) = if op == BinOp::Shl {
                    match y_const {
                        Some(s) if (0..=63).contains(&s) => {
                            (&xlo, &xhi, &xconds, Factor::Const(1i128 << s))
                        }
                        _ => return None,
                    }
                } else if let Some(k) = y_const {
                    (&xlo, &xhi, &xconds, Factor::Const(k))
                } else if let Some(k) = x_const {
                    (&ylo, &yhi, &yconds, Factor::Const(k))
                } else if let Some(e) = y.sym.clone() {
                    (&xlo, &xhi, &xconds, Factor::Sym(e))
                } else if let Some(e) = x.sym.clone() {
                    (&ylo, &yhi, &yconds, Factor::Sym(e))
                } else {
                    return None;
                };
                match factor {
                    // A constant factor scales the window, swapping the
                    // ends when negative.
                    Factor::Const(k) => {
                        let lo = wlo.as_ref().and_then(|e| e.mul_const(k));
                        let hi = whi.as_ref().and_then(|e| e.mul_const(k));
                        let (lo, hi) = if k >= 0 { (lo, hi) } else { (hi, lo) };
                        SymWin {
                            lo,
                            hi,
                            conds: wconds.clone(),
                        }
                    }
                    // A symbolic factor `e` preserves the window only
                    // when `e ≥ 0` — recorded as a side-condition.
                    Factor::Sym(e) => SymWin {
                        lo: wlo.as_ref().and_then(|g| g.mul(&e)),
                        hi: whi.as_ref().and_then(|f| f.mul(&e)),
                        conds: merge_conds(wconds, &[e])?,
                    },
                }
            }
            // x ≥ 0, divisor ≥ 1 ⇒ 0 ≤ x/d ≤ x (the signed ISA division
            // truncates toward zero).
            BinOp::Div if xlo_nonneg => {
                let (hi, conds) = match (y_const, &y.sym) {
                    (Some(n), _) if n >= 1 => {
                        let hi = xhi.as_ref().map(|e| match e.as_const() {
                            Some(c) => LinExpr::constant(c.div_euclid(n)),
                            None => e.clone(),
                        });
                        (hi, xconds.clone())
                    }
                    (None, Some(e)) if e.as_const().is_none() => {
                        (xhi.clone(), merge_conds(&xconds, &[e.add_const(-1)?])?)
                    }
                    _ => return None,
                };
                SymWin {
                    lo: Some(LinExpr::constant(0)),
                    hi,
                    conds,
                }
            }
            // x ≥ 0 ⇒ 0 ≤ x mod d ≤ d − 1 for d ≥ 1 (the remainder's
            // sign follows the dividend).
            BinOp::Rem if xlo_nonneg => match (y_const, &y.sym) {
                (Some(n), _) if n >= 1 => SymWin {
                    lo: Some(LinExpr::constant(0)),
                    hi: Some(LinExpr::constant(n - 1)),
                    conds: xconds.clone(),
                },
                (None, Some(e)) if e.as_const().is_none() => {
                    let hi = e.add_const(-1)?;
                    SymWin {
                        lo: Some(LinExpr::constant(0)),
                        hi: Some(hi.clone()),
                        conds: merge_conds(&xconds, &[hi])?,
                    }
                }
                _ => return None,
            },
            BinOp::Shr if xlo_nonneg => match y_const {
                Some(s) if (0..=63).contains(&s) => SymWin {
                    lo: Some(LinExpr::constant(0)),
                    hi: xhi.as_ref().map(|e| match e.as_const() {
                        Some(c) => LinExpr::constant(c >> s),
                        None => e.clone(),
                    }),
                    conds: xconds.clone(),
                },
                _ => return None,
            },
            BinOp::Min => {
                // Either side's upper bound caps the minimum; prefer a
                // symbolic one. A side's lower bound holds only when it
                // is ≤ the other's — a discharge-time comparison.
                let hi = match (&xhi, &yhi) {
                    (Some(a), Some(b)) => Some(match (a.as_const(), b.as_const()) {
                        (Some(ca), Some(cb)) => LinExpr::constant(ca.min(cb)),
                        (Some(_), None) => b.clone(),
                        _ => a.clone(),
                    }),
                    (a, b) => a.clone().or_else(|| b.clone()),
                };
                let (lo, extra) = match (&xlo, &ylo) {
                    (Some(a), Some(b)) => match (a.as_const(), b.as_const()) {
                        (Some(ca), Some(cb)) => (Some(LinExpr::constant(ca.min(cb))), None),
                        (Some(_), None) => (Some(a.clone()), b.sub(a)),
                        _ => (Some(b.clone()), a.sub(b)),
                    },
                    _ => (None, None),
                };
                let conds = merge_conds(&xconds, &yconds)?;
                SymWin {
                    lo,
                    hi,
                    conds: match extra {
                        Some(c) => merge_conds(&conds, &[c])?,
                        None => conds,
                    },
                }
            }
            BinOp::Max => {
                // Either side's lower bound floors the maximum; prefer a
                // non-negative constant (the usual `max(x, 0)` clamp).
                let lo = match (&xlo, &ylo) {
                    (Some(a), Some(b)) => Some(match (a.as_const(), b.as_const()) {
                        (Some(ca), Some(cb)) => LinExpr::constant(ca.max(cb)),
                        (Some(ca), None) if ca >= 0 => a.clone(),
                        (Some(_), None) => b.clone(),
                        _ => a.clone(),
                    }),
                    (a, b) => a.clone().or_else(|| b.clone()),
                };
                let (hi, extra) = match (&xhi, &yhi) {
                    (Some(a), Some(b)) => match (a.as_const(), b.as_const()) {
                        (Some(ca), Some(cb)) => (Some(LinExpr::constant(ca.max(cb))), None),
                        (Some(_), None) => (Some(b.clone()), b.sub(a)),
                        _ => (Some(a.clone()), a.sub(b)),
                    },
                    _ => (None, None),
                };
                let conds = merge_conds(&xconds, &yconds)?;
                SymWin {
                    lo,
                    hi,
                    conds: match extra {
                        Some(c) => merge_conds(&conds, &[c])?,
                        None => conds,
                    },
                }
            }
            _ => return None,
        })
    })()
    .unwrap_or_default();

    // Keep only window components that improve on the concrete interval
    // (constant windows duplicating the affine bounds are noise).
    let rconc = aff.concretize(tids, ctaids);
    win.lo = win.lo.filter(|e| match e.as_const() {
        Some(c) => c > rconc.lo(),
        None => true,
    });
    win.hi = win.hi.filter(|e| match e.as_const() {
        Some(c) => c < rconc.hi(),
        None => true,
    });
    if win.is_empty() {
        win = SymWin::default();
    }
    win
}

/// A multiplication factor a window is scaled by: a known constant or a
/// symbolic expression (sound only when it discharges ≥ 0).
enum Factor {
    Const(i128),
    Sym(LinExpr),
}

fn rel_abs_bin(op: BinOp, a: &RelAbs, b: &RelAbs, tids: &Interval, ctaids: &Interval) -> RelAbs {
    use RelAbs::{Num, Ptr};
    match op {
        BinOp::Add => match (a, b) {
            (Ptr(o, x), Num(y)) | (Num(y), Ptr(o, x)) => {
                Ptr(*o, rel_bin(BinOp::Add, x, y, tids, ctaids))
            }
            (Num(x), Num(y)) => Num(rel_bin(op, x, y, tids, ctaids)),
            _ => RelAbs::top(),
        },
        BinOp::Sub => match (a, b) {
            (Ptr(o, x), Num(y)) => Ptr(*o, rel_bin(BinOp::Sub, x, y, tids, ctaids)),
            (Ptr(oa, x), Ptr(ob, y)) if oa == ob => Num(rel_bin(BinOp::Sub, x, y, tids, ctaids)),
            (Num(x), Num(y)) => Num(rel_bin(op, x, y, tids, ctaids)),
            _ => RelAbs::top(),
        },
        _ => match (a, b) {
            (Num(x), Num(y)) => Num(rel_bin(op, x, y, tids, ctaids)),
            _ => RelAbs::top(),
        },
    }
}

fn transfer(
    instr: &Instr,
    st: &mut RelState,
    cmp_defs: &mut HashMap<u16, Fact>,
    kernel: &Kernel,
    know: &LaunchKnowledge,
) {
    let write = |st: &mut RelState, cmp_defs: &mut HashMap<u16, Fact>, dst: VReg, v: RelAbs| {
        st.regs[usize::from(dst.0)] = v;
        // Kill stale facts that mention the redefined register.
        cmp_defs.retain(|key, (_, a, b)| {
            *key != dst.0 && *a != Operand::Reg(dst) && *b != Operand::Reg(dst)
        });
    };
    let (tids, ctaids) = (st.tid, st.ctaid);
    match instr {
        Instr::Mov { dst, src } => {
            let v = eval(*src, st, kernel, know).into_owned();
            write(st, cmp_defs, *dst, v);
        }
        Instr::Un { op, dst, a } => {
            let v = match &*eval(*a, st, kernel, know) {
                RelAbs::Num(x) => RelAbs::Num(RelVal::from_aff(aff_un(*op, x.aff))),
                RelAbs::Ptr(..) => RelAbs::top(),
            };
            write(st, cmp_defs, *dst, v);
        }
        Instr::Bin { op, dst, a, b } => {
            let av = eval(*a, st, kernel, know);
            let bv = eval(*b, st, kernel, know);
            let v = rel_abs_bin(*op, &av, &bv, &tids, &ctaids);
            write(st, cmp_defs, *dst, v);
        }
        Instr::Cmp { op, dst, a, b } => {
            let (op, a, b) = (*op, *a, *b);
            write(
                st,
                cmp_defs,
                *dst,
                RelAbs::Num(RelVal::from_aff(Aff::uniform(Interval::range(0, 1)))),
            );
            cmp_defs.insert(dst.0, (op, a, b));
        }
        Instr::Sel { dst, a, b, .. } => {
            let v = eval(*a, st, kernel, know).join(&eval(*b, st, kernel, know));
            write(st, cmp_defs, *dst, v);
        }
        Instr::Ld { dst, .. } | Instr::AtomAdd { dst, .. } => {
            write(st, cmp_defs, *dst, RelAbs::top());
        }
        Instr::Malloc { dst, .. } => {
            write(st, cmp_defs, *dst, RelAbs::Ptr(Origin::Heap, RelVal::top()));
        }
        Instr::St { .. } | Instr::Free { .. } | Instr::Bar => {}
        Instr::Bra { .. } | Instr::Jmp { .. } | Instr::Ret => {}
    }
}

/// Meets interval `x` against `x op bound`.
fn meet_bound(op: CmpOp, x: Interval, bound: &Interval) -> Option<Interval> {
    let constraint = match op {
        CmpOp::Lt => Interval::range(NEG_INF, bound.hi().saturating_sub(1)),
        CmpOp::Le => Interval::range(NEG_INF, bound.hi()),
        CmpOp::Gt => Interval::range(bound.lo().saturating_add(1), POS_INF),
        CmpOp::Ge => Interval::range(bound.lo(), POS_INF),
        CmpOp::Eq => *bound,
        CmpOp::Ne => return Some(x),
    };
    x.intersect(&constraint)
}

/// Refines `st` along a branch edge where `(op, a, b)` holds. Returns
/// `false` when the edge is infeasible.
fn refine_edge(st: &mut RelState, fact: Fact, kernel: &Kernel, know: &LaunchKnowledge) -> bool {
    let (op, a, b) = fact;
    for (lhs, rhs, op) in [(a, b, op), (b, a, swap(op))] {
        let rhs_v = eval(rhs, st, kernel, know).as_num().into_owned();
        let rhs_conc = rhs_v.conc(&st.tid, &st.ctaid);
        let lhs_v = eval(lhs, st, kernel, know).as_num().into_owned();

        // 1. Feasible tid/ctaid ranges, exactly like the race pass.
        if rhs_v.aff.is_uniform() {
            if lhs_v.aff == Aff::tid() && lhs_v.sym.is_none() {
                match meet_bound(op, st.tid, &rhs_conc) {
                    Some(m) => st.tid = m,
                    None => return false,
                }
            }
            if lhs_v.aff == Aff::ctaid() && lhs_v.sym.is_none() {
                match meet_bound(op, st.ctaid, &rhs_conc) {
                    Some(m) => st.ctaid = m,
                    None => return false,
                }
            }
        }

        // 2. Concrete refinement of a register operand.
        if let Operand::Reg(VReg(r)) = lhs {
            let ri = usize::from(r);
            match &st.regs[ri] {
                RelAbs::Num(v) if v.aff.is_uniform() && rhs_v.aff.is_uniform() => {
                    match meet_bound(op, v.aff.c, &rhs_conc) {
                        Some(m) => {
                            let mut nv = v.clone();
                            nv.aff = Aff::uniform(m);
                            st.regs[ri] = RelAbs::Num(nv);
                        }
                        None => return false,
                    }
                }
                _ => {}
            }
        }

        // 3. Symbolic window from the guard: `v < rhs ≤ ub(rhs)` caps `v`
        // at `ub − 1`; `v > rhs ≥ lb(rhs)` floors it at `lb + 1`. The
        // rhs's own window conditions travel with the new fact.
        let (rlo, rhi, rconds) = rhs_v.wview(&st.tid, &st.ctaid);
        let new_hi = match (op, &rhi) {
            (CmpOp::Lt, Some(e)) => e.add_const(-1),
            (CmpOp::Le | CmpOp::Eq, Some(e)) => Some(e.clone()),
            _ => None,
        };
        let new_lo = match (op, &rlo) {
            (CmpOp::Gt, Some(e)) => e.add_const(1),
            (CmpOp::Ge | CmpOp::Eq, Some(e)) => Some(e.clone()),
            _ => None,
        };
        let new_hi = new_hi.filter(|c| c.as_const().is_none());
        let new_lo = new_lo.filter(|c| c.as_const().is_none());
        if new_hi.is_some() || new_lo.is_some() {
            let exact = (op == CmpOp::Eq).then(|| rhs_v.sym.clone()).flatten();
            let apply = |v: &mut RelVal| {
                let Some(conds) = merge_conds(&v.win.conds, &rconds) else {
                    return;
                };
                if let Some(h) = &new_hi {
                    v.win.hi = Some(h.clone());
                }
                if let Some(l) = &new_lo {
                    v.win.lo = Some(l.clone());
                }
                v.win.conds = conds;
                if let Some(e) = &exact {
                    v.sym = Some(e.clone());
                }
            };
            // The guarded register itself…
            if let Operand::Reg(VReg(r)) = lhs {
                if let RelAbs::Num(v) = &mut st.regs[usize::from(r)] {
                    apply(v);
                }
            }
            // …and every register currently holding the *same non-uniform
            // affine form* (a relational fact: aliases computed before the
            // guard are constrained too).
            if !lhs_v.aff.is_uniform() {
                for reg in &mut st.regs {
                    if let RelAbs::Num(v) = reg {
                        if v.aff == lhs_v.aff && v.sym == lhs_v.sym {
                            apply(v);
                        }
                    }
                }
            }
        }
    }
    true
}

const WIDEN_AFTER: u32 = 4;
const VISIT_FUEL: u32 = 20_000;

/// Runs the product-domain fixpoint; returns per-block entry states.
fn analyze_rel(kernel: &Kernel, know: &LaunchKnowledge) -> Vec<Option<RelState>> {
    let nblocks = kernel.blocks().len();
    let nregs = usize::from(kernel.num_regs()).max(1);
    let mut in_states: Vec<Option<RelState>> = vec![None; nblocks];
    in_states[0] = Some(RelState {
        regs: vec![RelAbs::Num(RelVal::constant(0)); nregs],
        tid: Interval::range(0, i128::from(know.block) - 1),
        ctaid: Interval::range(0, i128::from(know.grid) - 1),
    });
    let mut visits = vec![0u32; nblocks];
    let mut work = vec![0usize];
    let mut fuel = VISIT_FUEL;
    while let Some(b) = work.pop() {
        if fuel == 0 {
            break; // sound: remaining states keep their last (wider) value
        }
        fuel -= 1;
        let mut st = in_states[b].clone().expect("worklist blocks have states");
        let mut cmp_defs: HashMap<u16, Fact> = HashMap::new();
        let instrs = kernel.blocks()[b].instrs();
        for instr in instrs {
            transfer(instr, &mut st, &mut cmp_defs, kernel, know);
        }
        let mut edges: Vec<(usize, Option<Fact>)> = Vec::new();
        match instrs.last() {
            Some(Instr::Jmp { target }) => edges.push((target.0 as usize, None)),
            Some(Instr::Bra {
                cond,
                taken,
                not_taken,
            }) => {
                let fact = match cond {
                    Operand::Reg(VReg(c)) => cmp_defs.get(c).copied(),
                    _ => None,
                };
                edges.push((taken.0 as usize, fact));
                edges.push((
                    not_taken.0 as usize,
                    fact.map(|(op, a, b)| (negate(op), a, b)),
                ));
            }
            _ => {}
        }
        let mut propagate = |succ: usize, fact: Option<Fact>, mut out: RelState| {
            if let Some(f) = fact {
                if !refine_edge(&mut out, f, kernel, know) {
                    return;
                }
            }
            let changed = match &in_states[succ] {
                None => {
                    in_states[succ] = Some(out);
                    true
                }
                Some(old) => {
                    let widen = visits[succ] >= WIDEN_AFTER;
                    let mut merged = RelState {
                        regs: Vec::with_capacity(old.regs.len()),
                        tid: old.tid.union(&out.tid),
                        ctaid: old.ctaid.union(&out.ctaid),
                    };
                    if widen {
                        merged.tid = old.tid.widen(&merged.tid);
                        merged.ctaid = old.ctaid.widen(&merged.ctaid);
                    }
                    for (o, n) in old.regs.iter().zip(out.regs.iter()) {
                        let j = o.join(n);
                        merged.regs.push(if widen { o.widen(&j) } else { j });
                    }
                    if merged != *old {
                        in_states[succ] = Some(merged);
                        true
                    } else {
                        false
                    }
                }
            };
            if changed {
                visits[succ] += 1;
                work.push(succ);
            }
        };
        // Every edge but the last refines a copy of the out-state; the
        // last one takes it.
        let last = edges.pop();
        for (succ, fact) in edges {
            propagate(succ, fact, st.clone());
        }
        if let Some((succ, fact)) = last {
            propagate(succ, fact, st);
        }
    }
    in_states
}

// ---------------------------------------------------------------------------
// Certificates.

/// A machine-readable per-site proof: "provided every side-condition
/// evaluates ≥ 0, every byte this site touches lies at
/// `origin + [max(lo, lo_sym(args)), min(hi_const, hi_sym(args))] +
/// [0, width)`", valid for *any* scalar argument values (the symbolic
/// bounds and conditions reference them).
///
/// The driver discharges a proof against a concrete launch with
/// [`discharge`]; the resulting window is what the BAT soundness auditor
/// cross-checks against the observed per-site address range.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteProof {
    /// Memory instruction site `(block, instruction index)`.
    pub site: (BlockId, usize),
    /// Region the site addresses.
    pub origin: Origin,
    /// Access width in bytes.
    pub width: u64,
    /// Concrete lower offset bound (inclusive, bytes; may be the `-inf`
    /// clamp when only the symbolic floor is finite).
    pub lo: i128,
    /// Concrete upper offset bound (inclusive, bytes; may be the `+inf`
    /// clamp when only the symbolic bound is finite).
    pub hi_const: i128,
    /// Symbolic lower offset bound over scalar arguments, when proven.
    pub lo_sym: Option<LinExpr>,
    /// Symbolic upper offset bound over scalar arguments, when a guard
    /// provided one.
    pub hi_sym: Option<LinExpr>,
    /// Side-conditions: each expression must evaluate ≥ 0 under the
    /// launch's concrete scalar arguments for the window to hold.
    pub conds: Vec<LinExpr>,
    /// Offset congruence `(m, r)` with `m > 1`, when proven.
    pub align: Option<(u64, u64)>,
}

/// Runs the relational prover and emits a [`SiteProof`] for every
/// protected-space memory site whose offset window it can bound — fully
/// concretely, symbolically in the scalar arguments, or both. Sites whose
/// lower bound may be negative, or with no finite bound of either kind,
/// get no certificate.
///
/// Run this under [`LaunchKnowledge::value_less`] to obtain certificates
/// that remain valid for every scalar argument valuation.
pub fn prove_sites(kernel: &Kernel, know: &LaunchKnowledge) -> Vec<SiteProof> {
    let states = analyze_rel(kernel, know);
    let mut proofs = Vec::new();
    for (bi, blk) in kernel.blocks().iter().enumerate() {
        let Some(entry) = &states[bi] else { continue };
        // Only the states at protected sites are read, so the walk stops
        // at the block's last one (and skips a block without any).
        let Some(last) = blk
            .instrs()
            .iter()
            .rposition(|i| protected_site_width(i).is_some())
        else {
            continue;
        };
        let mut st = entry.clone();
        let mut cmp_defs = HashMap::new();
        for (ii, instr) in blk.instrs()[..=last].iter().enumerate() {
            if let Some(width) = protected_site_width(instr) {
                let site = (BlockId(bi as u32), ii);
                if let Some(p) = prove_one(site, instr, &st, kernel, know, width) {
                    proofs.push(p);
                }
            }
            transfer(instr, &mut st, &mut cmp_defs, kernel, know);
        }
    }
    proofs
}

/// Resolves a site's address under the relational state.
fn resolve_rel(
    instr: &Instr,
    st: &RelState,
    kernel: &Kernel,
    know: &LaunchKnowledge,
) -> Option<(Origin, RelVal)> {
    let addr = match instr {
        Instr::Ld { addr, .. } | Instr::St { addr, .. } | Instr::AtomAdd { addr, .. } => addr,
        _ => return None,
    };
    let (tids, ctaids) = (st.tid, st.ctaid);
    match addr {
        AddrExpr::BaseOffset { base, offset } => match &*eval(*base, st, kernel, know) {
            RelAbs::Ptr(o, boff) => {
                let off = eval(*offset, st, kernel, know);
                Some((*o, rel_bin(BinOp::Add, boff, &off.as_num(), &tids, &ctaids)))
            }
            _ => None,
        },
        AddrExpr::BindingTable { bti, offset } => Some((
            Origin::Param(*bti),
            eval(*offset, st, kernel, know).as_num().into_owned(),
        )),
        AddrExpr::Flat { addr } => match eval(*addr, st, kernel, know).into_owned() {
            RelAbs::Ptr(o, off) => Some((o, off)),
            _ => None,
        },
    }
}

fn prove_one(
    site: (BlockId, usize),
    instr: &Instr,
    st: &RelState,
    kernel: &Kernel,
    know: &LaunchKnowledge,
    width: u64,
) -> Option<SiteProof> {
    let (origin, off) = resolve_rel(instr, st, kernel, know)?;
    if origin == Origin::Heap {
        return None; // coarse runtime-only protection (§5.2.1)
    }
    let conc = off.conc(&st.tid, &st.ctaid);
    let (wlo, whi, conds) = off.wview(&st.tid, &st.ctaid);
    // Keep only symbolic bounds that improve on the concrete interval
    // (a conditionally-valid constant still counts — e.g. the `≥ 0`
    // floor of a remainder by an unknown divisor).
    let lo_sym = wlo.filter(|e| match e.as_const() {
        Some(c) => c > conc.lo(),
        None => true,
    });
    let hi_sym = whi.filter(|e| match e.as_const() {
        Some(c) => c < conc.hi(),
        None => true,
    });
    if conc.lo() < 0 && lo_sym.is_none() {
        return None; // possibly-negative offset with no symbolic floor
    }
    if conc.hi() >= POS_INF && hi_sym.is_none() {
        return None; // no upper bound of any kind
    }
    let align = (off.cong.m > 1).then_some((off.cong.m as u64, off.cong.r as u64));
    Some(SiteProof {
        site,
        origin,
        width,
        lo: conc.lo(),
        hi_const: conc.hi(),
        lo_sym,
        hi_sym,
        conds,
        align,
    })
}

/// Discharges a certificate against a concrete launch: re-checks every
/// side-condition, evaluates the symbolic bounds with the actual scalar
/// values, tightens by the congruence, and verifies the window lies
/// inside the origin region.
///
/// Returns the proven byte-offset window `[lo, hi)` (exclusive `hi`,
/// covering the access width) when the site's check may be elided, or
/// `None` when the proof does not discharge for this launch (unknown
/// argument, failed side-condition, fit-discipline breach, inconsistent
/// window, or window not contained in the region).
pub fn discharge(proof: &SiteProof, kernel: &Kernel, know: &LaunchKnowledge) -> Option<(u64, u64)> {
    let size = origin_size(proof.origin, kernel, know)?;
    // Fit discipline: every evaluated quantity must sit comfortably
    // inside the 64-bit signed range, so the wrapping ISA arithmetic the
    // window reasons about cannot actually have wrapped.
    let fit = |v: i128| (-FIT_BOUND..=FIT_BOUND).contains(&v).then_some(v);
    for c in &proof.conds {
        if fit(c.eval(know)?)? < 0 {
            return None; // a monotonicity side-condition fails
        }
    }
    let mut hi = proof.hi_const;
    if let Some(e) = &proof.hi_sym {
        hi = hi.min(fit(e.eval(know)?)?);
    }
    let mut lo = proof.lo;
    if let Some(e) = &proof.lo_sym {
        lo = lo.max(fit(e.eval(know)?)?);
    }
    if let Some((m, r)) = proof.align {
        hi = Cong {
            m: i128::from(m),
            r: i128::from(r),
        }
        .tighten_hi(hi);
    }
    if hi >= POS_INF || lo < 0 || hi < lo {
        return None;
    }
    let hi_excl = hi.checked_add(i128::from(proof.width))?;
    if hi_excl > i128::from(size) {
        return None; // window exceeds the region: keep the runtime check
    }
    Some((lo as u64, hi_excl as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpushield_isa::{KernelBuilder, MemSpace, MemWidth};

    fn know(args: Vec<ArgInfo>, block: u32, grid: u32) -> LaunchKnowledge {
        LaunchKnowledge {
            args,
            local_sizes: vec![],
            block,
            grid,
            heap_size: None,
        }
    }

    /// if (gtid < n) out[gtid*4] = … — unprovable for the interval domain
    /// when `n` is unknown, provable here with the window `[0, 4n − 4]`.
    fn guarded_kernel() -> Kernel {
        let mut b = KernelBuilder::new("guarded");
        let out = b.param_buffer("out", false);
        let n = b.param_scalar("n");
        let tid = b.global_thread_id();
        let c = b.lt(tid, n);
        b.if_then(c, |b| {
            let off = b.shl(tid, Operand::Imm(2));
            b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        });
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn guard_on_unknown_scalar_yields_symbolic_window() {
        let k = guarded_kernel();
        let vl = know(
            vec![
                ArgInfo::Buffer { size: 400 },
                ArgInfo::Scalar { value: None },
            ],
            256,
            16,
        );
        let proofs = prove_sites(&k, &vl);
        assert_eq!(proofs.len(), 1, "{proofs:?}");
        let p = &proofs[0];
        assert_eq!(p.origin, Origin::Param(0));
        assert_eq!(p.lo, 0);
        // Symbolic bound 4·(n−1) = 4n − 4.
        let e = p.hi_sym.as_ref().expect("guard must yield symbolic bound");
        assert_eq!(e.terms, vec![(1, 4)]);
        assert_eq!(e.k, -4);
        // Alignment: offsets are tid<<2, ≡ 0 (mod 4).
        assert_eq!(p.align, Some((4, 0)));
    }

    #[test]
    fn discharge_respects_the_actual_size() {
        let k = guarded_kernel();
        let vl = know(
            vec![
                ArgInfo::Buffer { size: 400 },
                ArgInfo::Scalar { value: None },
            ],
            256,
            16,
        );
        let p = &prove_sites(&k, &vl)[0];
        // n = 100 on a 400-byte buffer: window [0, 400) — exactly fits.
        let fits = know(
            vec![
                ArgInfo::Buffer { size: 400 },
                ArgInfo::Scalar { value: Some(100) },
            ],
            256,
            16,
        );
        assert_eq!(discharge(p, &k, &fits), Some((0, 400)));
        // n = 101: window [0, 404) exceeds the buffer — no elision.
        let overflows = know(
            vec![
                ArgInfo::Buffer { size: 400 },
                ArgInfo::Scalar { value: Some(101) },
            ],
            256,
            16,
        );
        assert_eq!(discharge(p, &k, &overflows), None);
        // Value still unknown at discharge time: no elision either.
        assert_eq!(discharge(p, &k, &vl), None);
    }

    #[test]
    fn counted_loop_window_survives_widening() {
        // for i in 0..n: out[i*4] — the induction variable widens to ⊤
        // but the loop guard re-caps it on the body edge every iteration.
        let mut b = KernelBuilder::new("loop");
        let out = b.param_buffer("out", false);
        let n = b.param_scalar("n");
        b.for_loop(Operand::Imm(0), n, 1, |b, i| {
            let off = b.shl(i, Operand::Imm(2));
            b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), i);
        });
        b.ret();
        let k = b.finish().unwrap();
        let vl = know(
            vec![
                ArgInfo::Buffer { size: 256 },
                ArgInfo::Scalar { value: None },
            ],
            32,
            1,
        );
        let proofs = prove_sites(&k, &vl);
        assert_eq!(proofs.len(), 1, "{proofs:?}");
        let e = proofs[0].hi_sym.as_ref().expect("symbolic loop bound");
        assert_eq!((e.terms.clone(), e.k), (vec![(1, 4)], -4));
        // n = 64 on 256 bytes: fits exactly.
        let full = know(
            vec![
                ArgInfo::Buffer { size: 256 },
                ArgInfo::Scalar { value: Some(64) },
            ],
            32,
            1,
        );
        assert_eq!(discharge(&proofs[0], &k, &full), Some((0, 256)));
    }

    #[test]
    fn grid_stride_loop_is_certified() {
        // for (i = gtid; i < n; i += blockDim·gridDim) out[i*4] — the
        // canonical grid-stride shape the interval domain widens to ⊤.
        let mut b = KernelBuilder::new("gridstride");
        let out = b.param_buffer("out", false);
        let n = b.param_scalar("n");
        let gtid = b.global_thread_id();
        let stride = b.mul(b.block_dim(), b.grid_dim());
        let i = b.mov(gtid);
        b.while_loop(
            |b| Operand::Reg(b.lt(i, n)),
            |b| {
                let off = b.shl(i, Operand::Imm(2));
                b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), i);
                let next = b.add(i, stride);
                b.assign(i, next);
            },
        );
        b.ret();
        let k = b.finish().unwrap();
        let vl = know(
            vec![
                ArgInfo::Buffer { size: 4096 },
                ArgInfo::Scalar { value: None },
            ],
            32,
            2,
        );
        let proofs = prove_sites(&k, &vl);
        assert_eq!(proofs.len(), 1, "{proofs:?}");
        let e = proofs[0].hi_sym.as_ref().expect("symbolic bound");
        assert_eq!((e.terms.clone(), e.k), (vec![(1, 4)], -4));
        let full = know(
            vec![
                ArgInfo::Buffer { size: 4096 },
                ArgInfo::Scalar { value: Some(1024) },
            ],
            32,
            2,
        );
        assert_eq!(discharge(&proofs[0], &k, &full), Some((0, 4096)));
    }

    #[test]
    fn unguarded_unknown_index_gets_no_certificate() {
        // out[j*4] with j loaded from memory: nothing bounds it.
        let mut b = KernelBuilder::new("indirect");
        let idx = b.param_buffer("idx", true);
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let ioff = b.shl(tid, Operand::Imm(2));
        let j = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(idx, ioff));
        let off = b.shl(j, Operand::Imm(2));
        b.st(
            MemSpace::Global,
            MemWidth::W4,
            b.base_offset(out, off),
            Operand::Imm(1),
        );
        b.ret();
        let k = b.finish().unwrap();
        let vl = know(
            vec![
                ArgInfo::Buffer { size: 4096 },
                ArgInfo::Buffer { size: 4096 },
            ],
            16,
            4,
        );
        let proofs = prove_sites(&k, &vl);
        // The index load is concretely bounded; the indirect store is not.
        assert_eq!(proofs.len(), 1);
        assert_eq!(proofs[0].origin, Origin::Param(0));
    }

    #[test]
    fn congruence_tracks_strided_offsets() {
        let a = Cong::constant(8).mul(&Cong::top());
        assert_eq!(a, Cong { m: 8, r: 0 });
        let shifted = a.add(&Cong::constant(4));
        assert_eq!(shifted, Cong { m: 8, r: 4 });
        assert_eq!(shifted.tighten_hi(21), 20);
        assert_eq!(shifted.join(&Cong { m: 8, r: 0 }), Cong { m: 4, r: 0 });
        // Constant folding.
        assert_eq!(
            Cong::constant(6).mul(&Cong::constant(7)),
            Cong::constant(42)
        );
    }

    #[test]
    fn linexpr_algebra_and_eval() {
        let e = LinExpr::arg(2).mul_const(4).unwrap().add_const(-4).unwrap();
        assert_eq!(e.to_string(), "4*arg2 + -4");
        let k = know(
            vec![
                ArgInfo::Buffer { size: 16 },
                ArgInfo::Buffer { size: 16 },
                ArgInfo::Scalar { value: Some(10) },
            ],
            1,
            1,
        );
        assert_eq!(e.eval(&k), Some(36));
        let missing = know(
            vec![
                ArgInfo::Buffer { size: 16 },
                ArgInfo::Buffer { size: 16 },
                ArgInfo::Scalar { value: None },
            ],
            1,
            1,
        );
        assert_eq!(e.eval(&missing), None);
        // Terms cancel back to a constant.
        let z = e.add(&LinExpr::arg(2).mul_const(-4).unwrap()).unwrap();
        assert_eq!(z.as_const(), Some(-4));
    }

    #[test]
    fn rem_by_unknown_divisor_is_certified() {
        // out[(tid % n)*4] — the window [0, 4n − 4] only holds when the
        // divisor is positive, recorded as the side-condition n − 1 ≥ 0.
        let mut b = KernelBuilder::new("rem");
        let out = b.param_buffer("out", false);
        let n = b.param_scalar("n");
        let tid = b.global_thread_id();
        let r = b.rem(tid, n);
        let off = b.shl(r, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        let k = b.finish().unwrap();
        let vl = know(
            vec![
                ArgInfo::Buffer { size: 400 },
                ArgInfo::Scalar { value: None },
            ],
            256,
            16,
        );
        let proofs = prove_sites(&k, &vl);
        assert_eq!(proofs.len(), 1, "{proofs:?}");
        let p = &proofs[0];
        let e = p.hi_sym.as_ref().expect("symbolic remainder bound");
        assert_eq!((e.terms.clone(), e.k), (vec![(1, 4)], -4));
        assert!(!p.conds.is_empty(), "divisor positivity must be recorded");
        let with_n = |v| {
            know(
                vec![
                    ArgInfo::Buffer { size: 400 },
                    ArgInfo::Scalar { value: Some(v) },
                ],
                256,
                16,
            )
        };
        // n = 100: offsets in [0, 396], window [0, 400) fits exactly.
        assert_eq!(discharge(p, &k, &with_n(100)), Some((0, 400)));
        // n = 101: window [0, 404) exceeds the buffer.
        assert_eq!(discharge(p, &k, &with_n(101)), None);
        // n = 0: x % 0 = 0 in the ISA, but the recorded side-condition
        // n − 1 ≥ 0 fails, so the certificate is (soundly) not discharged.
        assert_eq!(discharge(p, &k, &with_n(0)), None);
    }

    #[test]
    fn quadratic_guard_discharges_within_fit_bounds() {
        // if (tid < n·n) out[tid*4] — the guard bound is the degree-2
        // monomial n², carried through the proof and evaluated (with the
        // magnitude fit) at discharge time.
        let mut b = KernelBuilder::new("quad");
        let out = b.param_buffer("out", false);
        let n = b.param_scalar("n");
        let tid = b.global_thread_id();
        let nn = b.mul(n, n);
        let c = b.lt(tid, nn);
        b.if_then(c, |b| {
            let off = b.shl(tid, Operand::Imm(2));
            b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        });
        b.ret();
        let k = b.finish().unwrap();
        let vl = know(
            vec![
                ArgInfo::Buffer { size: 400 },
                ArgInfo::Scalar { value: None },
            ],
            256,
            16,
        );
        let proofs = prove_sites(&k, &vl);
        assert_eq!(proofs.len(), 1, "{proofs:?}");
        let p = &proofs[0];
        let e = p.hi_sym.as_ref().expect("quadratic guard bound");
        assert_eq!(e.quad, vec![((1, 1), 4)], "4n² term");
        assert_eq!(e.k, -4);
        let with_n = |v| {
            know(
                vec![
                    ArgInfo::Buffer { size: 400 },
                    ArgInfo::Scalar { value: Some(v) },
                ],
                256,
                16,
            )
        };
        // n = 10: offsets in [0, 396] on 400 bytes.
        assert_eq!(discharge(p, &k, &with_n(10)), Some((0, 400)));
        // n = 11: 4·121 − 4 = 480 escapes the buffer.
        assert_eq!(discharge(p, &k, &with_n(11)), None);
        // n = 2⁴⁰: 4n² ≈ 2⁸² blows the evaluation fit bound — rejected,
        // never silently wrapped.
        assert_eq!(discharge(p, &k, &with_n(1 << 40)), None);
    }

    #[test]
    fn ge_guard_yields_symbolic_lower_bound() {
        // if (tid >= k) out[(tid − k)*4] — the interval domain sees a
        // possibly-negative offset; the guard floors it at zero.
        let mut b = KernelBuilder::new("floor");
        let out = b.param_buffer("out", false);
        let kk = b.param_scalar("k");
        let tid = b.global_thread_id();
        let c = b.ge(tid, kk);
        b.if_then(c, |b| {
            let d = b.sub(tid, kk);
            let off = b.shl(d, Operand::Imm(2));
            b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        });
        b.ret();
        let k = b.finish().unwrap();
        let vl = know(
            vec![
                ArgInfo::Buffer { size: 4096 },
                ArgInfo::Scalar { value: None },
            ],
            32,
            2,
        );
        let proofs = prove_sites(&k, &vl);
        assert_eq!(proofs.len(), 1, "{proofs:?}");
        let p = &proofs[0];
        assert!(
            p.lo_sym.is_some(),
            "the floor must be proven, not assumed: {p:?}"
        );
        // k = 10 over 64 threads: offsets in [0, 4·(63 − 10)] = [0, 212].
        let at = know(
            vec![
                ArgInfo::Buffer { size: 4096 },
                ArgInfo::Scalar { value: Some(10) },
            ],
            32,
            2,
        );
        assert_eq!(discharge(p, &k, &at), Some((0, 216)));
    }

    #[test]
    fn min_clamp_caps_an_oversized_index() {
        // out[min(gtid, n)*4] on a 40-byte buffer with 64 threads: the
        // interval bound (4·63 = 252) escapes the buffer, so only the
        // clamp's symbolic cap `n` proves the site. The clamp is *signed*
        // min, so a negative n would drag the offset negative — the
        // discharge-time window consistency check must catch that.
        let mut b = KernelBuilder::new("clamp");
        let out = b.param_buffer("out", false);
        let n = b.param_scalar("n");
        let tid = b.global_thread_id();
        let m = b.min(tid, n);
        let off = b.shl(m, Operand::Imm(2));
        b.st(
            MemSpace::Global,
            MemWidth::W4,
            b.base_offset(out, off),
            Operand::Imm(1),
        );
        b.ret();
        let k = b.finish().unwrap();
        let vl = know(
            vec![
                ArgInfo::Buffer { size: 40 },
                ArgInfo::Scalar { value: None },
            ],
            16,
            4,
        );
        let proofs = prove_sites(&k, &vl);
        assert_eq!(proofs.len(), 1, "{proofs:?}");
        let p = &proofs[0];
        let e = p.hi_sym.as_ref().expect("clamp must yield a symbolic cap");
        assert_eq!((e.terms.clone(), e.k), (vec![(1, 4)], 0), "4n");
        let with_n = |v| {
            know(
                vec![
                    ArgInfo::Buffer { size: 40 },
                    ArgInfo::Scalar { value: Some(v) },
                ],
                16,
                4,
            )
        };
        // n = 9: offsets in [0, 36] on 40 bytes — exactly fits.
        assert_eq!(discharge(p, &k, &with_n(9)), Some((0, 40)));
        // n = 10: the clamp itself reaches offset 40.
        assert_eq!(discharge(p, &k, &with_n(10)), None);
        // n = u64::MAX is −1 signed: min(gtid, −1) = −1, offset −4. The
        // symbolic hi evaluates past the fit bound and is rejected.
        assert_eq!(discharge(p, &k, &with_n(u64::MAX)), None);
    }
}
