//! The benchmark's own arithmetic: medians, tail percentiles that refuse
//! thin tails, failure fractions, and host-side resource readings.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is a handful of outliers.
pub const MIN_TAIL: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `xs`, or `None`
/// when fewer than [`MIN_TAIL`] samples lie strictly above its rank.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_TAIL {
        return None;
    }
    Some(v[rank - 1])
}

/// Ops attempted in the timed phases of one run and how many of them had
/// a wrong outcome. Every attempt counts, including ones refused or
/// aborted, so the denominator is the work asked for, not the work done.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Attempted ops whose outcome was wrong.
    pub failed: u64,
}

impl Tally {
    /// Counts one attempted op.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Wrong ops ÷ attempted ops (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Median op time over the first and over the last tenth of `op_us`.
pub fn tenths_us(op_us: &[f64]) -> (f64, f64) {
    let k = (op_us.len() / 10).max(1).min(op_us.len());
    (
        median(&op_us[..k]).unwrap_or(0.0),
        median(&op_us[op_us.len() - k..]).unwrap_or(0.0),
    )
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), or 0 where
/// the file is unavailable.
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 of 1000 leaves exactly ten samples above it.
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        // One sample fewer leaves nine above rank 990: refused.
        assert_eq!(percentile(&xs[..999], 99.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 90.0), Some(180.0));
    }

    #[test]
    fn fail_frac_counts_every_attempt() {
        let mut t = Tally::default();
        for ok in [true, false, true, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.fail_frac(), 0.25);
        let mut both = Tally::default();
        both.absorb(t);
        both.absorb(Tally {
            attempted: 6,
            failed: 0,
        });
        // One wrong op over ten attempted across both phases.
        assert_eq!(both.fail_frac(), 0.1);
        assert_eq!(Tally::default().fail_frac(), 0.0);
    }

    #[test]
    fn tenths_take_both_ends() {
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        // A tenth of 20 ops is 2: {0, 1} and {18, 19}.
        assert_eq!(tenths_us(&xs), (0.5, 18.5));
        assert_eq!(tenths_us(&[7.0]), (7.0, 7.0));
    }
}
