//! Warp address-coalescing unit.
//!
//! The ACU merges the per-lane addresses of one SIMT memory instruction into
//! the minimal set of aligned 128-byte transactions (§5.5.1). The number of
//! transactions a memory instruction produces is central to GPUShield's
//! timing: a *single* coalesced transaction that hits the L1 Dcache is the
//! only case where an L1 RCache miss costs a pipeline bubble (Fig. 12).

/// GPU memory transaction granularity in bytes (one L1 cache line).
pub const TRANSACTION_BYTES: u64 = 128;

/// Lane capacity of a warp: an active mask is a `u64` with lane `l` at
/// bit `l`.
pub const MAX_LANES: usize = 64;

/// One value per lane of a warp, lane `l` at index `l` — the AGU's
/// address row, or a row of loaded or stored values.
pub type LaneRow = [u64; MAX_LANES];

/// The mask with lanes `0..lanes` set (every lane from `MAX_LANES` on).
pub fn lane_mask(lanes: usize) -> u64 {
    if lanes >= MAX_LANES {
        u64::MAX
    } else {
        (1 << lanes) - 1
    }
}

/// The lanes set in `mask`, in lane order.
fn set_lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// One coalesced memory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Transaction {
    /// 128-byte-aligned base address.
    pub base: u64,
}

impl Transaction {
    /// The transaction covering `addr`.
    pub fn covering(addr: u64) -> Self {
        Transaction {
            base: addr & !(TRANSACTION_BYTES - 1),
        }
    }

    /// True when `addr` falls inside this transaction.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + TRANSACTION_BYTES
    }
}

/// The address-gathering stage's one-pass summary of a warp access's
/// active lanes (§5.5.1's minimum/maximum address pair, plus what the
/// coalescer and the data path need to skip their per-lane work).
///
/// [`WarpLanes::fill`] builds the one every access carries. Building
/// never overflows; [`LaneSpan::range`] and the coalescer add `width` to
/// the highest start, which global VAs leave room for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSpan {
    /// Access width in bytes.
    pub(crate) width: u64,
    /// Number of active lanes.
    pub(crate) active: usize,
    /// The first active lane's address, in lane order.
    pub(crate) first: u64,
    /// Lowest lane start address.
    pub(crate) lo: u64,
    /// Highest lane start address.
    pub(crate) hi: u64,
    /// Each active lane starts where the previous active lane's access
    /// ended, so the lanes cover exactly `[lo, hi + width)`.
    pub(crate) dense: bool,
}

impl LaneSpan {
    /// The span of no lanes, for a `width`-byte access.
    fn new(width: u64) -> Self {
        LaneSpan {
            width,
            active: 0,
            first: 0,
            lo: u64::MAX,
            hi: 0,
            dense: true,
        }
    }

    /// Adds the next active lane (in lane order) starting at `va`.
    fn push(&mut self, va: u64) {
        if self.active == 0 {
            self.first = va;
        } else {
            // While dense, `hi` is the previous lane's start.
            self.dense &= self.hi.checked_add(self.width) == Some(va);
        }
        self.active += 1;
        self.lo = self.lo.min(va);
        self.hi = self.hi.max(va);
    }

    /// The span of the lanes of `row` set in `mask`, which has no bit at
    /// or past `row.len()`. A full mask, the common case, takes one
    /// branch-free pass over the row instead of visiting the set bits.
    fn of_row(row: &[u64], mask: u64, width: u64) -> Self {
        let (Some(&first), Some(&last), true) =
            (row.first(), row.last(), mask == lane_mask(row.len()))
        else {
            let mut span = LaneSpan::new(width);
            for lane in set_lanes(mask) {
                span.push(row[lane]);
            }
            return span;
        };
        // Lanes that step by `width` modulo 2^64, and whose last lane lies
        // where exact arithmetic puts it, step exactly: their extremes are
        // the end lanes.
        let reach = ((row.len() - 1) as u64).checked_mul(width);
        let dense = row.windows(2).all(|p| p[1].wrapping_sub(p[0]) == width)
            && reach.and_then(|d| first.checked_add(d)) == Some(last);
        let (lo, hi) = if dense {
            (first, last)
        } else {
            row.iter()
                .fold((u64::MAX, 0), |(lo, hi), &va| (lo.min(va), hi.max(va)))
        };
        LaneSpan {
            width,
            active: row.len(),
            first,
            lo,
            hi,
            dense,
        }
    }

    /// Number of active lanes.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Access width in bytes.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// The (min, max-exclusive-end) address pair the BCU checks
    /// (§5.5.1), `None` with no lanes.
    pub fn range(&self) -> Option<(u64, u64)> {
        (self.active > 0).then(|| (self.lo, self.hi + self.width))
    }

    /// The last byte any lane touches (a zero-width access touches its
    /// start, as the coalescer counts it).
    pub(crate) fn last_byte(&self) -> u64 {
        self.hi + self.width.saturating_sub(1)
    }
}

/// One warp access as the AGU produces it: the address row, the active
/// mask and their [`LaneSpan`], built in one place so the three always
/// agree. The functions that take the span's shortcuts —
/// [`coalesce_lanes_into`] and the VM's `first_lane_fault`, `read_lanes`
/// and `write_lanes` — translate and index memory by the span alone when
/// it allows, so a summary of other lanes would send these lanes' data to
/// the wrong place; taking a `WarpLanes` they cannot be handed one.
///
/// The simulator keeps one per core and refills it with
/// [`WarpLanes::fill`] for every global access.
#[derive(Debug, Clone)]
pub struct WarpLanes {
    row: LaneRow,
    /// The active lanes; no bit at or past the warp's width.
    mask: u64,
    span: LaneSpan,
}

impl Default for WarpLanes {
    fn default() -> Self {
        WarpLanes {
            row: [0; MAX_LANES],
            mask: 0,
            span: LaneSpan::new(0),
        }
    }
}

impl WarpLanes {
    /// Refills with a `width`-byte access by a warp of `lanes` lanes
    /// (at most [`MAX_LANES`]) whose active ones are set in `mask`: `agu`
    /// writes every active lane's address into its slot of the row, and
    /// its result is returned once the lanes are summarised. The row
    /// lends itself to `agu` only, so the summary always describes it.
    pub fn fill<R>(
        &mut self,
        lanes: usize,
        mask: u64,
        width: u64,
        agu: impl FnOnce(&mut LaneRow) -> R,
    ) -> R {
        let out = agu(&mut self.row);
        let row = &self.row[..lanes.min(MAX_LANES)];
        self.mask = mask & lane_mask(row.len());
        self.span = LaneSpan::of_row(row, self.mask, width);
        out
    }

    /// Empties to no lanes, as [`WarpLanes::default`] builds.
    pub fn clear(&mut self) {
        *self = WarpLanes::default();
    }

    /// The active lanes in lane order, as `(lane, address)`.
    pub fn active(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        set_lanes(self.mask).map(|lane| (lane, self.row[lane]))
    }

    /// The lanes' summary.
    pub fn span(&self) -> &LaneSpan {
        &self.span
    }
}

/// Coalesces the active lanes of one warp access into unique, sorted
/// 128-byte transactions, clearing `txs` first and reusing its capacity.
/// The simulator's LSU calls this once per memory instruction with the
/// core's lanes and a per-core scratch vector.
///
/// Accesses that straddle a transaction boundary contribute to both
/// transactions, as real coalescers do. A dense warp, or one whose lanes
/// all fall in one line, covers one run of lines, computed without
/// visiting the lanes. Other warps push each lane's lines, and sort and
/// deduplicate only when the pushes did not come out strictly ascending.
///
/// # Example
///
/// ```
/// use gpushield_mem::{coalesce_lanes_into, WarpLanes};
///
/// let (mut lanes, mut txs) = (WarpLanes::default(), Vec::new());
/// // A perfectly coalesced warp: 32 consecutive 4-byte accesses = 1 transaction.
/// lanes.fill(32, u64::MAX, 4, |row| {
///     (0..32).for_each(|i| row[i] = 0x1000 + i as u64 * 4)
/// });
/// coalesce_lanes_into(&lanes, &mut txs);
/// assert_eq!(txs.len(), 1);
///
/// // A strided warp: every lane on its own line = 32 transactions.
/// lanes.fill(32, u64::MAX, 4, |row| {
///     (0..32).for_each(|i| row[i] = 0x1000 + i as u64 * 128)
/// });
/// coalesce_lanes_into(&lanes, &mut txs);
/// assert_eq!(txs.len(), 32);
///
/// // Masked-off lanes take no part.
/// lanes.fill(32, 0b101, 4, |row| {
///     (0..32).for_each(|i| row[i] = 0x1000 + i as u64 * 128)
/// });
/// coalesce_lanes_into(&lanes, &mut txs);
/// assert_eq!(txs.len(), 2);
/// ```
pub fn coalesce_lanes_into(lanes: &WarpLanes, txs: &mut Vec<Transaction>) {
    let span = &lanes.span;
    txs.clear();
    if span.active == 0 {
        return;
    }
    let first = Transaction::covering(span.lo).base;
    let last = Transaction::covering(span.last_byte()).base;
    if span.dense || first == last {
        txs.extend(
            (first..=last)
                .step_by(TRANSACTION_BYTES as usize)
                .map(|base| Transaction { base }),
        );
        return;
    }
    let tail = span.width.saturating_sub(1);
    let mut ascending = true;
    for (_, addr) in lanes.active() {
        let first = Transaction::covering(addr).base;
        let last = Transaction::covering(addr + tail).base;
        for base in (first..=last).step_by(TRANSACTION_BYTES as usize) {
            // Neighbouring lanes mostly share a line: skipping a repeat of
            // the previous push keeps the list short on coalesced warps.
            match txs.last() {
                Some(prev) if prev.base == base => {}
                prev => {
                    ascending &= prev.is_none_or(|p| p.base < base);
                    txs.push(Transaction { base });
                }
            }
        }
    }
    if !ascending {
        txs.sort_unstable();
        txs.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lanes of `row` set in `mask`.
    fn lanes_of(row: &[u64], mask: u64, width: u64) -> WarpLanes {
        let mut lanes = WarpLanes::default();
        lanes.fill(row.len(), mask, width, |r| {
            r[..row.len()].copy_from_slice(row)
        });
        lanes
    }

    fn coalesce(row: &[u64], mask: u64, width: u64) -> Vec<Transaction> {
        let mut txs = Vec::new();
        coalesce_lanes_into(&lanes_of(row, mask, width), &mut txs);
        txs
    }

    #[test]
    fn fully_masked_warp_produces_nothing() {
        let row = [0x1000; 32];
        assert!(coalesce(&row, 0, 4).is_empty());
        assert!(lanes_of(&row, 0, 4).span().range().is_none());
    }

    #[test]
    fn straddling_access_touches_two_transactions() {
        let txs = coalesce(&[126], 1, 4);
        assert_eq!(txs.len(), 2);
        assert_eq!(txs[0].base, 0);
        assert_eq!(txs[1].base, 128);
    }

    #[test]
    fn duplicate_addresses_merge() {
        assert_eq!(coalesce(&[0x2000; 32], u64::MAX, 8).len(), 1);
    }

    #[test]
    fn range_is_min_to_max_end() {
        let lanes = lanes_of(&[100, 0, 10, 60], 0b1101, 4);
        assert_eq!(lanes.span().range(), Some((10, 104)));
    }

    /// The quadratic scan-for-duplicates coalescer that
    /// `coalesce_lanes_into` replaced, kept as the reference; it tests
    /// each lane's mask bit in turn.
    fn coalesce_by_scan(row: &[u64], mask: u64, width: u64) -> Vec<Transaction> {
        let mut txs = Vec::new();
        for (lane, &addr) in row.iter().enumerate() {
            if mask >> lane & 1 == 0 {
                continue;
            }
            let last = Transaction::covering(addr + width.saturating_sub(1));
            let mut t = Transaction::covering(addr);
            loop {
                if !txs.contains(&t) {
                    txs.push(t);
                }
                if t == last {
                    break;
                }
                t.base += TRANSACTION_BYTES;
            }
        }
        txs.sort_unstable();
        txs
    }

    /// The span of `row`'s lanes set in `mask`, folded lane by lane.
    fn span_by_fold(row: &[u64], mask: u64, width: u64) -> LaneSpan {
        let mut span = LaneSpan::new(width);
        for (lane, &va) in row.iter().enumerate() {
            if mask >> lane & 1 != 0 {
                span.push(va);
            }
        }
        span
    }

    #[test]
    fn every_path_matches_scan_on_random_lane_sets() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut lanes, mut txs) = (WarpLanes::default(), Vec::new());
        let (mut dense, mut one_line, mut ascending, mut shuffled) = (0, 0, 0, 0);
        for case in 0..2000 {
            let n = 1 + next() % 64;
            // Widths up to and past a whole transaction, so some accesses
            // straddle one or two line boundaries.
            let width = [1, 4, 8, 16, 100, 128, 200][case % 7];
            // A small window makes lanes collide on lines; a wide one
            // scatters them. The base sits anywhere in a line, so runs
            // start and end mid-line and lanes straddle line ends.
            let window = [256, 4096, 1 << 20][case % 3];
            let base = 0x1_0000 + next() % 512;
            let stride = [width, 2 * width, 128, 132, 3][(next() % 5) as usize];
            let shape = (case / 7) % 6;
            let masked_one_in = [u64::MAX, 4, 16][(next() % 3) as usize];
            let mut mask = 0u64;
            let row: Vec<u64> = (0..n)
                .map(|k| {
                    let a = match shape {
                        0 => base + next() % window,
                        1 => base + k * width,
                        2 => base + k * stride,
                        3 => base + (n - 1 - k) * stride,
                        4 => base,
                        _ => base + (k ^ 1) * width,
                    };
                    if next() % masked_one_in != 0 {
                        mask |= 1 << k;
                    }
                    a
                })
                .collect();
            lanes.fill(row.len(), mask, width, |r| {
                r[..row.len()].copy_from_slice(&row)
            });
            let span = *lanes.span();
            assert_eq!(span, span_by_fold(&row, mask, width));
            dense += usize::from(span.dense && span.active > 1);
            one_line += usize::from(
                span.active > 0
                    && Transaction::covering(span.lo) == Transaction::covering(span.last_byte()),
            );
            coalesce_lanes_into(&lanes, &mut txs);
            let want = coalesce_by_scan(&row, mask, width);
            assert_eq!(txs, want, "{row:x?} mask {mask:x} width {width}");
            // Sorted pushes skip the sort: count the lane orders that did.
            let mut pushed: Vec<u64> = lanes.active().map(|(_, a)| a & !127).collect();
            pushed.dedup();
            if pushed.windows(2).all(|p| p[0] < p[1]) {
                ascending += 1;
            } else {
                shuffled += 1;
            }
        }
        assert!(dense > 120, "only {dense} dense warps");
        assert!(one_line > 250, "only {one_line} one-line warps");
        assert!(ascending > 800, "only {ascending} ascending warps");
        assert!(shuffled > 500, "only {shuffled} shuffled warps");
    }

    /// A refilled `WarpLanes` — its full-mask pass and its set-bit path —
    /// agrees with the lane-by-lane fold and lists exactly the masked-in
    /// lanes, on dense, strided, reversed, uniform, jittered and random
    /// rows, at the top of the address space too, with masks that reach
    /// past the warp.
    #[test]
    fn row_spans_match_the_per_lane_span() {
        let mut state = 0x0F_5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut dense, mut full, mut filled) = (0, 0, WarpLanes::default());
        for case in 0..3000u64 {
            let lanes = 1 + next() % 64;
            let width = [0, 1, 4, 8, 128][(case % 5) as usize];
            let base = [0x1_0000, u64::MAX - 64 * 8][(case / 5 % 2) as usize] + next() % 64;
            let step = [width, width, width + 1, 0, 256][(next() % 5) as usize];
            let row: Vec<u64> = (0..lanes)
                .map(|k| match case / 10 % 5 {
                    0 => base.wrapping_add(k * step),
                    1 => base.wrapping_add((lanes - 1 - k) * step),
                    2 => base.wrapping_add(next() % 4096),
                    // Steps of width + 1 and width - 1 that can still end
                    // where a dense run would.
                    3 => base.wrapping_add(k * width + (k & 1)),
                    _ => base.wrapping_add((k ^ 1) * step),
                })
                .collect();
            let mask = match next() % 3 {
                0 => u64::MAX,
                1 => u64::MAX >> (64 - lanes),
                _ => next(),
            };
            // One buffer refilled for every case, as the simulator does.
            filled.fill(row.len(), mask, width, |r| {
                r[..row.len()].copy_from_slice(&row)
            });
            let span = *filled.span();
            assert_eq!(
                span,
                span_by_fold(&row, mask, width),
                "{row:x?} mask {mask:x}"
            );
            let want: Vec<(usize, u64)> = (0..row.len())
                .filter(|&l| mask >> l & 1 != 0)
                .map(|l| (l, row[l]))
                .collect();
            assert_eq!(filled.active().collect::<Vec<_>>(), want);
            dense += usize::from(span.dense && span.active > 1);
            full += usize::from(span.active == row.len());
        }
        assert!(dense > 200, "only {dense} dense rows");
        assert!(full > 1500, "only {full} rows took the full-mask pass");
    }

    #[test]
    fn span_summarises_the_active_lanes() {
        let span = *lanes_of(&[0, 0x108, 0x100, 0, 0x110], 0b10110, 8).span();
        assert_eq!(
            (span.active, span.first, span.lo, span.hi),
            (3, 0x108, 0x100, 0x110)
        );
        assert!(!span.dense, "0x100 does not follow 0x108");
        assert_eq!(span.range(), Some((0x100, 0x118)));
        let dense = [0x100, 0, 0x108, 0x110, 0];
        assert!(
            lanes_of(&dense, 0b01101, 8).span().dense,
            "masked lanes do not break a run"
        );
        assert!(
            !lanes_of(&dense, 0b01101, 4).span().dense,
            "a 4-byte gap does"
        );
        assert_eq!(lanes_of(&[7, 9], 0, 4).span().range(), None);
        // Building a span never overflows.
        let high = [u64::MAX - 3, u64::MAX];
        assert!(!lanes_of(&high, 0b11, 8).span().dense);
    }

    #[test]
    fn transactions_are_sorted_and_unique() {
        let txs = coalesce(&[512, 0, 256, 0], 0b1111, 4);
        let bases: Vec<u64> = txs.iter().map(|t| t.base).collect();
        assert_eq!(bases, vec![0, 256, 512]);
    }
}
