//! Warp address-coalescing unit.
//!
//! The ACU merges the per-lane addresses of one SIMT memory instruction into
//! the minimal set of aligned 128-byte transactions (§5.5.1). The number of
//! transactions a memory instruction produces is central to GPUShield's
//! timing: a *single* coalesced transaction that hits the L1 Dcache is the
//! only case where an L1 RCache miss costs a pipeline bubble (Fig. 12).

/// GPU memory transaction granularity in bytes (one L1 cache line).
pub const TRANSACTION_BYTES: u64 = 128;

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
/// Build one from per-lane options with [`LaneSpan::of`];
/// [`WarpLanes::fill_row`] builds one from a row of lane addresses and its
/// active mask. Building never overflows; [`LaneSpan::range`] and the coalescer add
/// `width` to the highest start, which global VAs leave room for and
/// shared-space offsets need not.
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

    /// The span of the lanes of `row` set in `mask` (lane `i` is bit `i`,
    /// so `row` holds at most 64 lanes). A full mask, the common case,
    /// takes one branch-free pass over the row instead of a per-lane
    /// mask test.
    pub(crate) fn of_row(row: &[u64], mask: u64, width: u64) -> Self {
        let all = u64::MAX >> (64 - row.len().clamp(1, 64));
        let (Some(&first), Some(&last), true) = (row.first(), row.last(), mask & all == all) else {
            let mut span = LaneSpan::new(width);
            for (lane, &va) in row.iter().enumerate() {
                if mask >> lane & 1 != 0 {
                    span.push(va);
                }
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

    /// The span of the active lanes of `lane_addrs` (`None` = masked off).
    pub fn of(lane_addrs: &[Option<u64>], width: u64) -> Self {
        let mut span = LaneSpan::new(width);
        for &va in lane_addrs.iter().flatten() {
            span.push(va);
        }
        span
    }

    /// Number of active lanes.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Access width in bytes.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// The (min, max-exclusive-end) address pair, `None` with no lanes.
    pub fn range(&self) -> Option<(u64, u64)> {
        (self.active > 0).then(|| (self.lo, self.hi + self.width))
    }

    /// The last byte any lane touches (a zero-width access touches its
    /// start, as the coalescer counts it).
    pub(crate) fn last_byte(&self) -> u64 {
        self.hi + self.width.saturating_sub(1)
    }
}

/// One warp access's per-lane addresses together with their
/// [`LaneSpan`], built in one place so the two always agree. The
/// functions that take the span's shortcuts — [`coalesce_lanes_into`]
/// and the VM's `first_lane_fault`, `read_lanes` and `write_lanes` —
/// translate and index memory by the span alone when it allows, so a
/// summary of other lanes would send these lanes' data to the wrong
/// place; taking a `WarpLanes` they cannot be handed one.
///
/// The simulator keeps one per core and refills it with
/// [`WarpLanes::fill_row`] for every global access; the address vector
/// keeps its capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpLanes {
    vas: Vec<Option<u64>>,
    span: LaneSpan,
}

impl Default for WarpLanes {
    fn default() -> Self {
        WarpLanes {
            vas: Vec::new(),
            span: LaneSpan::new(0),
        }
    }
}

impl WarpLanes {
    /// The lanes `lane_addrs` (`None` = masked off) of a `width`-byte
    /// access.
    pub fn of(lane_addrs: &[Option<u64>], width: u64) -> Self {
        WarpLanes {
            vas: lane_addrs.to_vec(),
            span: LaneSpan::of(lane_addrs, width),
        }
    }

    /// Refills with the lanes of `row` set in `mask` (lane `i` is bit
    /// `i`, so `row` holds at most 64 lanes) of a `width`-byte access.
    /// A full mask, the common case, is summarised in one branch-free
    /// pass over the row.
    pub fn fill_row(&mut self, row: &[u64], mask: u64, width: u64) {
        self.vas.clear();
        self.vas.extend(
            row.iter()
                .enumerate()
                .map(|(lane, &va)| (mask >> lane & 1 != 0).then_some(va)),
        );
        self.span = LaneSpan::of_row(row, mask, width);
    }

    /// Empties to no lanes, keeping the vector's capacity.
    pub fn clear(&mut self) {
        self.vas.clear();
        self.span = LaneSpan::new(0);
    }

    /// Per-lane addresses (`None` = masked-off lane).
    pub fn vas(&self) -> &[Option<u64>] {
        &self.vas
    }

    /// The lanes' summary.
    pub fn span(&self) -> &LaneSpan {
        &self.span
    }
}

/// Coalesces the active lanes' addresses (`None` = masked-off lane) of one
/// `width`-byte access into unique, sorted 128-byte transactions.
///
/// Accesses that straddle a transaction boundary contribute to both
/// transactions, as real coalescers do.
///
/// # Example
///
/// ```
/// use gpushield_mem::coalesce_warp;
///
/// // A perfectly coalesced warp: 32 consecutive 4-byte accesses = 1 transaction.
/// let addrs: Vec<Option<u64>> = (0..32).map(|i| Some(0x1000 + i * 4)).collect();
/// assert_eq!(coalesce_warp(&addrs, 4).len(), 1);
///
/// // A strided warp: every lane on its own line = 32 transactions.
/// let addrs: Vec<Option<u64>> = (0..32).map(|i| Some(0x1000 + i * 128)).collect();
/// assert_eq!(coalesce_warp(&addrs, 4).len(), 32);
/// ```
pub fn coalesce_warp(lane_addrs: &[Option<u64>], width: u64) -> Vec<Transaction> {
    let mut txs = Vec::with_capacity(4);
    coalesce_warp_into(lane_addrs, width, &mut txs);
    txs
}

/// Allocation-free variant of [`coalesce_warp`]: clears `txs` and fills it
/// with the coalesced transactions, reusing its capacity.
pub fn coalesce_warp_into(lane_addrs: &[Option<u64>], width: u64, txs: &mut Vec<Transaction>) {
    coalesce_with_span(lane_addrs, &LaneSpan::of(lane_addrs, width), txs);
}

/// [`coalesce_warp_into`] for lanes already summarised by the AGU. The
/// simulator's LSU calls this once per memory instruction with the
/// core's lanes and a per-core scratch vector.
///
/// A dense warp, or one whose lanes all fall in one line, covers one run
/// of lines, computed without visiting the lanes. Other warps push each
/// lane's lines, and sort and deduplicate only when the pushes did not
/// come out strictly ascending.
pub fn coalesce_lanes_into(lanes: &WarpLanes, txs: &mut Vec<Transaction>) {
    coalesce_with_span(&lanes.vas, &lanes.span, txs);
}

/// The coalescer proper: `span` is `LaneSpan::of(lane_addrs, width)`.
fn coalesce_with_span(lane_addrs: &[Option<u64>], span: &LaneSpan, txs: &mut Vec<Transaction>) {
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
    for &addr in lane_addrs.iter().flatten() {
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

/// The per-warp (min, exclusive max end) address range the BCU's address
/// gathering stage computes for workgroup/warp-level bounds checking
/// (§5.5.1: "computes the minimum and maximum address pair").
///
/// Returns `None` when every lane is masked off.
pub fn warp_address_range(lane_addrs: &[Option<u64>], width: u64) -> Option<(u64, u64)> {
    LaneSpan::of(lane_addrs, width).range()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_masked_warp_produces_nothing() {
        let addrs = vec![None; 32];
        assert!(coalesce_warp(&addrs, 4).is_empty());
        assert!(warp_address_range(&addrs, 4).is_none());
    }

    #[test]
    fn straddling_access_touches_two_transactions() {
        let addrs = vec![Some(126u64)];
        let txs = coalesce_warp(&addrs, 4);
        assert_eq!(txs.len(), 2);
        assert_eq!(txs[0].base, 0);
        assert_eq!(txs[1].base, 128);
    }

    #[test]
    fn duplicate_addresses_merge() {
        let addrs: Vec<Option<u64>> = (0..32).map(|_| Some(0x2000)).collect();
        assert_eq!(coalesce_warp(&addrs, 8).len(), 1);
    }

    #[test]
    fn range_is_min_to_max_end() {
        let addrs = vec![Some(100u64), None, Some(10), Some(60)];
        assert_eq!(warp_address_range(&addrs, 4), Some((10, 104)));
    }

    /// The quadratic scan-for-duplicates coalescer that
    /// `coalesce_warp_into` replaced, kept as the reference.
    fn coalesce_by_scan(lane_addrs: &[Option<u64>], width: u64) -> Vec<Transaction> {
        let mut txs = Vec::new();
        for addr in lane_addrs.iter().flatten() {
            let last = Transaction::covering(addr + width.saturating_sub(1));
            let mut t = Transaction::covering(*addr);
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
        let mut txs = Vec::new();
        let (mut dense, mut one_line, mut ascending, mut shuffled) = (0, 0, 0, 0);
        for case in 0..2000 {
            let lanes = 1 + next() % 64;
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
            let addrs: Vec<Option<u64>> = (0..lanes)
                .map(|k| {
                    let a = match shape {
                        0 => base + next() % window,
                        1 => base + k * width,
                        2 => base + k * stride,
                        3 => base + (lanes - 1 - k) * stride,
                        4 => base,
                        _ => base + (k ^ 1) * width,
                    };
                    (next() % masked_one_in != 0).then_some(a)
                })
                .collect();
            let span = LaneSpan::of(&addrs, width);
            dense += usize::from(span.dense && span.active > 1);
            one_line += usize::from(
                span.active > 0
                    && Transaction::covering(span.lo) == Transaction::covering(span.last_byte()),
            );
            coalesce_warp_into(&addrs, width, &mut txs);
            let want = coalesce_by_scan(&addrs, width);
            assert_eq!(txs, want, "{addrs:?} width {width}");
            // Sorted pushes skip the sort: count the lane orders that did.
            let mut pushed: Vec<u64> = addrs.iter().flatten().map(|a| a & !127).collect();
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

    /// `of_row`'s full-mask pass and its per-lane path agree with the
    /// per-lane builder, and so does a refilled `WarpLanes`, on dense,
    /// strided, reversed, uniform, jittered and random rows, at the top
    /// of the address space too.
    #[test]
    fn row_spans_match_the_per_lane_span() {
        let mut state = 0x0F_5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut dense, mut filled) = (0, WarpLanes::default());
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
            let lanes_of: Vec<Option<u64>> = row
                .iter()
                .enumerate()
                .map(|(l, &va)| (mask >> l & 1 != 0).then_some(va))
                .collect();
            let span = LaneSpan::of_row(&row, mask, width);
            assert_eq!(
                span,
                LaneSpan::of(&lanes_of, width),
                "{row:x?} mask {mask:x}"
            );
            // Refilling one buffer gives what building afresh does.
            filled.fill_row(&row, mask, width);
            assert_eq!(filled, WarpLanes::of(&lanes_of, width));
            dense += usize::from(span.dense && span.active > 1);
        }
        assert!(dense > 200, "only {dense} dense rows");
    }

    #[test]
    fn span_summarises_the_active_lanes() {
        let lanes = [None, Some(0x108), Some(0x100), None, Some(0x110)];
        let span = LaneSpan::of(&lanes, 8);
        assert_eq!(
            (span.active, span.first, span.lo, span.hi),
            (3, 0x108, 0x100, 0x110)
        );
        assert!(!span.dense, "0x100 does not follow 0x108");
        assert_eq!(span.range(), Some((0x100, 0x118)));
        let dense = [Some(0x100), None, Some(0x108), Some(0x110), None];
        assert!(
            LaneSpan::of(&dense, 8).dense,
            "masked lanes do not break a run"
        );
        assert!(!LaneSpan::of(&dense, 4).dense, "a 4-byte gap does");
        assert_eq!(LaneSpan::of(&[None, None], 4).range(), None);
        // Shared-space offsets may sit anywhere: building a span never
        // overflows.
        let high = [Some(u64::MAX - 3), Some(u64::MAX)];
        assert!(!LaneSpan::of(&high, 8).dense);
    }

    #[test]
    fn transactions_are_sorted_and_unique() {
        let addrs = vec![Some(512u64), Some(0), Some(256), Some(0)];
        let txs = coalesce_warp(&addrs, 4);
        let bases: Vec<u64> = txs.iter().map(|t| t.base).collect();
        assert_eq!(bases, vec![0, 256, 512]);
    }
}
