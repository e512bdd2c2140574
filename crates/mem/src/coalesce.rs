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
/// with the coalesced transactions, reusing its capacity. The simulator's
/// LSU calls this once per memory instruction with a per-core scratch
/// vector.
pub fn coalesce_warp_into(lane_addrs: &[Option<u64>], width: u64, txs: &mut Vec<Transaction>) {
    txs.clear();
    for addr in lane_addrs.iter().flatten() {
        let first = Transaction::covering(*addr).base;
        let last = Transaction::covering(addr + width.saturating_sub(1)).base;
        for base in (first..=last).step_by(TRANSACTION_BYTES as usize) {
            // Neighbouring lanes mostly share a line: skipping a repeat of
            // the previous push keeps the sort short on coalesced warps.
            let t = Transaction { base };
            if txs.last() != Some(&t) {
                txs.push(t);
            }
        }
    }
    txs.sort_unstable();
    txs.dedup();
}

/// The per-warp (min, max-inclusive-end) address range the BCU's address
/// gathering stage computes for workgroup/warp-level bounds checking
/// (§5.5.1: "computes the minimum and maximum address pair").
///
/// Returns `None` when every lane is masked off.
pub fn warp_address_range(lane_addrs: &[Option<u64>], width: u64) -> Option<(u64, u64)> {
    let mut range: Option<(u64, u64)> = None;
    for addr in lane_addrs.iter().flatten() {
        let lo = *addr;
        let hi = addr + width; // exclusive end
        range = Some(match range {
            None => (lo, hi),
            Some((a, b)) => (a.min(lo), b.max(hi)),
        });
    }
    range
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
    fn sort_dedup_matches_scan_on_random_lane_sets() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut txs = Vec::new();
        for case in 0..2000 {
            let lanes = 1 + (next() % 64) as usize;
            // Widths up to and past a whole transaction, so some accesses
            // straddle one or two line boundaries.
            let width = [1, 4, 8, 16, 100, 128, 200][case % 7];
            // A small window makes lanes collide on lines; a wide one
            // scatters them.
            let window = [256, 4096, 1 << 20][case % 3];
            let addrs: Vec<Option<u64>> = (0..lanes)
                .map(|_| {
                    let a = 0x1_0000 + next() % window;
                    // About a quarter of the lanes are masked off.
                    (next() % 4 != 0).then_some(a)
                })
                .collect();
            coalesce_warp_into(&addrs, width, &mut txs);
            assert_eq!(
                txs,
                coalesce_by_scan(&addrs, width),
                "{addrs:?} width {width}"
            );
        }
    }

    #[test]
    fn transactions_are_sorted_and_unique() {
        let addrs = vec![Some(512u64), Some(0), Some(256), Some(0)];
        let txs = coalesce_warp(&addrs, 4);
        let bases: Vec<u64> = txs.iter().map(|t| t.base).collect();
        assert_eq!(bases, vec![0, 256, 512]);
    }
}
