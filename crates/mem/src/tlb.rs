//! TLB model: a thin wrapper over [`Cache`] keyed by virtual page number.

use crate::cache::{Cache, CacheStats, Replacement};
use crate::vm::PAGE_SIZE;

/// TLB statistics (same shape as cache statistics).
pub type TlbStats = CacheStats;

/// A translation lookaside buffer.
///
/// Table 5 configures a 64-entry fully associative LRU L1 TLB per core and
/// a 1024-entry 32-way shared L2 TLB.
///
/// # Example
///
/// ```
/// use gpushield_mem::Tlb;
///
/// let mut tlb = Tlb::new(64, 0);
/// assert!(!tlb.access(0x1234)); // cold
/// assert!(tlb.access(0x1fff)); // same 4KB page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    inner: Cache,
}

impl Tlb {
    /// Creates a TLB with `entries` translations and `ways` associativity
    /// (0 = fully associative). Replacement is LRU per Table 5.
    pub fn new(entries: usize, ways: usize) -> Self {
        Tlb {
            // Key the underlying cache by page-granular "lines".
            inner: Cache::new(
                entries as u64 * PAGE_SIZE,
                PAGE_SIZE,
                ways,
                Replacement::Lru,
            ),
        }
    }

    /// Looks up the page of `va`, allocating on miss; `true` on hit.
    pub fn access(&mut self, va: u64) -> bool {
        self.inner.access(va)
    }

    /// Pure lookup: would `access` hit? No allocation, no statistics, no
    /// LRU update — the observation the parallel engine's phase stage uses
    /// to predict timing against a quantum-start snapshot.
    pub fn probe(&self, va: u64) -> bool {
        self.inner.probe(va)
    }

    /// Flushes all translations.
    pub fn flush(&mut self) {
        self.inner.flush();
    }

    /// Returns the TLB to its freshly constructed state (see
    /// [`Cache::reset`]).
    pub fn reset(&mut self) {
        self.inner.reset();
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.inner.stats()
    }

    /// Clears statistics.
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(4, 0);
        assert!(!t.access(0));
        assert!(t.access(4095));
        assert!(!t.access(4096));
    }

    #[test]
    fn capacity_evictions() {
        let mut t = Tlb::new(2, 0);
        t.access(0);
        t.access(PAGE_SIZE);
        t.access(0); // refresh page 0
        t.access(2 * PAGE_SIZE); // evicts page 1
        assert!(t.access(0));
        assert!(!t.access(PAGE_SIZE));
    }

    #[test]
    fn flush_forgets() {
        let mut t = Tlb::new(4, 0);
        t.access(0);
        t.flush();
        assert!(!t.access(0));
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn set_associative_tlb_maps_pages_to_sets() {
        // 4 entries, 2-way → 2 sets; pages alternate sets.
        let mut t = Tlb::new(4, 2);
        for p in 0..4u64 {
            t.access(p * PAGE_SIZE);
        }
        for p in 0..4u64 {
            assert!(t.access(p * PAGE_SIZE), "page {p} resident");
        }
        // Two more pages in set 0 evict the oldest there.
        t.access(4 * PAGE_SIZE);
        t.access(6 * PAGE_SIZE);
        assert!(!t.access(0), "page 0 evicted from its set");
        assert!(t.access(PAGE_SIZE), "other set untouched");
    }
}
