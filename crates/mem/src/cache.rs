//! Generic set-associative cache tag-array model.
//!
//! Data values live in the functional backing store
//! ([`crate::VirtualMemorySpace`]); the cache tracks *presence* and produces
//! hit/miss outcomes and statistics, which is all the timing model needs.

use std::fmt;

/// Replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Least-recently-used.
    Lru,
    /// First-in first-out (the paper's L1 RCache is a FIFO queue, §5.5).
    Fifo,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Line allocations that displaced a valid resident line — the
    /// capacity/conflict contention signal (co-located kernels fighting
    /// over sets show up here).
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; defined as 1 when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} hits ({:.1}%)",
            self.hits,
            self.accesses(),
            self.hit_rate() * 100.0
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    /// LRU timestamp or FIFO insertion order.
    stamp: u64,
}

/// A set-associative cache of address tags.
///
/// # Example
///
/// ```
/// use gpushield_mem::{Cache, Replacement};
///
/// // 16KB, 4-way, 128B lines — the paper's Nvidia L1 Dcache (Table 5).
/// let mut l1 = Cache::new(16 * 1024, 128, 4, Replacement::Lru);
/// assert!(!l1.access(0x1000)); // cold miss
/// assert!(l1.access(0x1000)); // hit
/// assert!(l1.access(0x1040)); // same 128B line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// All lines in one flat slab, `ways` consecutive slots per set — a
    /// single allocation per cache, reused across runs by
    /// [`Cache::reset`], and one cache line walk per set scan.
    lines: Vec<Line>,
    nsets: usize,
    line_bytes: u64,
    ways: usize,
    policy: Replacement,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `line_bytes` lines and `ways`
    /// associativity. A `ways` of 0 means fully associative.
    ///
    /// # Panics
    ///
    /// Panics if sizes are zero or not divisible into whole sets.
    pub fn new(size_bytes: u64, line_bytes: u64, ways: usize, policy: Replacement) -> Self {
        assert!(size_bytes > 0 && line_bytes > 0, "zero-size cache");
        let lines = size_bytes / line_bytes;
        assert!(lines > 0, "cache smaller than one line");
        let ways = if ways == 0 { lines as usize } else { ways };
        let nsets = (lines as usize).div_ceil(ways);
        assert_eq!(
            nsets * ways,
            lines as usize,
            "cache lines not divisible into sets"
        );
        Cache {
            lines: vec![
                Line {
                    tag: 0,
                    valid: false,
                    stamp: 0,
                };
                nsets * ways
            ],
            nsets,
            line_bytes,
            ways,
            policy,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Convenience constructor for a fully associative cache of `entries`
    /// lines (the paper's L2 RCache shape).
    pub fn fully_associative(entries: usize, line_bytes: u64, policy: Replacement) -> Self {
        Cache::new(entries as u64 * line_bytes, line_bytes, 0, policy)
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) % self.nsets as u64) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes / self.nsets as u64
    }

    fn set(&self, set_idx: usize) -> &[Line] {
        &self.lines[set_idx * self.ways..(set_idx + 1) * self.ways]
    }

    fn set_mut(&mut self, set_idx: usize) -> &mut [Line] {
        let ways = self.ways;
        &mut self.lines[set_idx * ways..(set_idx + 1) * ways]
    }

    /// Looks up `addr`, allocating the line on miss. Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let policy = self.policy;
        let set_idx = self.set_of(addr);
        let tag = self.tag_of(addr);
        let hit = {
            let set = self.set_mut(set_idx);
            if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
                if policy == Replacement::Lru {
                    line.stamp = tick;
                }
                true
            } else {
                false
            }
        };
        if hit {
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let set = self.set_mut(set_idx);
        // Invalid slots rank as stamp 0, so they fill first (in slot
        // order), exactly like the old grow-then-evict behaviour.
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.stamp } else { 0 })
            .expect("non-empty set");
        let displaced = victim.valid;
        victim.tag = tag;
        victim.valid = true;
        victim.stamp = tick;
        if displaced {
            self.stats.evictions += 1;
        }
        false
    }

    /// Pure lookup: returns `true` when the line holding `addr` is present.
    /// Unlike [`Cache::access`] it never allocates, never refreshes
    /// LRU/FIFO state, and never counts toward statistics — probing a cache
    /// to *ask* about its contents must not change them.
    pub fn probe(&self, addr: u64) -> bool {
        let set_idx = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.set(set_idx).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Inserts the line containing `addr` without counting an access.
    pub fn fill(&mut self, addr: u64) {
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_of(addr);
        let tag = self.tag_of(addr);
        let set = self.set_mut(set_idx);
        if set.iter().any(|l| l.valid && l.tag == tag) {
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.stamp } else { 0 })
            .expect("non-empty set");
        let displaced = victim.valid;
        victim.tag = tag;
        victim.valid = true;
        victim.stamp = tick;
        if displaced {
            self.stats.evictions += 1;
        }
    }

    /// Invalidates everything (kernel termination / context switch flush).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
        }
    }

    /// Returns the cache to its freshly constructed state: every line
    /// empty, the replacement clock at zero and the statistics cleared.
    /// Every line and statistic changes only together with the clock, so
    /// a cache untouched since construction or the last reset returns at
    /// once.
    pub fn reset(&mut self) {
        if self.tick == 0 {
            return;
        }
        self.lines.fill(Line {
            tag: 0,
            valid: false,
            stamp: 0,
        });
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears statistics (keeps contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        // 2 lines, fully associative, LRU.
        let mut c = Cache::new(256, 128, 0, Replacement::Lru);
        c.access(0); // A
        c.access(128); // B
        c.access(0); // touch A
        c.access(256); // C evicts B
        assert!(c.access(0), "A should survive");
        assert!(!c.access(128), "B should have been evicted");
    }

    #[test]
    fn fifo_evicts_first_in() {
        let mut c = Cache::new(256, 128, 0, Replacement::Fifo);
        c.access(0); // A first in
        c.access(128); // B
        c.access(0); // touching A does not refresh FIFO order
        c.access(256); // C evicts A
        assert!(!c.access(0), "A evicted despite being touched");
    }

    #[test]
    fn set_mapping_separates_conflicts() {
        // 2 sets, direct-mapped.
        let mut c = Cache::new(256, 128, 1, Replacement::Lru);
        c.access(0); // set 0
        c.access(128); // set 1
        assert!(c.access(0));
        assert!(c.access(128));
        c.access(256); // set 0, evicts 0
        assert!(!c.access(0));
        assert!(c.access(128), "other set untouched");
    }

    #[test]
    fn flush_empties() {
        let mut c = Cache::new(256, 128, 0, Replacement::Lru);
        c.access(0);
        c.flush();
        assert!(!c.access(0));
    }

    #[test]
    fn reset_restores_the_fresh_state() {
        let fresh = Cache::new(512, 128, 2, Replacement::Lru);
        let mut c = fresh.clone();
        c.reset();
        assert_eq!(format!("{c:?}"), format!("{fresh:?}"), "untouched reset");
        for a in [0, 128, 256, 384, 512, 0] {
            c.access(a);
        }
        c.fill(640);
        c.flush();
        c.access(768);
        c.reset();
        assert_eq!(format!("{c:?}"), format!("{fresh:?}"));
        assert!(!c.access(768), "reset forgets every line");
    }

    #[test]
    fn stats_track_rates() {
        let mut c = Cache::new(256, 128, 0, Replacement::Lru);
        c.access(0);
        c.access(0);
        c.access(0);
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn evictions_count_only_valid_victims() {
        // Two lines, fully associative: the first two allocations land in
        // invalid slots (no eviction), the third displaces a resident.
        let mut c = Cache::new(256, 128, 0, Replacement::Lru);
        c.access(0);
        c.access(128);
        assert_eq!(c.stats().evictions, 0, "cold fills evict nothing");
        c.access(256);
        assert_eq!(c.stats().evictions, 1);
        c.fill(384);
        assert_eq!(c.stats().evictions, 2, "fill() evictions count too");
        // Re-filling a resident line displaces nothing.
        c.fill(384);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = Cache::new(256, 128, 0, Replacement::Lru);
        assert!(!c.probe(0));
        assert!(!c.probe(0));
        c.fill(0);
        assert!(c.probe(0));
    }

    #[test]
    fn probe_is_observation_only() {
        let mut c = Cache::new(256, 128, 0, Replacement::Lru);
        c.access(0); // A
        c.access(128); // B — A is now LRU
        let stats_before = c.stats();
        assert!(c.probe(0), "A resident");
        assert_eq!(c.stats(), stats_before, "probe leaves stats untouched");
        // A probe must not refresh LRU order: C still evicts A.
        c.access(256);
        assert!(!c.probe(0), "A evicted despite being probed");
        assert!(c.probe(128), "B survived");
    }
}
