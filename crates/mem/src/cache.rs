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

/// One tag slot. The replacement clock advances before every allocation,
/// so a resident line's stamp is at least 1 and `stamp == 0` marks an
/// empty slot.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    /// LRU timestamp or FIFO insertion order; 0 = invalid.
    stamp: u64,
}

const EMPTY: Line = Line { tag: 0, stamp: 0 };

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
    /// All lines in one flat slab, `ways` consecutive slots per set. The
    /// whole capacity is reserved once, but lines are written only up to
    /// the end of the highest set touched so far; every set beyond
    /// `lines.len() / ways` is empty. Building, flushing or resetting a
    /// large cache therefore writes nothing, and a short run pays only
    /// for the sets it uses.
    lines: Vec<Line>,
    nsets: usize,
    /// `log2(line_bytes)`: an address's line is `addr >> line_shift`.
    line_shift: u32,
    /// `nsets - 1`: a line's set is `line & set_mask`.
    set_mask: u64,
    /// `log2(line_bytes * nsets)`: an address's tag is `addr >> tag_shift`.
    tag_shift: u32,
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
    /// Panics if sizes are zero or not divisible into whole sets, or if
    /// the line size or the set count is not a power of two (set and tag
    /// are then a mask and a shift of the address).
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
        assert!(
            line_bytes.is_power_of_two() && nsets.is_power_of_two(),
            "line size {line_bytes} and set count {nsets} must be powers of two"
        );
        let line_shift = line_bytes.trailing_zeros();
        Cache {
            lines: Vec::with_capacity(nsets * ways),
            nsets,
            line_shift,
            set_mask: nsets as u64 - 1,
            tag_shift: line_shift + nsets.trailing_zeros(),
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
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// The slots of set `set_idx`, initialising the slab up to the end of
    /// that set on its first touch.
    fn set_mut(&mut self, set_idx: usize) -> &mut [Line] {
        let end = (set_idx + 1) * self.ways;
        if end > self.lines.len() {
            self.grow(end);
        }
        &mut self.lines[end - self.ways..end]
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, end: usize) {
        // A clone carries only the initialised lines; reserve the rest
        // exactly once rather than letting `resize` double past it.
        self.lines
            .reserve_exact(self.nsets * self.ways - self.lines.len());
        self.lines.resize(end, EMPTY);
    }

    /// Writes `tag` into the victim slot of `set` — the first empty slot,
    /// else the least stamp (first slot on ties) — and returns whether a
    /// resident line was displaced.
    fn allocate(set: &mut [Line], tag: u64, tick: u64) -> bool {
        // A strict `<` keeps the first of equal stamps, so empty slots
        // (stamp 0) fill in slot order.
        let (victim, _) = set.iter().enumerate().fold((0, u64::MAX), |best, (i, l)| {
            if l.stamp < best.1 {
                (i, l.stamp)
            } else {
                best
            }
        });
        let displaced = set[victim].stamp != 0;
        set[victim] = Line { tag, stamp: tick };
        displaced
    }

    /// Looks up `addr`, allocating the line on miss. Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let lru = self.policy == Replacement::Lru;
        let tag = self.tag_of(addr);
        let set = self.set_mut(self.set_of(addr));
        if let Some(line) = set.iter_mut().find(|l| l.stamp != 0 && l.tag == tag) {
            if lru {
                line.stamp = tick;
            }
            self.stats.hits += 1;
            return true;
        }
        let displaced = Self::allocate(set, tag, tick);
        self.stats.misses += 1;
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
        self.lines
            .get(set_idx * self.ways..(set_idx + 1) * self.ways)
            .is_some_and(|set| set.iter().any(|l| l.stamp != 0 && l.tag == tag))
    }

    /// Inserts the line containing `addr` without counting an access.
    pub fn fill(&mut self, addr: u64) {
        self.tick += 1;
        let tick = self.tick;
        let tag = self.tag_of(addr);
        let set = self.set_mut(self.set_of(addr));
        if set.iter().any(|l| l.stamp != 0 && l.tag == tag) {
            return;
        }
        if Self::allocate(set, tag, tick) {
            self.stats.evictions += 1;
        }
    }

    /// Invalidates everything (kernel termination / context switch flush).
    pub fn flush(&mut self) {
        self.lines.clear();
    }

    /// Returns the cache to its freshly constructed state: every line
    /// empty, the replacement clock at zero and the statistics cleared.
    pub fn reset(&mut self) {
        self.lines.clear();
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
        1 << self.line_shift
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

    /// Deterministic splitmix64 stream for the reference test.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The eager tag array the lazy slab replaced: every line written at
    /// construction, an explicit valid bit, and flush/reset rewriting
    /// every line.
    struct RefCache {
        lines: Vec<(u64, bool, u64)>,
        nsets: usize,
        line_bytes: u64,
        ways: usize,
        policy: Replacement,
        tick: u64,
        stats: CacheStats,
    }

    impl RefCache {
        fn new(size_bytes: u64, line_bytes: u64, ways: usize, policy: Replacement) -> Self {
            let lines = (size_bytes / line_bytes) as usize;
            let ways = if ways == 0 { lines } else { ways };
            RefCache {
                lines: vec![(0, false, 0); lines],
                nsets: lines / ways,
                line_bytes,
                ways,
                policy,
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn set(&mut self, addr: u64) -> (usize, u64) {
            let line = addr / self.line_bytes;
            let set = (line % self.nsets as u64) as usize;
            (set * self.ways, line / self.nsets as u64)
        }

        fn find(&mut self, addr: u64) -> (usize, u64, Option<usize>) {
            let (base, tag) = self.set(addr);
            let hit = (base..base + self.ways).find(|&i| self.lines[i].1 && self.lines[i].0 == tag);
            (base, tag, hit)
        }

        fn allocate(&mut self, base: usize, tag: u64) {
            let mut victim = base;
            for i in base..base + self.ways {
                let rank = |l: (u64, bool, u64)| if l.1 { l.2 } else { 0 };
                if rank(self.lines[i]) < rank(self.lines[victim]) {
                    victim = i;
                }
            }
            if self.lines[victim].1 {
                self.stats.evictions += 1;
            }
            self.lines[victim] = (tag, true, self.tick);
        }

        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            match self.find(addr) {
                (_, _, Some(i)) => {
                    if self.policy == Replacement::Lru {
                        self.lines[i].2 = self.tick;
                    }
                    self.stats.hits += 1;
                    true
                }
                (base, tag, None) => {
                    self.stats.misses += 1;
                    self.allocate(base, tag);
                    false
                }
            }
        }

        fn fill(&mut self, addr: u64) {
            self.tick += 1;
            if let (base, tag, None) = self.find(addr) {
                self.allocate(base, tag);
            }
        }

        fn probe(&mut self, addr: u64) -> bool {
            self.find(addr).2.is_some()
        }

        fn flush(&mut self) {
            for l in &mut self.lines {
                l.1 = false;
            }
        }

        fn reset(&mut self) {
            self.lines.fill((0, false, 0));
            self.tick = 0;
            self.stats = CacheStats::default();
        }
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn a_set_count_that_is_not_a_power_of_two_is_rejected() {
        Cache::new(3 * 128, 128, 1, Replacement::Lru);
    }

    #[test]
    fn lazy_slab_matches_the_eager_reference() {
        // (size, line, ways): direct-mapped, set-associative with sparse
        // sets, and fully associative — each under LRU and FIFO.
        let shapes = [(2048, 64, 1), (4096, 32, 2), (1024, 128, 0)];
        let policies = [Replacement::Lru, Replacement::Fifo];
        let mut rng = Mix(0x0CAC_4E5E);
        for seq in 0..2000u64 {
            let (size, line, ways) = shapes[(seq % 3) as usize];
            let policy = policies[((seq / 3) % 2) as usize];
            let mut lazy = Cache::new(size, line, ways, policy);
            let mut eager = RefCache::new(size, line, ways, policy);
            // Addresses span three capacities, so sets fill, conflict and
            // evict, and some sets stay untouched for a while.
            let span = 3 * size;
            for step in 0..48 {
                let addr = rng.below(span);
                let ctx = format!("seq {seq} step {step} addr {addr:#x}");
                match rng.below(20) {
                    0..=9 => assert_eq!(lazy.access(addr), eager.access(addr), "access {ctx}"),
                    10..=13 => {
                        lazy.fill(addr);
                        eager.fill(addr);
                    }
                    14..=17 => assert_eq!(lazy.probe(addr), eager.probe(addr), "probe {ctx}"),
                    18 => {
                        lazy.flush();
                        eager.flush();
                    }
                    _ => {
                        lazy.reset();
                        eager.reset();
                    }
                }
                assert_eq!(lazy.stats(), eager.stats, "stats {ctx}");
            }
            // Every line the reference holds must answer a probe the same.
            for a in (0..span).step_by(line as usize) {
                assert_eq!(
                    lazy.probe(a),
                    eager.probe(a),
                    "final probe seq {seq} {a:#x}"
                );
            }
        }
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
