//! Flight recorder: a fixed-capacity, allocation-free ring buffer of
//! structured events.
//!
//! The registry answers *how much* (counters, histograms); the flight
//! recorder answers *what happened just before things went wrong*. Every
//! layer of the stack — driver metadata paths, the BCU's check verdicts,
//! fault injection, the serving loop's admission decisions — records
//! [`FlightEvent`]s into one ring. When a violation or `RunError` fires,
//! the forensics pass (in the `gpushield` crate) walks the ring backwards
//! and reconstructs the causal chain.
//!
//! # Bounded and allocation-free
//!
//! The ring allocates exactly once, at construction. [`FlightRecorder::record`]
//! is O(1): it either appends (while filling) or overwrites the oldest
//! record, bumping the `dropped` counter. A capacity-0 recorder is the
//! *counters-only* mode: sequence numbers and drop counts advance but
//! nothing is stored, so the overhead floor is a branch and two
//! increments.
//!
//! # Determinism under parallelism
//!
//! Events carry the *simulated* timestamp at which they occurred plus a
//! monotone sequence number assigned at insertion. The parallel engine
//! routes in-kernel events through its per-core outboxes and replays
//! them in canonical `(cycle, core, seq)` order during the drain, so the
//! ring's contents are byte-identical at any `--sim-threads`. Events
//! recorded outside a run (driver-side) are timestamped against a
//! monotone epoch that advances by each run's cycle count, giving one
//! global causal timeline across launches.
//!
//! # Timeline rings
//!
//! A ring built with [`FlightRecorder::timeline`] also records the
//! engine's scheduling events — workgroup dispatch, every warp-level
//! memory instruction, barrier arrivals and warp retirement — so one
//! stream serves both forensics and the Chrome timeline export
//! (`gpushield_sim::chrome_timeline`). Other rings never see those kinds:
//! they would evict the verdicts a post-mortem walks back to.

use crate::Registry;

/// Default ring capacity for the full recorder mode.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// The `block` of a [`FlightEvent::Mem`] with no instruction site
/// (shared-memory accesses).
pub const NO_SITE: u32 = u32::MAX;

/// One structured event. Plain-integer payloads only: the recorder is
/// shared across crates, so symbolic types (check paths, abort reasons,
/// fault kinds) are carried as small integer codes the owning crate maps
/// in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEvent {
    /// A kernel was submitted to the GPU with `regions` protected
    /// regions installed.
    KernelLaunch { kernel_id: u16, regions: u16 },
    /// A kernel ran all workgroups to completion.
    KernelComplete { kernel_id: u16 },
    /// A kernel (or one launch of it) was aborted; `reason` is an
    /// `AbortReason` code from the sim crate.
    KernelAbort {
        kernel_id: u16,
        wg: u32,
        warp: u16,
        reason: u8,
    },
    /// The host allocated a device buffer (protected or not).
    BufferAlloc { index: u32, base: u64, size: u64 },
    /// The driver assigned a region ID and wrote its RBT entry.
    RegionAlloc { id: u16, base: u64, size: u64 },
    /// A region ID was released back to the allocator.
    RegionFree { id: u16 },
    /// A previously-released region ID was recycled to a new owner.
    RegionRecycle { id: u16 },
    /// The driver installed a kernel's bounds-analysis table.
    BatInstall {
        kernel_id: u16,
        sites_static: u16,
        sites_runtime: u16,
    },
    /// A check site was elided by a discharged certificate.
    CheckElide { block: u32, idx: u32 },
    /// The BCU checked one memory access. `path` is a `CheckPath` code,
    /// `verdict` a `GuardVerdict` code (sim crate mappings); `lo..hi` is
    /// the accessed byte range.
    CheckVerdict {
        kernel_id: u16,
        wg: u32,
        warp: u16,
        block: u32,
        idx: u32,
        path: u8,
        verdict: u8,
        is_store: bool,
        lo: u64,
        hi: u64,
    },
    /// A fault-injection session fired; `kind` is a `FaultKind` code.
    FaultInjected { kind: u8 },
    /// The run hit its cycle budget and the watchdog tripped.
    WatchdogTrip { budget: u64 },
    /// The serving loop admitted a tenant's launch.
    TenantAdmit { tenant: u16, kernel_id: u16 },
    /// The serving loop rejected a tenant's launch (e.g. region IDs
    /// exhausted).
    TenantReject { tenant: u16 },
    /// Timeline rings only: workgroup `wg` was placed on `core`.
    Dispatch { core: u16, wg: u32 },
    /// Timeline rings only: a warp executed a memory instruction. `space`
    /// is a `MemSpace` code (sim crate mapping); `transactions` and
    /// `stall` saturate at 255; `block` is [`NO_SITE`] for a
    /// shared-memory access, which has no site.
    Mem {
        core: u16,
        wg: u32,
        warp: u16,
        space: u8,
        is_store: bool,
        transactions: u8,
        stall: u8,
        block: u32,
        idx: u32,
    },
    /// Timeline rings only: a warp arrived at a barrier.
    Barrier { core: u16, wg: u32, warp: u16 },
    /// Timeline rings only: a warp retired.
    Retire { core: u16, wg: u32, warp: u16 },
}

impl FlightEvent {
    /// Short stable label for rendering and tests.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FlightEvent::KernelLaunch { .. } => "kernel_launch",
            FlightEvent::KernelComplete { .. } => "kernel_complete",
            FlightEvent::KernelAbort { .. } => "kernel_abort",
            FlightEvent::BufferAlloc { .. } => "buffer_alloc",
            FlightEvent::RegionAlloc { .. } => "region_alloc",
            FlightEvent::RegionFree { .. } => "region_free",
            FlightEvent::RegionRecycle { .. } => "region_recycle",
            FlightEvent::BatInstall { .. } => "bat_install",
            FlightEvent::CheckElide { .. } => "check_elide",
            FlightEvent::CheckVerdict { .. } => "check_verdict",
            FlightEvent::FaultInjected { .. } => "fault_injected",
            FlightEvent::WatchdogTrip { .. } => "watchdog_trip",
            FlightEvent::TenantAdmit { .. } => "tenant_admit",
            FlightEvent::TenantReject { .. } => "tenant_reject",
            FlightEvent::Dispatch { .. } => "dispatch",
            FlightEvent::Mem { .. } => "mem",
            FlightEvent::Barrier { .. } => "barrier",
            FlightEvent::Retire { .. } => "retire",
        }
    }
}

/// One ring slot: the event plus its global timestamp and insertion
/// sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotone insertion sequence number (never wraps with the ring).
    pub seq: u64,
    /// Global timestamp: the recorder epoch plus the in-run cycle.
    pub t: u64,
    /// The event payload.
    pub ev: FlightEvent,
}

/// The ring buffer. See the module docs for the contract.
#[derive(Debug)]
pub struct FlightRecorder {
    buf: Vec<FlightRecord>,
    capacity: usize,
    head: usize,
    seq: u64,
    dropped: u64,
    epoch: u64,
    timeline: bool,
}

impl FlightRecorder {
    /// A recorder storing at most `capacity` events. The single
    /// allocation happens here.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            seq: 0,
            dropped: 0,
            epoch: 0,
            timeline: false,
        }
    }

    /// A ring of `capacity` events that also records the engine's
    /// scheduling events (see the module docs).
    pub fn timeline(capacity: usize) -> Self {
        FlightRecorder {
            timeline: true,
            ..FlightRecorder::new(capacity)
        }
    }

    /// True when the engine records its scheduling events into this ring.
    pub fn records_timeline(&self) -> bool {
        self.timeline
    }

    /// Counters-only mode: sequence/drop counters advance, nothing is
    /// stored.
    pub fn counters_only() -> Self {
        FlightRecorder::new(0)
    }

    /// Full mode at the default ring capacity.
    pub fn full() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently resident in the ring.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded (including dropped ones).
    pub fn events_recorded(&self) -> u64 {
        self.seq
    }

    /// Events evicted by wrap-around or discarded by a capacity-0 ring.
    pub fn events_dropped(&self) -> u64 {
        self.dropped
    }

    /// The current epoch (global cycle offset applied to new events).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the epoch after a run consumed `cycles`, so events from
    /// successive launches land on one monotone timeline.
    pub fn advance_epoch(&mut self, cycles: u64) {
        self.epoch = self.epoch.saturating_add(cycles);
    }

    /// Records `ev` at in-run cycle `t` (global time `epoch + t`). O(1),
    /// allocation-free.
    pub fn record(&mut self, t: u64, ev: FlightEvent) {
        let rec = FlightRecord {
            seq: self.seq,
            t: self.epoch.saturating_add(t),
            ev,
        };
        self.seq += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records an out-of-run event at the current epoch.
    pub fn note(&mut self, ev: FlightEvent) {
        self.record(0, ev);
    }

    /// Resident records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &FlightRecord> {
        let n = self.buf.len();
        let head = self.head;
        (0..n).map(move |i| &self.buf[(head + i) % n.max(1)])
    }

    /// Resident records, newest first — the forensics walk order.
    pub fn iter_rev(&self) -> impl Iterator<Item = &FlightRecord> {
        let n = self.buf.len();
        let head = self.head;
        (0..n).rev().map(move |i| &self.buf[(head + i) % n.max(1)])
    }

    /// Drops all resident records but keeps counters and epoch.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }

    /// Publishes the `sim.flight.*` counter surface into `reg`.
    pub fn publish(&self, reg: &mut Registry) {
        if !reg.enabled() {
            return;
        }
        reg.set_named("sim.flight.capacity", self.capacity as u64);
        reg.set_named("sim.flight.events_recorded", self.seq);
        reg.set_named("sim.flight.events_dropped", self.dropped);
        reg.set_named("sim.flight.resident", self.buf.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_forty_bytes() {
        // Every in-run event crosses the engine's per-core outboxes by
        // value; the scheduling kinds must not widen the entry.
        assert_eq!(std::mem::size_of::<FlightEvent>(), 40);
    }

    #[test]
    fn only_timeline_rings_record_scheduling_events() {
        assert!(FlightRecorder::timeline(4).records_timeline());
        assert!(!FlightRecorder::full().records_timeline());
        assert!(!FlightRecorder::counters_only().records_timeline());
    }

    #[test]
    fn ring_fills_then_overwrites_oldest() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u16 {
            fr.record(u64::from(i), FlightEvent::RegionFree { id: i });
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.events_recorded(), 5);
        assert_eq!(fr.events_dropped(), 2);
        let ids: Vec<u64> = fr.iter().map(|r| r.seq).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest two evicted");
        let rev: Vec<u64> = fr.iter_rev().map(|r| r.seq).collect();
        assert_eq!(rev, vec![4, 3, 2]);
    }

    #[test]
    fn counters_only_mode_stores_nothing_but_counts() {
        let mut fr = FlightRecorder::counters_only();
        fr.note(FlightEvent::TenantReject { tenant: 1 });
        fr.record(9, FlightEvent::WatchdogTrip { budget: 100 });
        assert!(fr.is_empty());
        assert_eq!(fr.events_recorded(), 2);
        assert_eq!(fr.events_dropped(), 2);
        assert_eq!(fr.iter().count(), 0);
    }

    #[test]
    fn epoch_offsets_successive_runs_onto_one_timeline() {
        let mut fr = FlightRecorder::new(8);
        fr.record(10, FlightEvent::KernelComplete { kernel_id: 1 });
        fr.advance_epoch(100);
        fr.record(10, FlightEvent::KernelComplete { kernel_id: 2 });
        let ts: Vec<u64> = fr.iter().map(|r| r.t).collect();
        assert_eq!(ts, vec![10, 110]);
    }

    #[test]
    fn record_never_allocates_after_construction() {
        let mut fr = FlightRecorder::new(4);
        let cap_before = fr.buf.capacity();
        for i in 0..100u32 {
            fr.record(u64::from(i), FlightEvent::CheckElide { block: i, idx: 0 });
        }
        assert_eq!(fr.buf.capacity(), cap_before);
    }

    #[test]
    fn publish_emits_the_flight_surface() {
        let mut fr = FlightRecorder::new(2);
        fr.note(FlightEvent::RegionFree { id: 7 });
        let mut reg = Registry::new();
        fr.publish(&mut reg);
        assert_eq!(reg.value("sim.flight.capacity"), Some(2));
        assert_eq!(reg.value("sim.flight.events_recorded"), Some(1));
        assert_eq!(reg.value("sim.flight.events_dropped"), Some(0));
        assert_eq!(reg.value("sim.flight.resident"), Some(1));
        let mut off = Registry::disabled();
        fr.publish(&mut off);
        assert!(off.is_empty());
    }
}
