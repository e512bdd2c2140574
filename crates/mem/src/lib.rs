//! GPU memory-subsystem substrate for the GPUShield reproduction.
//!
//! Provides the components the cycle-level simulator composes into a memory
//! hierarchy (paper Table 5):
//!
//! * [`VirtualMemorySpace`] — VMAs with Nvidia-style allocation semantics
//!   (512-byte-aligned buffers packed into 2 MB mapped regions, which is
//!   what makes the Fig. 4 out-of-bounds behaviour reproducible), a 4 KB
//!   page table, and a sparse functional backing store.
//! * [`Cache`] — a generic set-associative tag-array model with LRU/FIFO
//!   replacement and hit/miss statistics.
//! * [`Tlb`] — a TLB specialisation of the same idea, keyed by page number.
//! * [`Dram`] — FR-FCFS-flavoured channel model with open-row tracking.
//! * [`coalesce`] — the warp address-coalescing unit that merges per-lane
//!   accesses into 128-byte transactions.
//! * [`SharedMemorySystem`] — the chip-shared L2 + L2 TLB + DRAM backend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod coalesce;
mod dram;
mod shared;
mod telemetry;
mod tlb;
mod vm;

pub use cache::{Cache, CacheStats, Replacement};
pub use coalesce::{
    coalesce_lanes_into, coalesce_warp, coalesce_warp_into, LaneSpan, Transaction, WarpLanes,
    TRANSACTION_BYTES,
};
pub use dram::{Dram, DramConfig, DramStats, DramView};
pub use shared::{MemTimings, SharedMemorySystem};
pub use telemetry::{
    publish_cache_stats, publish_dram_channels, publish_dram_stats, publish_tlb_stats,
};
pub use tlb::{Tlb, TlbStats};
pub use vm::{AllocPolicy, Allocation, MemFault, VirtualMemorySpace, PAGE_SIZE, REGION_SIZE};
