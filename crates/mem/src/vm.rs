//! Virtual memory with GPU-driver allocation semantics.
//!
//! The paper's Fig. 4 exploit hinges on three properties of Nvidia's
//! allocator that this module reproduces:
//!
//! 1. buffers are 512-byte aligned and packed consecutively, so a small
//!    out-of-bounds write inside the same 512-byte slot is *suppressed*
//!    (it lands in the victim buffer's own padding);
//! 2. consecutive allocations share 2 MB mapped regions, so larger
//!    out-of-bounds writes *silently corrupt neighbouring buffers*;
//! 3. only accesses that leave every mapped region *fault*.
//!
//! Allocation policies also include power-of-two alignment with padding,
//! which GPUShield's Type 3 pointers require (§5.3.3).

use crate::coalesce::{LaneSpan, WarpLanes};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// Translation granularity (bytes).
pub const PAGE_SIZE: u64 = 4096;
/// Mapped-region (VMA) granularity: Nvidia GPUs use 2 MB pages for device
/// memory, producing the 2 MB protection granularity observed in §3.1.
pub const REGION_SIZE: u64 = 2 * 1024 * 1024;

const ALLOC_ALIGN: u64 = 512;

/// How a buffer is aligned and padded inside the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Nvidia-style: 512-byte alignment, consecutive packing in 2 MB
    /// regions.
    Device512,
    /// Power-of-two size padding *and* alignment (GPUShield Type 3
    /// pointers). The wasted padding bytes are the memory-fragmentation
    /// cost §5.3.3 discusses; the driver can lay a canary in them.
    PowerOfTwo,
    /// Isolated: the buffer gets its own mapped region(s), so any
    /// out-of-bounds access faults (used for the RBT's own pages, which the
    /// driver makes inaccessible to normal translation, §5.4).
    Isolated,
}

/// A successful allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Base virtual address.
    pub va: u64,
    /// Requested size in bytes.
    pub size: u64,
    /// Size actually reserved (≥ `size`; differs under
    /// [`AllocPolicy::PowerOfTwo`]).
    pub reserved: u64,
}

impl Allocation {
    /// One past the last requested byte.
    pub fn end(&self) -> u64 {
        self.va + self.size
    }

    /// One past the last reserved byte.
    pub fn reserved_end(&self) -> u64 {
        self.va + self.reserved
    }
}

/// A memory-access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// The virtual address is not covered by any mapped region — the GPU
    /// aborts the kernel with an illegal-memory-access error (Fig. 4 case 3).
    Unmapped {
        /// Faulting virtual address.
        va: u64,
    },
    /// The address belongs to a page the driver made inaccessible (the RBT
    /// pages, §5.4).
    Protected {
        /// Faulting virtual address.
        va: u64,
    },
    /// An integer access asked for a width outside 1..=8 bytes — malformed
    /// input (e.g. a corrupted kernel image), not a memory condition.
    BadWidth {
        /// The rejected width.
        width: u64,
    },
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::Unmapped { va } => write!(f, "illegal memory access at 0x{va:x}"),
            MemFault::Protected { va } => write!(f, "access to protected page at 0x{va:x}"),
            MemFault::BadWidth { width } => {
                write!(f, "unsupported integer access width {width}")
            }
        }
    }
}

impl Error for MemFault {}

#[derive(Debug, Clone, Copy)]
struct Region {
    start: u64,
    end: u64,
    protected: bool,
}

/// A per-context GPU virtual address space with a functional backing store.
///
/// # Example
///
/// ```
/// use gpushield_mem::{AllocPolicy, VirtualMemorySpace};
///
/// let mut vm = VirtualMemorySpace::new();
/// let a = vm.alloc(64, AllocPolicy::Device512).unwrap();
/// let b = vm.alloc(64, AllocPolicy::Device512).unwrap();
/// assert_eq!(b.va - a.va, 512); // 512B-aligned consecutive packing
/// vm.write(a.va, &42u64.to_le_bytes()).unwrap();
/// let mut buf = [0u8; 8];
/// vm.read(a.va, &mut buf).unwrap();
/// assert_eq!(u64::from_le_bytes(buf), 42);
/// ```
#[derive(Debug, Default)]
pub struct VirtualMemorySpace {
    regions: Vec<Region>,
    /// Two-level (radix) page table: the root is indexed by the high bits
    /// of the VA page number, each leaf by the low [`LEAF_BITS`] bits.
    /// Entries store *frame number + 1* (0 = unmapped), so a zeroed leaf is
    /// all-invalid. Allocations are carved from a monotonically increasing
    /// cursor, so the root stays small and dense — the common load/store
    /// translation is two array indexes.
    page_root: Vec<Option<Box<[u64; LEAF_ENTRIES]>>>,
    /// PA frame number → data, lazily populated (untouched pages read as
    /// zero without materializing a frame). Frames are atomic bytes behind
    /// a `OnceLock` so the *run-time* data path (`read`, `write`, the
    /// `_uint` and `_lanes` pairs, the bypass pair) works through `&self`:
    /// simulated cores on different worker threads share one address space
    /// with no lock. Relaxed per-byte atomics deliberately model GPU global
    /// memory: racing same-byte plain accesses from different cores within
    /// one cycle quantum have no ordering guarantee (real GPUs give none
    /// either); programs that need cross-core ordering use atomics, which
    /// the simulator serialises at the quantum drain.
    frames: Vec<OnceLock<Box<[AtomicU8]>>>,
    next_frame: u64,
    /// Bump cursor inside the current shared region.
    cursor: u64,
    /// End of the current shared region.
    cursor_region_end: u64,
    /// Next unmapped VA (regions are carved from here).
    next_region_va: u64,
    /// Last successful [`VirtualMemorySpace::translate`], packed as
    /// `(page number + 1) << XLATE_FRAME_BITS | frame` (0 = empty; see
    /// [`xlate_pack`]). A single word so concurrent readers can share it
    /// without tearing: the cache is pure memoization — a hit returns
    /// exactly what the radix walk would — so cross-thread races only
    /// affect *which* translation is remembered, never the result.
    /// Invalidated by [`VirtualMemorySpace::protect`] (mappings are never
    /// removed, so new regions cannot stale it).
    last_xlate: AtomicU64,
    /// Last successful bypass translation; protection changes do not affect
    /// the bypass path, so this cache never needs invalidation.
    last_bypass: AtomicU64,
}

/// Bits of the packed translation-cache word holding the frame number.
/// VAs are ≤ 48 bits (pn + 1 < 2³⁷), leaving room for 26 frame bits —
/// 256 GB of backing store; larger spaces simply skip the one-entry cache.
const XLATE_FRAME_BITS: u32 = 26;

/// Packs a translation-cache entry, or `None` when it does not fit.
#[inline]
fn xlate_pack(pn: u64, frame: u64) -> Option<u64> {
    let tag = pn + 1;
    (frame < (1 << XLATE_FRAME_BITS) && tag < (1 << (64 - XLATE_FRAME_BITS)))
        .then_some((tag << XLATE_FRAME_BITS) | frame)
}

/// Probes a packed translation cache for `pn`, returning the PA page base.
#[inline]
fn xlate_probe(cache: &AtomicU64, pn: u64) -> Option<u64> {
    let packed = cache.load(Ordering::Relaxed);
    (packed >> XLATE_FRAME_BITS == pn + 1)
        .then(|| (packed & ((1 << XLATE_FRAME_BITS) - 1)) * PAGE_SIZE)
}

/// Copies frame bytes out into a plain buffer (relaxed per-byte loads
/// compile down to plain byte copies).
#[inline]
fn copy_out(src: &[AtomicU8], dst: &mut [u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.load(Ordering::Relaxed);
    }
}

/// Copies a plain buffer into frame bytes.
#[inline]
fn copy_in(src: &[u8], dst: &[AtomicU8]) {
    for (s, d) in src.iter().zip(dst) {
        d.store(*s, Ordering::Relaxed);
    }
}

/// Pages per page-table leaf (512 × 4 KB = one 2 MB region per leaf).
const LEAF_BITS: u32 = 9;
const LEAF_ENTRIES: usize = 1 << LEAF_BITS;

impl VirtualMemorySpace {
    /// Creates an empty address space. Region 0 is left unmapped so that
    /// null-ish pointers always fault.
    pub fn new() -> Self {
        VirtualMemorySpace {
            next_region_va: REGION_SIZE,
            ..VirtualMemorySpace::default()
        }
    }

    fn map_region(&mut self, bytes: u64, protected: bool) -> u64 {
        let nregions = bytes.div_ceil(REGION_SIZE).max(1);
        let start = self.next_region_va;
        let end = start + nregions * REGION_SIZE;
        self.next_region_va = end;
        self.regions.push(Region {
            start,
            end,
            protected,
        });
        // Install translations eagerly: the GPU driver backs device
        // allocations with physical memory up front.
        let mut va = start;
        while va < end {
            let pn = va / PAGE_SIZE;
            let root_idx = (pn >> LEAF_BITS) as usize;
            if root_idx >= self.page_root.len() {
                self.page_root.resize_with(root_idx + 1, || None);
            }
            let leaf =
                self.page_root[root_idx].get_or_insert_with(|| Box::new([0u64; LEAF_ENTRIES]));
            leaf[pn as usize & (LEAF_ENTRIES - 1)] = self.next_frame + 1;
            self.next_frame += 1;
            va += PAGE_SIZE;
        }
        self.frames
            .resize_with(self.next_frame as usize, OnceLock::new);
        start
    }

    /// Two-index page-table walk: VA page number → PA frame number.
    #[inline]
    fn lookup_frame(&self, pn: u64) -> Option<u64> {
        let leaf = self.page_root.get((pn >> LEAF_BITS) as usize)?.as_ref()?;
        leaf[pn as usize & (LEAF_ENTRIES - 1)].checked_sub(1)
    }

    /// Allocates `size` bytes under `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::Unmapped`] only in the degenerate `size == 0`
    /// case is *not* an error — zero-size allocations reserve one alignment
    /// slot, matching CUDA. This method currently cannot fail but returns
    /// `Result` to keep the driver-facing API uniform with `read`/`write`.
    pub fn alloc(&mut self, size: u64, policy: AllocPolicy) -> Result<Allocation, MemFault> {
        match policy {
            AllocPolicy::Device512 => {
                let reserved = size.max(1).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
                if self.cursor + reserved > self.cursor_region_end {
                    let start = self.map_region(reserved, false);
                    self.cursor = start;
                    self.cursor_region_end = self.regions.last().expect("just mapped").end;
                }
                let va = self.cursor;
                self.cursor += reserved;
                Ok(Allocation { va, size, reserved })
            }
            AllocPolicy::PowerOfTwo => {
                let reserved = size.max(1).next_power_of_two().max(ALLOC_ALIGN);
                // Align the cursor itself to the reserved size.
                let aligned = self.cursor.div_ceil(reserved) * reserved;
                if aligned + reserved > self.cursor_region_end {
                    let start = self.map_region(reserved, false);
                    self.cursor = start;
                    self.cursor_region_end = self.regions.last().expect("just mapped").end;
                }
                let va = self.cursor.div_ceil(reserved) * reserved;
                self.cursor = va + reserved;
                Ok(Allocation { va, size, reserved })
            }
            AllocPolicy::Isolated => {
                let va = self.map_region(size.max(1), false);
                Ok(Allocation {
                    va,
                    size,
                    reserved: size.max(1).div_ceil(REGION_SIZE).max(1) * REGION_SIZE,
                })
            }
        }
    }

    /// Physical frames backing mapped pages. Mappings are installed
    /// eagerly and never removed, so this is the address space's
    /// high-water mark of device memory.
    pub fn mapped_frames(&self) -> u64 {
        self.next_frame
    }

    /// Marks every page overlapping `[va, va+len)` as driver-protected;
    /// normal accesses then fault with [`MemFault::Protected`].
    pub fn protect(&mut self, va: u64, len: u64) {
        for r in &mut self.regions {
            if va < r.end && va + len > r.start {
                r.protected = true;
            }
        }
        // The normal-path translation cache may hold a page that just became
        // protected; drop it. (The bypass cache ignores protection.)
        self.last_xlate.store(0, Ordering::Relaxed);
    }

    fn region_of(&self, va: u64) -> Option<&Region> {
        // Regions are carved from a monotonically increasing cursor, so the
        // list is sorted by start address; binary search keeps the hot
        // functional-access path cheap.
        let idx = self.regions.partition_point(|r| r.start <= va);
        let r = self.regions.get(idx.checked_sub(1)?)?;
        (va < r.end).then_some(r)
    }

    /// Translates a virtual address, honouring protection.
    ///
    /// # Errors
    ///
    /// [`MemFault::Unmapped`] outside every region, [`MemFault::Protected`]
    /// inside a protected one.
    pub fn translate(&self, va: u64) -> Result<u64, MemFault> {
        let pn = va / PAGE_SIZE;
        if let Some(pa_base) = xlate_probe(&self.last_xlate, pn) {
            return Ok(pa_base + va % PAGE_SIZE);
        }
        match self.region_of(va) {
            None => Err(MemFault::Unmapped { va }),
            Some(r) if r.protected => Err(MemFault::Protected { va }),
            Some(_) => {
                let frame = self.lookup_frame(pn).ok_or(MemFault::Unmapped { va })?;
                if let Some(packed) = xlate_pack(pn, frame) {
                    self.last_xlate.store(packed, Ordering::Relaxed);
                }
                Ok(frame * PAGE_SIZE + va % PAGE_SIZE)
            }
        }
    }

    /// Like [`VirtualMemorySpace::translate`] but ignores protection — the
    /// hardware path GPU cores use for RBT fetches (§5.4: "RBT accesses in
    /// GPU cores will bypass the address translation").
    pub fn translate_bypass(&self, va: u64) -> Result<u64, MemFault> {
        let pn = va / PAGE_SIZE;
        if let Some(pa_base) = xlate_probe(&self.last_bypass, pn) {
            return Ok(pa_base + va % PAGE_SIZE);
        }
        match self.region_of(va) {
            None => Err(MemFault::Unmapped { va }),
            Some(_) => {
                let frame = self.lookup_frame(pn).ok_or(MemFault::Unmapped { va })?;
                if let Some(packed) = xlate_pack(pn, frame) {
                    self.last_bypass.store(packed, Ordering::Relaxed);
                }
                Ok(frame * PAGE_SIZE + va % PAGE_SIZE)
            }
        }
    }

    /// The frame's backing bytes, or `None` while it is still all-zero.
    #[inline]
    fn frame(&self, frame: u64) -> Option<&[AtomicU8]> {
        self.frames.get(frame as usize)?.get().map(|f| &f[..])
    }

    /// The frame's backing bytes, materializing the zero-filled page on
    /// first touch. Lock-free after initialization; losers of a racing
    /// first touch drop their page and use the winner's (both are zero).
    #[inline]
    fn frame_init(&self, frame: u64) -> &[AtomicU8] {
        self.frames[frame as usize]
            .get_or_init(|| (0..PAGE_SIZE).map(|_| AtomicU8::new(0)).collect())
    }

    /// Reads `buf.len()` bytes starting at `va`.
    ///
    /// # Errors
    ///
    /// Faults as [`VirtualMemorySpace::translate`] does, at the first
    /// untranslatable byte.
    pub fn read(&self, va: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va + done as u64;
            let pa = self.translate(cur)?;
            let in_page = (PAGE_SIZE - pa % PAGE_SIZE) as usize;
            let take = in_page.min(buf.len() - done);
            match self.frame(pa / PAGE_SIZE) {
                Some(f) => {
                    let off = (pa % PAGE_SIZE) as usize;
                    copy_out(&f[off..off + take], &mut buf[done..done + take]);
                }
                None => buf[done..done + take].fill(0),
            }
            done += take;
        }
        Ok(())
    }

    /// Writes `buf` starting at `va`.
    ///
    /// # Errors
    ///
    /// Faults as [`VirtualMemorySpace::translate`] does; bytes before the
    /// fault are written (device stores are not transactional).
    pub fn write(&self, va: u64, buf: &[u8]) -> Result<(), MemFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va + done as u64;
            let pa = self.translate(cur)?;
            let in_page = (PAGE_SIZE - pa % PAGE_SIZE) as usize;
            let take = in_page.min(buf.len() - done);
            let off = (pa % PAGE_SIZE) as usize;
            copy_in(
                &buf[done..done + take],
                &self.frame_init(pa / PAGE_SIZE)[off..off + take],
            );
            done += take;
        }
        Ok(())
    }

    /// Reads a little-endian unsigned integer of `width` ∈ 1..=8 bytes.
    ///
    /// # Errors
    ///
    /// Faults as [`VirtualMemorySpace::read`] does, plus
    /// [`MemFault::BadWidth`] for widths outside 1..=8.
    pub fn read_uint(&self, va: u64, width: u64) -> Result<u64, MemFault> {
        if width == 0 || width > 8 {
            return Err(MemFault::BadWidth { width });
        }
        let mut buf = [0u8; 8];
        self.read(va, &mut buf[..width as usize])?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes the low `width` bytes of `value` little-endian at `va`.
    ///
    /// # Errors
    ///
    /// Faults as [`VirtualMemorySpace::write`] does, plus
    /// [`MemFault::BadWidth`] for widths outside 1..=8.
    pub fn write_uint(&self, va: u64, width: u64, value: u64) -> Result<(), MemFault> {
        if width == 0 || width > 8 {
            return Err(MemFault::BadWidth { width });
        }
        let bytes = value.to_le_bytes();
        self.write(va, &bytes[..width as usize])
    }

    /// The fault of the first active lane (in lane order) whose address
    /// does not translate, or `None` when every lane does — exactly what
    /// calling [`VirtualMemorySpace::translate`] on each lane reports.
    /// Translation depends only on the page, so a warp whose lane starts
    /// all lie in one page translates its first lane only, and any other
    /// warp translates each run of consecutive same-page lanes once.
    pub fn first_lane_fault(&self, lanes: &WarpLanes) -> Option<MemFault> {
        let (vas, span) = (lanes.vas(), lanes.span());
        if span.active == 0 {
            return None;
        }
        if span.lo / PAGE_SIZE == span.hi / PAGE_SIZE {
            return self.translate(span.first).err();
        }
        let mut page = u64::MAX;
        for &va in vas.iter().flatten() {
            if va / PAGE_SIZE != page {
                if let Err(f) = self.translate(va) {
                    return Some(f);
                }
                page = va / PAGE_SIZE;
            }
        }
        None
    }

    /// True when every byte of the span's lanes lies in one page and its
    /// width is a valid integer width: the lane data path then translates
    /// once and indexes the frame directly.
    fn one_page(span: &LaneSpan) -> bool {
        span.active > 0
            && (1..=8).contains(&span.width)
            && span.lo / PAGE_SIZE == span.hi.saturating_add(span.width - 1) / PAGE_SIZE
    }

    /// Resolves the frame behind `va`'s page, reusing `run` while lanes
    /// stay on the page it caches: `(page number, frame bytes)`, where a
    /// never-touched frame is `None` unless `materialize` creates it.
    #[inline]
    fn lane_frame<'s>(
        &'s self,
        run: &mut Option<(u64, Option<&'s [AtomicU8]>)>,
        va: u64,
        materialize: bool,
    ) -> Result<Option<&'s [AtomicU8]>, MemFault> {
        let pn = va / PAGE_SIZE;
        if let Some((p, f)) = *run {
            if p == pn {
                return Ok(f);
            }
        }
        let frame = self.translate(va)? / PAGE_SIZE;
        let f = if materialize {
            Some(self.frame_init(frame))
        } else {
            self.frame(frame)
        };
        *run = Some((pn, f));
        Ok(f)
    }

    /// Reads a `width`-byte little-endian integer for every active lane
    /// of `lanes` into the same lane of `out` (masked-off lanes are left
    /// alone): [`VirtualMemorySpace::read_uint`] per lane. A warp whose
    /// bytes all lie in one page translates once; any other translates
    /// each run of same-page lanes once. Lanes that straddle a page, and
    /// widths outside 1..=8, take `read_uint` itself.
    ///
    /// # Errors
    ///
    /// Stops at the first faulting lane in lane order with that lane's
    /// `read_uint` fault.
    pub fn read_lanes(&self, lanes: &WarpLanes, out: &mut [u64]) -> Result<(), MemFault> {
        let (vas, span) = (lanes.vas(), lanes.span());
        let (width, w) = (span.width, span.width as usize);
        if Self::one_page(span) {
            // Every lane's page faults as the first lane's does.
            let frame = self.frame(self.translate(span.first)? / PAGE_SIZE);
            for (&va, o) in vas.iter().zip(out.iter_mut()) {
                let Some(va) = va else { continue };
                let mut bytes = [0u8; 8];
                if let Some(f) = frame {
                    let off = (va % PAGE_SIZE) as usize;
                    copy_out(&f[off..off + w], &mut bytes[..w]);
                }
                *o = u64::from_le_bytes(bytes);
            }
            return Ok(());
        }
        let mut run = None;
        for (&va, o) in vas.iter().zip(out.iter_mut()) {
            let Some(va) = va else { continue };
            let off = (va % PAGE_SIZE) as usize;
            if !(1..=8).contains(&w) || off + w > PAGE_SIZE as usize {
                *o = self.read_uint(va, width)?;
                continue;
            }
            let mut bytes = [0u8; 8];
            if let Some(f) = self.lane_frame(&mut run, va, false)? {
                copy_out(&f[off..off + w], &mut bytes[..w]);
            }
            *o = u64::from_le_bytes(bytes);
        }
        Ok(())
    }

    /// Writes the low `width` bytes of each active lane's value in `vals`
    /// at that lane's address, in lane order (so a later lane wins a
    /// same-address race): [`VirtualMemorySpace::write_uint`] per lane. A
    /// warp whose bytes all lie in one page translates once; any other
    /// translates each run of same-page lanes once. Lanes that straddle a
    /// page, and widths outside 1..=8, take `write_uint` itself.
    ///
    /// # Errors
    ///
    /// Stops at the first faulting lane in lane order with that lane's
    /// `write_uint` fault; every earlier lane has been written.
    pub fn write_lanes(&self, lanes: &WarpLanes, vals: &[u64]) -> Result<(), MemFault> {
        let (vas, span) = (lanes.vas(), lanes.span());
        let (width, w) = (span.width, span.width as usize);
        if Self::one_page(span) {
            let frame = self.frame_init(self.translate(span.first)? / PAGE_SIZE);
            for (&va, &v) in vas.iter().zip(vals) {
                let Some(va) = va else { continue };
                let off = (va % PAGE_SIZE) as usize;
                copy_in(&v.to_le_bytes()[..w], &frame[off..off + w]);
            }
            return Ok(());
        }
        let mut run = None;
        for (&va, &v) in vas.iter().zip(vals) {
            let Some(va) = va else { continue };
            let off = (va % PAGE_SIZE) as usize;
            if !(1..=8).contains(&w) || off + w > PAGE_SIZE as usize {
                self.write_uint(va, width, v)?;
                continue;
            }
            if let Some(f) = self.lane_frame(&mut run, va, true)? {
                copy_in(&v.to_le_bytes()[..w], &f[off..off + w]);
            }
        }
        Ok(())
    }

    /// Bypass-translation write used by the driver/hardware for RBT pages.
    ///
    /// # Errors
    ///
    /// Faults only when the address is wholly unmapped.
    pub fn write_bypass(&self, va: u64, buf: &[u8]) -> Result<(), MemFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va + done as u64;
            let pa = self.translate_bypass(cur)?;
            let in_page = (PAGE_SIZE - pa % PAGE_SIZE) as usize;
            let take = in_page.min(buf.len() - done);
            let off = (pa % PAGE_SIZE) as usize;
            copy_in(
                &buf[done..done + take],
                &self.frame_init(pa / PAGE_SIZE)[off..off + take],
            );
            done += take;
        }
        Ok(())
    }

    /// Bypass-translation read used by the hardware for RBT fetches.
    ///
    /// # Errors
    ///
    /// Faults only when the address is wholly unmapped.
    pub fn read_bypass(&self, va: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va + done as u64;
            let pa = self.translate_bypass(cur)?;
            let in_page = (PAGE_SIZE - pa % PAGE_SIZE) as usize;
            let take = in_page.min(buf.len() - done);
            match self.frame(pa / PAGE_SIZE) {
                Some(f) => {
                    let off = (pa % PAGE_SIZE) as usize;
                    copy_out(&f[off..off + take], &mut buf[done..done + take]);
                }
                None => buf[done..done + take].fill(0),
            }
            done += take;
        }
        Ok(())
    }

    /// Number of distinct 4 KB pages covering `[va, va+size)` — the Fig. 11
    /// quantity.
    pub fn pages_spanned(va: u64, size: u64) -> u64 {
        if size == 0 {
            return 0;
        }
        (va + size - 1) / PAGE_SIZE - va / PAGE_SIZE + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_allocs_are_512_apart() {
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(64, AllocPolicy::Device512).unwrap();
        let b = vm.alloc(64, AllocPolicy::Device512).unwrap();
        assert_eq!(a.va % 512, 0);
        assert_eq!(b.va, a.va + 512);
    }

    #[test]
    fn mapped_frames_counts_every_mapped_page() -> Result<(), MemFault> {
        let mut vm = VirtualMemorySpace::new();
        assert_eq!(vm.mapped_frames(), 0);
        vm.alloc(64, AllocPolicy::Device512)?;
        vm.alloc(64, AllocPolicy::Device512)?;
        let per_region = REGION_SIZE / PAGE_SIZE;
        assert_eq!(vm.mapped_frames(), per_region, "packed into one region");
        vm.alloc(REGION_SIZE + 1, AllocPolicy::Isolated)?;
        assert_eq!(vm.mapped_frames(), 3 * per_region);
        Ok(())
    }

    #[test]
    fn oob_within_region_corrupts_neighbour() {
        // Fig. 4 case 2: a write past A's end lands in B without faulting.
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(64, AllocPolicy::Device512).unwrap();
        let b = vm.alloc(64, AllocPolicy::Device512).unwrap();
        vm.write_uint(a.va + 512, 4, 0xBAD).unwrap();
        assert_eq!(vm.read_uint(b.va, 4).unwrap(), 0xBAD);
    }

    #[test]
    fn degenerate_widths_fault_instead_of_panicking() {
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(64, AllocPolicy::Device512).unwrap();
        assert_eq!(vm.read_uint(a.va, 0), Err(MemFault::BadWidth { width: 0 }));
        assert_eq!(vm.read_uint(a.va, 9), Err(MemFault::BadWidth { width: 9 }));
        assert_eq!(
            vm.write_uint(a.va, 16, 1),
            Err(MemFault::BadWidth { width: 16 })
        );
        assert_eq!(
            MemFault::BadWidth { width: 9 }.to_string(),
            "unsupported integer access width 9"
        );
    }

    #[test]
    fn oob_crossing_region_faults() {
        // Fig. 4 case 3: crossing the 2MB mapped region aborts.
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(64, AllocPolicy::Device512).unwrap();
        let err = vm.write_uint(a.va + 4 * REGION_SIZE, 4, 0xBAD).unwrap_err();
        assert!(matches!(err, MemFault::Unmapped { .. }));
    }

    #[test]
    fn power_of_two_policy_aligns_and_pads() {
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(100, AllocPolicy::PowerOfTwo).unwrap();
        assert_eq!(a.reserved, 512); // max(next_pow2(100)=128, 512)
        assert_eq!(a.va % a.reserved, 0);
        let b = vm.alloc(5000, AllocPolicy::PowerOfTwo).unwrap();
        assert_eq!(b.reserved, 8192);
        assert_eq!(b.va % 8192, 0);
    }

    #[test]
    fn protected_pages_fault_but_bypass_works() {
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(4096, AllocPolicy::Isolated).unwrap();
        vm.write_uint(a.va, 8, 7).unwrap();
        vm.protect(a.va, a.size);
        assert!(matches!(
            vm.read_uint(a.va, 8),
            Err(MemFault::Protected { .. })
        ));
        let mut buf = [0u8; 8];
        vm.read_bypass(a.va, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 7);
    }

    #[test]
    fn rw_roundtrip_across_page_boundary() {
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(2 * PAGE_SIZE, AllocPolicy::Device512).unwrap();
        let va = a.va + PAGE_SIZE - 3;
        vm.write_uint(va, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(vm.read_uint(va, 8).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn pages_spanned_counts() {
        assert_eq!(VirtualMemorySpace::pages_spanned(0, 4096), 1);
        assert_eq!(VirtualMemorySpace::pages_spanned(4095, 2), 2);
        assert_eq!(VirtualMemorySpace::pages_spanned(0, 0), 0);
        assert_eq!(VirtualMemorySpace::pages_spanned(512, 8192), 3);
    }

    #[test]
    fn zero_addresses_fault() {
        let vm = VirtualMemorySpace::new();
        assert!(vm.translate(0).is_err());
        assert!(vm.translate(100).is_err());
    }

    /// Deterministic splitmix64 stream for the lane reference tests.
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

    /// A six-page buffer at the start of its 2 MB region (pages 0-1
    /// filled, the rest never touched), followed by a protected isolated
    /// region. Returns the space, the buffer base and the protected base.
    fn lane_space() -> Result<(VirtualMemorySpace, u64, u64), MemFault> {
        let mut vm = VirtualMemorySpace::new();
        let a = vm.alloc(6 * PAGE_SIZE, AllocPolicy::Device512)?;
        for i in 0..2 * PAGE_SIZE / 8 {
            vm.write_uint(a.va + i * 8, 8, i.wrapping_mul(0x0123_4567_89AB_CDEF))?;
        }
        let p = vm.alloc(PAGE_SIZE, AllocPolicy::Isolated)?;
        vm.protect(p.va, p.size);
        assert_eq!(p.va, a.va + REGION_SIZE);
        Ok((vm, a.va, p.va))
    }

    /// Every byte the lane tests can reach: the buffer pages plus the
    /// page on either side of the region boundary.
    fn image(vm: &VirtualMemorySpace, base: u64) -> Result<Vec<u8>, MemFault> {
        let mut bytes = vec![0u8; 9 * PAGE_SIZE as usize];
        let (low, high) = bytes.split_at_mut(7 * PAGE_SIZE as usize);
        vm.read_bypass(base, low)?;
        vm.read_bypass(base + REGION_SIZE - PAGE_SIZE, high)?;
        Ok(bytes)
    }

    fn ref_first_fault(vm: &VirtualMemorySpace, vas: &[Option<u64>]) -> Option<MemFault> {
        vas.iter().flatten().find_map(|&va| vm.translate(va).err())
    }

    fn ref_read(
        vm: &VirtualMemorySpace,
        vas: &[Option<u64>],
        width: u64,
        out: &mut [u64],
    ) -> Result<(), MemFault> {
        for (lane, va) in vas.iter().enumerate() {
            if let Some(va) = *va {
                out[lane] = vm.read_uint(va, width)?;
            }
        }
        Ok(())
    }

    fn ref_write(
        vm: &VirtualMemorySpace,
        vas: &[Option<u64>],
        width: u64,
        vals: &[u64],
    ) -> Result<(), MemFault> {
        for (lane, va) in vas.iter().enumerate() {
            if let Some(va) = *va {
                vm.write_uint(va, width, vals[lane])?;
            }
        }
        Ok(())
    }

    /// One random warp: masked-off lanes, in-page and page-straddling
    /// lanes over every buffer page in no particular order, duplicates of
    /// earlier lanes and, when `faults`, rare unmapped, protected and
    /// region-end-straddling lanes.
    fn random_lanes(rng: &mut Mix, base: u64, prot: u64, faults: bool) -> Vec<Option<u64>> {
        let n = 1 + rng.below(64) as usize;
        let mut vas: Vec<Option<u64>> = Vec::with_capacity(n);
        for _ in 0..n {
            let page = base + rng.below(6) * PAGE_SIZE;
            let va = match rng.below(40) {
                0..=9 => None,
                10..=15 => Some(page + 4089 + rng.below(7)),
                16..=19 => vas.iter().flatten().last().copied().or(Some(page)),
                20 if faults => Some(0x1000 + rng.below(PAGE_SIZE)),
                21 if faults => Some(prot + rng.below(PAGE_SIZE)),
                22 if faults => Some(prot - 1 - rng.below(7)),
                _ => Some(page + rng.below(PAGE_SIZE - 8)),
            };
            vas.push(va);
        }
        vas
    }

    /// Runs one warp through the lane functions on a fresh space and
    /// through the per-lane reference on another: the same fault, the
    /// same loads from the initial image (filled and never-touched
    /// pages), the same store result and byte image, and the same loads
    /// once the stores materialized frames. Returns whether it faulted.
    fn match_reference(
        vas: &[Option<u64>],
        width: u64,
        vals: &[u64],
        ctx: &str,
    ) -> Result<bool, MemFault> {
        let (vm, base, _) = lane_space()?;
        let (ref_vm, _, _) = lane_space()?;
        let lanes = WarpLanes::of(vas, width);
        let fault = ref_first_fault(&ref_vm, vas);
        assert_eq!(vm.first_lane_fault(&lanes), fault, "{ctx}");
        for fresh in [true, false] {
            if !fresh {
                assert_eq!(
                    vm.write_lanes(&lanes, vals),
                    ref_write(&ref_vm, vas, width, vals),
                    "{ctx}"
                );
                assert_eq!(image(&vm, base)?, image(&ref_vm, base)?, "{ctx}");
            }
            let (mut got, mut want) = (vec![!0u64; vas.len()], vec![!0u64; vas.len()]);
            assert_eq!(
                vm.read_lanes(&lanes, &mut got),
                ref_read(&ref_vm, vas, width, &mut want),
                "{ctx}"
            );
            assert_eq!(got, want, "{ctx}");
        }
        Ok(fault.is_some())
    }

    #[test]
    fn lane_functions_match_per_lane_reference() -> Result<(), MemFault> {
        const WIDTHS: [u64; 10] = [1, 2, 4, 8, 1, 2, 4, 8, 0, 9];
        let mut rng = Mix(0x1A9E);
        let (mut faulted, mut straddled) = (0, 0);
        for case in 0..400 {
            let (_, base, prot) = lane_space()?;
            let vas = random_lanes(&mut rng, base, prot, case % 2 == 1);
            let width = WIDTHS[rng.below(10) as usize];
            let vals: Vec<u64> = (0..vas.len()).map(|_| rng.next()).collect();
            let ctx = format!("case {case}: width {width}, lanes {vas:x?}");
            faulted += usize::from(match_reference(&vas, width, &vals, &ctx)?);
            straddled += usize::from(
                vas.iter()
                    .flatten()
                    .any(|va| va % PAGE_SIZE + width.clamp(1, 8) > PAGE_SIZE),
            );
        }
        assert!(faulted > 40, "only {faulted} warps exercised a fault");
        assert!(straddled > 100, "only {straddled} warps straddled a page");
        Ok(())
    }

    /// One warp whose lane starts all lie in one page — a filled page, a
    /// never-touched one, the last page before the protected region, an
    /// unmapped or a protected page — laid out dense, uniform, strided,
    /// reversed or at random, with masked-off lanes, duplicates and, now
    /// and then, a last lane that straddles the page end.
    fn one_page_lanes(rng: &mut Mix, base: u64, prot: u64, width: u64) -> Vec<Option<u64>> {
        let page = [
            base,
            base + PAGE_SIZE,
            base + 3 * PAGE_SIZE,
            prot - PAGE_SIZE,
            0x1000,
            prot,
        ][rng.below(6) as usize];
        let n = 1 + rng.below(64);
        let w = width.clamp(1, 8);
        let stride = [w, w, 0, 2 * w, 16, 64][rng.below(6) as usize];
        let room = PAGE_SIZE - w - stride * (n - 1);
        let at = if stride * (n - 1) + w <= PAGE_SIZE {
            rng.below(room + 1)
        } else {
            0
        };
        let shape = rng.below(4);
        let mut vas: Vec<Option<u64>> = (0..n)
            .map(|k| {
                let off = match shape {
                    0 => at + k * stride,
                    1 => at + (n - 1 - k) * stride,
                    2 => rng.below(PAGE_SIZE - w + 1),
                    _ => at + (k / 2) * stride,
                };
                Some(page + off.min(PAGE_SIZE - 1))
            })
            .collect();
        // Half the warps run with every lane active.
        let masked_one_in = [u64::MAX, u64::MAX, 3, 8][rng.below(4) as usize];
        for va in &mut vas {
            if rng.below(masked_one_in) == 0 {
                *va = None;
            }
        }
        if rng.below(4) == 0 {
            let last = vas.len() - 1;
            vas[last] = Some(page + PAGE_SIZE - 1 - rng.below(w));
        }
        vas
    }

    #[test]
    fn one_page_span_paths_match_per_lane_reference() -> Result<(), MemFault> {
        const WIDTHS: [u64; 6] = [1, 2, 4, 8, 4, 0];
        let mut rng = Mix(0x0E_9A6E);
        let (mut one_page, mut dense, mut faulted) = (0, 0, 0);
        for case in 0..600 {
            let (_, base, prot) = lane_space()?;
            let width = WIDTHS[rng.below(6) as usize];
            let vas = one_page_lanes(&mut rng, base, prot, width);
            let vals: Vec<u64> = (0..vas.len()).map(|_| rng.next()).collect();
            let ctx = format!("case {case}: width {width}, lanes {vas:x?}");
            let span = LaneSpan::of(&vas, width);
            one_page += usize::from(VirtualMemorySpace::one_page(&span));
            dense += usize::from(span.dense && span.active > 1);
            faulted += usize::from(match_reference(&vas, width, &vals, &ctx)?);
        }
        assert!(
            one_page > 250,
            "only {one_page} warps took the one-page path"
        );
        assert!(dense > 15, "only {dense} warps were dense");
        assert!(faulted > 100, "only {faulted} warps exercised a fault");
        Ok(())
    }

    #[test]
    fn one_page_path_takes_warps_up_to_the_last_byte_of_the_page() {
        let warp =
            |first: u64| -> Vec<Option<u64>> { (0..32).map(|k| Some(first + k * 4)).collect() };
        let one_page =
            |vas: &[Option<u64>], width| VirtualMemorySpace::one_page(&LaneSpan::of(vas, width));
        let flush = warp(2 * PAGE_SIZE - 128);
        assert!(
            one_page(&flush, 4),
            "the last lane ends on the page's last byte"
        );
        assert!(
            !one_page(&warp(2 * PAGE_SIZE - 127), 4),
            "the last lane straddles"
        );
        assert!(!one_page(&flush, 8), "8-byte lanes run into the next page");
        assert!(
            !one_page(&flush, 0) && !one_page(&flush, 9),
            "not an integer width"
        );
        assert!(!one_page(&[None, None], 4), "no lanes");
    }

    #[test]
    fn lane_faults_mid_warp_stop_at_the_first_faulting_lane() -> Result<(), MemFault> {
        let (vm, base, prot) = lane_space()?;
        let unmapped = 0x1000;
        let mut vas: Vec<Option<u64>> = (0..32)
            .map(|l| Some(base + 3 * PAGE_SIZE + l * 4))
            .collect();
        vas[10] = Some(unmapped);
        vas[20] = Some(prot + 64);
        let vals: Vec<u64> = (0..32).map(|l| 0x100 + l).collect();
        let unmapped_fault = MemFault::Unmapped { va: unmapped };
        let lanes = WarpLanes::of(&vas, 4);
        assert_eq!(vm.first_lane_fault(&lanes), Some(unmapped_fault));
        assert_eq!(vm.write_lanes(&lanes, &vals), Err(unmapped_fault));
        for lane in 0..32u64 {
            let got = vm.read_uint(base + 3 * PAGE_SIZE + lane * 4, 4)?;
            let want = if lane < 10 { 0x100 + lane } else { 0 };
            assert_eq!(got, want, "lane {lane}");
        }
        let mut out = vec![!0u64; 32];
        assert_eq!(vm.read_lanes(&lanes, &mut out), Err(unmapped_fault));
        assert!(out[..10].iter().zip(&vals).all(|(o, v)| o == v));
        assert!(out[10..].iter().all(|&o| o == !0));

        // Masking the unmapped lane off moves the fault to the protected
        // lane; lanes 11..20 are written now, 21.. still are not.
        vas[10] = None;
        let prot_fault = MemFault::Protected { va: prot + 64 };
        let lanes = WarpLanes::of(&vas, 4);
        assert_eq!(vm.first_lane_fault(&lanes), Some(prot_fault));
        assert_eq!(vm.write_lanes(&lanes, &vals), Err(prot_fault));
        for lane in 0..32u64 {
            let got = vm.read_uint(base + 3 * PAGE_SIZE + lane * 4, 4)?;
            let want = if lane < 20 && lane != 10 {
                0x100 + lane
            } else {
                0
            };
            assert_eq!(got, want, "lane {lane}");
        }
        Ok(())
    }

    #[test]
    fn lane_bad_widths_fault_at_the_first_active_lane() -> Result<(), MemFault> {
        let (vm, base, _) = lane_space()?;
        let vas = [None, Some(base), Some(0x1000)];
        for width in [0, 9] {
            let lanes = WarpLanes::of(&vas, width);
            assert_eq!(
                vm.write_lanes(&lanes, &[1, 2, 3]),
                Err(MemFault::BadWidth { width })
            );
            assert_eq!(
                vm.read_lanes(&lanes, &mut [0; 3]),
                Err(MemFault::BadWidth { width })
            );
        }
        assert_eq!(vm.first_lane_fault(&WarpLanes::of(&[None, None], 4)), None);
        Ok(())
    }
}
