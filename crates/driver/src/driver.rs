//! The GPU driver model: allocation, per-kernel RBT setup, buffer-ID
//! assignment/encryption, and pointer tagging (paper §5.4, Figs. 9–10).

use crate::cipher::encrypt_id;
use crate::rbt::{write_entry, BoundsEntry, RBT_BYTES, RBT_ENTRIES};
use crate::tenant::RegionIdAllocator;
use gpushield_compiler::{
    classify, discharge, prove_sites, site_facts, AnalysisConfig, ArgInfo, BoundsAnalysis,
    LaunchKnowledge, Origin,
};
use gpushield_isa::{
    Cfg, CheckPlan, Instr, Kernel, ParamKind, PtrClass, SiteCert, SiteCheck, TaggedPtr,
};
use gpushield_mem::{AllocPolicy, Allocation, MemFault, VirtualMemorySpace};
use gpushield_runtime::rng::StdRng;
use gpushield_sim::{HeapDesc, KernelLaunch, LaunchConfig};
use gpushield_telemetry::Registry;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Canary byte written into Type 3 power-of-two padding (§5.3.3).
pub const CANARY_BYTE: u8 = 0xC3;

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Master switch: tag pointers, build RBTs, attach check plans.
    pub enable_shield: bool,
    /// Run the compiler's static bounds analysis (Fig. 17's `+static`).
    pub enable_static_analysis: bool,
    /// Allow Type 3 size-embedded pointers (requires power-of-two
    /// allocation padding).
    pub enable_type3: bool,
    /// Redundant-check elision: upgrade Type 2 sites that are covered by an
    /// identical dominating check (see
    /// [`gpushield_compiler::AnalysisConfig::enable_elision`]). Sound only
    /// under precise faulting, so off by default.
    pub enable_elision: bool,
    /// Maximum region IDs one launch may consume. When a kernel needs
    /// more, the driver merges VA-adjacent buffers into shared IDs with
    /// merged bounds metadata — the paper's §6.3 contingency for future
    /// programming models (coarser protection inside a merged group).
    pub max_region_ids: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            enable_shield: true,
            enable_static_analysis: true,
            enable_type3: false,
            enable_elision: false,
            max_region_ids: 1 << 14,
        }
    }
}

/// Handle to a driver-managed device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferHandle(usize);

/// A kernel argument at launch.
#[derive(Debug, Clone, Copy)]
pub enum Arg {
    /// A device buffer.
    Buffer(BufferHandle),
    /// A scalar value.
    Scalar(u64),
}

/// Per-kernel hardware registration the BCU needs (§5.4: the RBT address
/// and decryption key are stored in the GPU cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShieldSetup {
    /// Driver-assigned 12-bit kernel ID.
    pub kernel_id: u16,
    /// Device address of this kernel's RBT.
    pub rbt_base: u64,
    /// Per-kernel ID-encryption key.
    pub key: u64,
}

/// The virtual-address window a non-Runtime check decision guarantees for
/// one memory-instruction site: every address the site accesses during the
/// launch must fall in `[lo, hi)`. The sim-side access recorder replays
/// observed per-site address ranges against these claims — the BAT
/// soundness audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteClaim {
    /// Instruction site `(block, index)`.
    pub site: (gpushield_isa::BlockId, usize),
    /// The decision being audited ([`gpushield_isa::SiteCheck::Static`] or
    /// [`gpushield_isa::SiteCheck::SizeEmbedded`]).
    pub check: gpushield_isa::SiteCheck,
    /// Inclusive lower bound of the declared window.
    pub lo: u64,
    /// Exclusive upper bound of the declared window.
    pub hi: u64,
}

/// Everything `prepare_launch` produces.
#[derive(Debug, Clone)]
pub struct PreparedLaunch {
    /// The launch descriptor for the simulator.
    pub launch: KernelLaunch,
    /// BCU registration (present when the shield is enabled).
    pub shield: Option<ShieldSetup>,
    /// The compiler's Bounds-Analysis Table (when analysis ran).
    pub bat: Option<BoundsAnalysis>,
    /// Every region ID given an RBT entry for this launch (params, locals,
    /// heap) — the addressable metadata surface, e.g. for fault injection.
    pub region_ids: Vec<u16>,
    /// Declared per-site address windows for every auditable non-Runtime
    /// decision (sorted by site). Empty when the shield or analysis is off.
    pub site_claims: Vec<SiteClaim>,
}

/// Driver-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DriverError {
    /// Argument list does not match the kernel's parameters.
    ArgMismatch {
        /// Kernel name.
        kernel: String,
        /// Explanation.
        detail: String,
    },
    /// A buffer exceeds the 32-bit size field of an RBT entry.
    BufferTooLarge {
        /// Requested size.
        size: u64,
    },
    /// Kernel allocates from the heap but `set_heap_limit` was never called.
    NoHeapConfigured {
        /// Kernel name.
        kernel: String,
    },
    /// A launch with a zero grid or block dimension.
    DegenerateLaunch {
        /// Requested grid dimension.
        grid: u32,
        /// Requested block dimension.
        block: u32,
    },
    /// A launch asked for more distinct region IDs than the 14-bit ID
    /// space holds.
    RegionIdsExhausted {
        /// IDs the launch needed.
        needed: usize,
    },
    /// The device address space could not satisfy an allocation.
    AllocationFailed {
        /// What was being allocated ("buffer", "heap", "local memory", "RBT").
        what: &'static str,
        /// The underlying memory fault.
        fault: MemFault,
    },
    /// Writing bounds metadata into the RBT failed.
    MetadataWrite {
        /// The underlying memory fault.
        fault: MemFault,
    },
    /// A region ID was released that is not currently bound to an
    /// in-flight launch (double release, or a cross-tenant confusion).
    RegionIdNotLive {
        /// The offending ID.
        id: u16,
    },
    /// An RBT was retired that belongs to no prepared launch awaiting
    /// retirement (double retirement, or a foreign [`ShieldSetup`]).
    RbtNotLive {
        /// The offending RBT base address.
        base: u64,
    },
    /// A tenant ID that no tenant table row corresponds to.
    UnknownTenant {
        /// The offending tenant ID.
        id: u16,
    },
    /// An internal launch-preparation invariant did not hold — reserved
    /// metadata (region IDs, group assignments, heap descriptors) went
    /// missing mid-preparation. Indicates a driver bug, reported as an
    /// error instead of a panic so a serving loop degrades gracefully.
    LaunchInvariant {
        /// Which invariant broke.
        what: &'static str,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::ArgMismatch { kernel, detail } => {
                write!(f, "argument mismatch launching {kernel}: {detail}")
            }
            DriverError::BufferTooLarge { size } => {
                write!(f, "buffer of {size} bytes exceeds the 32-bit bounds field")
            }
            DriverError::NoHeapConfigured { kernel } => {
                write!(f, "kernel {kernel} uses malloc but no heap limit was set")
            }
            DriverError::DegenerateLaunch { grid, block } => {
                write!(f, "degenerate launch geometry {grid}x{block}")
            }
            DriverError::RegionIdsExhausted { needed } => {
                write!(
                    f,
                    "launch needs {needed} region IDs, exceeding the 14-bit ID space"
                )
            }
            DriverError::AllocationFailed { what, fault } => {
                write!(f, "failed to allocate {what}: {fault}")
            }
            DriverError::MetadataWrite { fault } => {
                write!(f, "failed to write RBT metadata: {fault}")
            }
            DriverError::RegionIdNotLive { id } => {
                write!(f, "region ID {id} released while not live")
            }
            DriverError::RbtNotLive { base } => {
                write!(f, "RBT at 0x{base:x} retired while not live")
            }
            DriverError::UnknownTenant { id } => {
                write!(f, "unknown tenant {id}")
            }
            DriverError::LaunchInvariant { what } => {
                write!(f, "launch preparation invariant broken: {what}")
            }
        }
    }
}

impl Error for DriverError {}

#[derive(Debug, Clone, Copy)]
struct BufferRecord {
    alloc: Allocation,
    canary_written: bool,
}

/// Cumulative counters over the driver's metadata paths: how much RBT
/// materialisation, region-ID assignment and BAT-attachment work launch
/// preparation performed. Published into a telemetry [`Registry`] via
/// [`Driver::publish_telemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Launches successfully prepared (shielded or not).
    pub launches_prepared: u64,
    /// Per-launch RBTs freshly mapped in device memory (a launch that
    /// reuses a retired RBT maps none).
    pub rbt_allocs: u64,
    /// RBT entries written (one per region-ID group, local, and heap).
    pub rbt_entries_written: u64,
    /// Region IDs drawn from the per-launch ID space.
    pub region_ids_assigned: u64,
    /// §6.3 group merges performed because region IDs ran low.
    pub groups_merged: u64,
    /// Static bounds analyses run (BAT generation + attach).
    pub bat_analyses: u64,
    /// Type 3 canary paddings written.
    pub canaries_written: u64,
    /// Site proofs emitted by the relational prover (certificates).
    pub certs_emitted: u64,
    /// Certificates discharged against launch arguments: their sites'
    /// runtime checks were elided with a proven VA window attached.
    pub certs_discharged: u64,
    /// Certificates that did not discharge for this launch (window not
    /// contained in the region, or a referenced argument unknown).
    pub certs_rejected: u64,
    /// Certificates for sites the interval analysis had already proven
    /// (no elision needed).
    pub certs_redundant: u64,
}

/// The GPU driver: owns the device address space and sets up kernels.
///
/// # Example
///
/// ```
/// use gpushield_driver::{Arg, Driver, DriverConfig};
/// use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand};
/// use std::sync::Arc;
///
/// let mut b = KernelBuilder::new("fill");
/// let out = b.param_buffer("out", false);
/// let tid = b.global_thread_id();
/// let off = b.shl(tid, Operand::Imm(2));
/// b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
/// b.ret();
/// let kernel = Arc::new(b.finish()?);
///
/// let mut driver = Driver::new(DriverConfig::default(), 42);
/// let buf = driver.malloc(1024 * 4)?;
/// let prepared = driver.prepare_launch(kernel, 4, 256, &[Arg::Buffer(buf)])?;
/// assert!(prepared.shield.is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Driver {
    cfg: DriverConfig,
    rng: StdRng,
    vm: VirtualMemorySpace,
    buffers: Vec<BufferRecord>,
    heap: Option<Allocation>,
    kernel_seq: u16,
    stats: DriverStats,
    /// RBTs of prepared launches not yet retired.
    live_rbts: Vec<u64>,
    /// Retired RBTs, every entry invalid, reused before a new one is
    /// mapped.
    free_rbts: Vec<u64>,
}

impl Driver {
    /// Creates a driver with a deterministic RNG seed (IDs and keys are
    /// random per §5.2.4 but reproducible for experiments).
    pub fn new(cfg: DriverConfig, seed: u64) -> Self {
        Driver {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            vm: VirtualMemorySpace::new(),
            buffers: Vec::new(),
            heap: None,
            kernel_seq: 0,
            stats: DriverStats::default(),
            live_rbts: Vec::new(),
            free_rbts: Vec::new(),
        }
    }

    /// The driver configuration.
    pub fn config(&self) -> DriverConfig {
        self.cfg
    }

    /// Cumulative metadata-path counters since construction.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Publishes the metadata-path counters as `driver.*` gauges (the
    /// counters are already cumulative, so last-write-wins is exact).
    pub fn publish_telemetry(&self, reg: &mut Registry) {
        let s = &self.stats;
        let fields: [(&str, u64); 11] = [
            ("launches_prepared", s.launches_prepared),
            ("rbt_allocs", s.rbt_allocs),
            ("rbt_entries_written", s.rbt_entries_written),
            ("region_ids_assigned", s.region_ids_assigned),
            ("groups_merged", s.groups_merged),
            ("bat_analyses", s.bat_analyses),
            ("canaries_written", s.canaries_written),
            ("certs_emitted", s.certs_emitted),
            ("certs_discharged", s.certs_discharged),
            ("certs_rejected", s.certs_rejected),
            ("certs_redundant", s.certs_redundant),
        ];
        for (name, v) in fields {
            // Lazy label: a disabled registry formats no strings (pinned
            // by tests/alloc_profile.rs).
            reg.set_named_with(|| format!("driver.{name}"), v);
        }
    }

    /// Allocates a device buffer. Uses Nvidia-style 512 B packing, or
    /// power-of-two padding when Type 3 pointers are enabled.
    ///
    /// # Errors
    ///
    /// [`DriverError::BufferTooLarge`] when `size` exceeds the RBT's
    /// 32-bit size field.
    pub fn malloc(&mut self, size: u64) -> Result<BufferHandle, DriverError> {
        if size > u32::MAX as u64 {
            return Err(DriverError::BufferTooLarge { size });
        }
        let policy = if self.cfg.enable_type3 {
            AllocPolicy::PowerOfTwo
        } else {
            AllocPolicy::Device512
        };
        let alloc = self
            .vm
            .alloc(size, policy)
            .map_err(|fault| DriverError::AllocationFailed {
                what: "buffer",
                fault,
            })?;
        self.buffers.push(BufferRecord {
            alloc,
            canary_written: false,
        });
        Ok(BufferHandle(self.buffers.len() - 1))
    }

    /// Reserves the device heap (`cudaDeviceSetLimit(cudaLimitMallocHeapSize)`).
    ///
    /// # Errors
    ///
    /// [`DriverError::AllocationFailed`] when the device address space
    /// cannot hold the heap.
    pub fn set_heap_limit(&mut self, size: u64) -> Result<(), DriverError> {
        let alloc = self
            .vm
            .alloc(size, AllocPolicy::Isolated)
            .map_err(|fault| DriverError::AllocationFailed {
                what: "heap",
                fault,
            })?;
        self.heap = Some(alloc);
        Ok(())
    }

    /// Base virtual address of a buffer.
    pub fn buffer_va(&self, h: BufferHandle) -> u64 {
        self.buffers[h.0].alloc.va
    }

    /// Requested size of a buffer.
    pub fn buffer_size(&self, h: BufferHandle) -> u64 {
        self.buffers[h.0].alloc.size
    }

    /// Reserved (padded) size of a buffer — exceeds the requested size
    /// under the power-of-two policy Type 3 pointers require (§5.3.3's
    /// fragmentation cost).
    pub fn buffer_reserved(&self, h: BufferHandle) -> u64 {
        self.buffers[h.0].alloc.reserved
    }

    /// Device-heap window `(va, size)` reserved by [`set_heap_limit`],
    /// or `None` when no heap is configured. Oracles (e.g. the fuzzer
    /// scoreboard) use this to map heap-relative victim ranges to
    /// virtual addresses.
    ///
    /// [`set_heap_limit`]: Driver::set_heap_limit
    pub fn heap_window(&self) -> Option<(u64, u64)> {
        self.heap.map(|h| (h.va, h.size))
    }

    /// Host-side write into a buffer (SVM-style access).
    ///
    /// # Panics
    ///
    /// Panics when the write overruns the buffer — the *host* is trusted
    /// and typo'd offsets are bugs, not attacks.
    pub fn write_buffer(&mut self, h: BufferHandle, offset: u64, bytes: &[u8]) {
        let rec = self.buffers[h.0];
        assert!(
            offset + bytes.len() as u64 <= rec.alloc.size,
            "host write overruns buffer"
        );
        self.vm
            .write(rec.alloc.va + offset, bytes)
            .expect("buffer memory is mapped");
    }

    /// Host-side typed write of little-endian `u64`s.
    pub fn write_buffer_u64s(&mut self, h: BufferHandle, offset: u64, values: &[u64]) {
        for (i, v) in values.iter().enumerate() {
            let rec = self.buffers[h.0];
            assert!(offset + (i as u64 + 1) * 8 <= rec.alloc.size);
            self.vm
                .write(rec.alloc.va + offset + i as u64 * 8, &v.to_le_bytes())
                .expect("mapped");
        }
    }

    /// Host-side read from a buffer.
    ///
    /// # Panics
    ///
    /// Panics when the read overruns the buffer.
    pub fn read_buffer(&self, h: BufferHandle, offset: u64, out: &mut [u8]) {
        let rec = self.buffers[h.0];
        assert!(
            offset + out.len() as u64 <= rec.alloc.size,
            "host read overruns buffer"
        );
        self.vm
            .read(rec.alloc.va + offset, out)
            .expect("buffer memory is mapped");
    }

    /// Host-side read of one little-endian unsigned value of `width` bytes.
    pub fn read_buffer_uint(&self, h: BufferHandle, offset: u64, width: u64) -> u64 {
        let rec = self.buffers[h.0];
        assert!(
            offset + width <= rec.alloc.size,
            "host read overruns buffer"
        );
        self.vm
            .read_uint(rec.alloc.va + offset, width)
            .expect("mapped")
    }

    /// The device address space (the simulator needs it mutably).
    pub fn vm_mut(&mut self) -> &mut VirtualMemorySpace {
        &mut self.vm
    }

    /// Read-only view of the device address space.
    pub fn vm(&self) -> &VirtualMemorySpace {
        &self.vm
    }

    fn fresh_ids(&mut self, n: usize) -> Result<Vec<u16>, DriverError> {
        // IDs are drawn from 1..2^14; asking for more distinct values than
        // that space holds would otherwise loop forever.
        if n >= (1 << 14) {
            return Err(DriverError::RegionIdsExhausted { needed: n });
        }
        let mut used = HashSet::new();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let id: u16 = self.rng.gen_range(1..(1 << 14));
            if used.insert(id) {
                out.push(id);
            }
        }
        Ok(out)
    }

    /// Sets up one kernel launch: runs static analysis, assigns random
    /// unique buffer IDs, builds and protects the per-kernel RBT, and tags
    /// every pointer argument (Fig. 9 steps ①–④).
    ///
    /// # Errors
    ///
    /// See [`DriverError`].
    pub fn prepare_launch(
        &mut self,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<PreparedLaunch, DriverError> {
        self.prepare_launch_scoped(kernel, grid, block, args, None)
    }

    /// Like [`Driver::prepare_launch`], but draws region IDs from a
    /// caller-provided per-tenant allocator instead of the driver's global
    /// random pool, confining the launch to that tenant's disjoint slice
    /// of the ID space. The caller owns the IDs' lifecycle: release them
    /// back to the allocator (via the tenant table) when the launch
    /// retires.
    ///
    /// # Errors
    ///
    /// See [`DriverError`]; notably [`DriverError::RegionIdsExhausted`]
    /// when the tenant's slice cannot cover the launch's demand.
    pub fn prepare_launch_scoped(
        &mut self,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
        scope: Option<&mut RegionIdAllocator>,
    ) -> Result<PreparedLaunch, DriverError> {
        if grid == 0 || block == 0 {
            return Err(DriverError::DegenerateLaunch { grid, block });
        }
        if args.len() != kernel.params().len() {
            return Err(DriverError::ArgMismatch {
                kernel: kernel.name().to_string(),
                detail: format!(
                    "expected {} arguments, got {}",
                    kernel.params().len(),
                    args.len()
                ),
            });
        }
        for (i, (a, p)) in args.iter().zip(kernel.params()).enumerate() {
            let ok = matches!(
                (a, p.kind()),
                (Arg::Buffer(_), ParamKind::Buffer { .. }) | (Arg::Scalar(_), ParamKind::Scalar)
            );
            if !ok {
                return Err(DriverError::ArgMismatch {
                    kernel: kernel.name().to_string(),
                    detail: format!("argument {i} kind does not match parameter {}", p.name()),
                });
            }
        }
        let uses_heap = kernel
            .iter_instrs()
            .any(|(_, _, i)| matches!(i, Instr::Malloc { .. } | Instr::Free { .. }));
        if uses_heap && self.heap.is_none() {
            return Err(DriverError::NoHeapConfigured {
                kernel: kernel.name().to_string(),
            });
        }
        let total_threads = u64::from(grid) * u64::from(block);

        // Allocate local-memory regions for this launch (each local
        // variable is interleaved across all threads, §3.1).
        let mut local_allocs: Vec<Allocation> = Vec::with_capacity(kernel.locals().len());
        for l in kernel.locals() {
            let total = l.bytes_per_thread() * total_threads;
            let policy = if self.cfg.enable_type3 {
                AllocPolicy::PowerOfTwo
            } else {
                AllocPolicy::Device512
            };
            let alloc =
                self.vm
                    .alloc(total, policy)
                    .map_err(|fault| DriverError::AllocationFailed {
                        what: "local memory",
                        fault,
                    })?;
            local_allocs.push(alloc);
        }

        let launch_cfg = LaunchConfig::new(grid, block);
        if !self.cfg.enable_shield {
            // Unprotected GPU: raw pointers, no RBT, no plan.
            let mut launch = KernelLaunch::new(kernel, launch_cfg);
            for a in args {
                launch.args.push(match a {
                    Arg::Buffer(h) => TaggedPtr::unprotected(self.buffer_va(*h)).raw(),
                    Arg::Scalar(v) => *v,
                });
            }
            launch.local_bases = local_allocs
                .iter()
                .map(|a| TaggedPtr::unprotected(a.va).raw())
                .collect();
            if let Some(h) = self.heap.filter(|_| uses_heap) {
                launch = launch.heap(HeapDesc {
                    tagged_base: TaggedPtr::unprotected(h.va),
                    size: h.size,
                });
            }
            self.stats.launches_prepared += 1;
            return Ok(PreparedLaunch {
                launch,
                shield: None,
                bat: None,
                region_ids: Vec::new(),
                site_claims: Vec::new(),
            });
        }

        // --- Static analysis (BAT generation, Fig. 9 steps ①–③) ----------
        let knowledge = LaunchKnowledge {
            args: args
                .iter()
                .map(|a| match a {
                    Arg::Buffer(h) => ArgInfo::Buffer {
                        size: self.buffer_size(*h),
                    },
                    Arg::Scalar(v) => ArgInfo::Scalar { value: Some(*v) },
                })
                .collect(),
            local_sizes: local_allocs.iter().map(|a| a.size).collect(),
            block,
            grid,
            heap_size: self.heap.map(|h| h.size),
        };
        let mut bat = if self.cfg.enable_static_analysis {
            self.stats.bat_analyses += 1;
            // The fixpoint runs once; a Type 3 fallback only reclassifies.
            let facts = site_facts(&kernel, &knowledge);
            let graph = self.cfg.enable_elision.then(|| Cfg::build(&kernel));
            let mut b = classify(
                &kernel,
                &facts,
                AnalysisConfig {
                    enable_type3: self.cfg.enable_type3,
                    enable_elision: self.cfg.enable_elision,
                },
                graph.as_ref(),
            );
            // Type 3 needs power-of-two padded allocations; if any chosen
            // buffer is not compatible, fall back to RBT checking.
            if self.cfg.enable_type3 {
                let compatible = b.param_class.iter().enumerate().all(|(p, c)| {
                    *c != PtrClass::SizeEmbedded
                        || match args[p] {
                            Arg::Buffer(h) => {
                                let a = self.buffers[h.0].alloc;
                                a.reserved.is_power_of_two() && a.va.is_multiple_of(a.reserved)
                            }
                            Arg::Scalar(_) => false,
                        }
                });
                if !compatible {
                    b = classify(
                        &kernel,
                        &facts,
                        AnalysisConfig {
                            enable_type3: false,
                            enable_elision: self.cfg.enable_elision,
                        },
                        graph.as_ref(),
                    );
                }
            }
            b
        } else {
            // No analysis: every site checks at runtime, every buffer is a
            // Type 2 region.
            BoundsAnalysis {
                plan: CheckPlan::all_runtime(),
                param_class: kernel
                    .params()
                    .iter()
                    .map(|p| {
                        if p.is_buffer() {
                            PtrClass::Region
                        } else {
                            PtrClass::Unprotected
                        }
                    })
                    .collect(),
                local_class: vec![PtrClass::Region; kernel.locals().len()],
                violations: Vec::new(),
                sites_static: 0,
                sites_runtime: kernel.iter_instrs().filter(|(_, _, i)| i.is_mem()).count(),
                sites_type3: 0,
                sites_total: kernel.iter_instrs().filter(|(_, _, i)| i.is_mem()).count(),
                site_origins: std::collections::HashMap::new(),
                elided_sites: Vec::new(),
                fixpoint_iterations: 0,
            }
        };

        // --- Proof-carrying check elision --------------------------------
        // The relational prover runs under the *value-less* view of this
        // launch (scalar values blanked), so its certificates hold for any
        // argument valuation; each one is then discharged against the
        // actual values and region sizes. Only sites still planned as
        // Runtime are eligible — a discharged certificate elides the
        // site's check and attaches the proven VA window for the hardware
        // accounting and the soundness auditor.
        let mut cert_windows: std::collections::HashMap<
            (gpushield_isa::BlockId, usize),
            (u64, u64),
        > = std::collections::HashMap::new();
        if self.cfg.enable_elision {
            let compile_view = knowledge.value_less();
            for proof in prove_sites(&kernel, &compile_view) {
                self.stats.certs_emitted += 1;
                if bat.plan.get(proof.site) != SiteCheck::Runtime {
                    self.stats.certs_redundant += 1;
                    continue;
                }
                let Some((off_lo, off_hi)) = discharge(&proof, &kernel, &knowledge) else {
                    self.stats.certs_rejected += 1;
                    continue;
                };
                let base = match proof.origin {
                    Origin::Param(p) => match args.get(usize::from(p)) {
                        Some(Arg::Buffer(h)) => {
                            self.buffers.get(h.0).map(|rec| rec.alloc.va).ok_or(
                                DriverError::LaunchInvariant {
                                    what: "certificate origin names a live buffer",
                                },
                            )?
                        }
                        _ => {
                            self.stats.certs_rejected += 1;
                            continue;
                        }
                    },
                    Origin::Local(v) => match local_allocs.get(usize::from(v)) {
                        Some(a) => a.va,
                        None => {
                            self.stats.certs_rejected += 1;
                            continue;
                        }
                    },
                    Origin::Heap => {
                        self.stats.certs_rejected += 1;
                        continue;
                    }
                };
                let (Some(lo), Some(hi)) = (base.checked_add(off_lo), base.checked_add(off_hi))
                else {
                    self.stats.certs_rejected += 1;
                    continue;
                };
                bat.plan.set(proof.site, SiteCheck::Static);
                bat.plan.set_cert(proof.site, SiteCert { lo, hi });
                bat.sites_static += 1;
                bat.sites_runtime = bat.sites_runtime.saturating_sub(1);
                cert_windows.insert(proof.site, (lo, hi));
                self.stats.certs_discharged += 1;
            }
        }

        // --- Kernel identity and RBT (Fig. 9 step ④) ----------------------
        self.kernel_seq = (self.kernel_seq + 1) & 0xFFF;
        let kernel_id = self.kernel_seq;
        let key: u64 = self.rng.gen();

        // Count the RBT entries needed: Region-classed params/locals + heap.
        let region_params: Vec<u8> = (0..args.len() as u8)
            .filter(|p| bat.param_class[usize::from(*p)] == PtrClass::Region)
            .collect();
        let region_locals: Vec<u8> = (0..kernel.locals().len() as u8)
            .filter(|v| bat.local_class[usize::from(*v)] == PtrClass::Region)
            .collect();

        // §6.3: when IDs run low, merge VA-adjacent buffers into shared
        // entries. Groups start as singletons and the closest-together
        // pair merges until the budget holds.
        let mut groups: Vec<Vec<u8>> = region_params.iter().map(|p| vec![*p]).collect();
        let fixed = region_locals.len() + usize::from(uses_heap);
        let budget = self.cfg.max_region_ids.saturating_sub(fixed).max(1);
        let group_span = |g: &[u8], bufs: &[BufferRecord], args: &[Arg]| -> (u64, u64) {
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            for p in g {
                if let Arg::Buffer(h) = args[usize::from(*p)] {
                    let a = bufs[h.0].alloc;
                    lo = lo.min(a.va);
                    hi = hi.max(a.end());
                }
            }
            (lo, hi)
        };
        while groups.len() > budget && groups.len() > 1 {
            groups.sort_by_key(|g| group_span(g, &self.buffers, args).0);
            // Merge the adjacent pair with the smallest gap between spans.
            let mut best = 0;
            let mut best_gap = u64::MAX;
            for i in 0..groups.len() - 1 {
                let (_, hi) = group_span(&groups[i], &self.buffers, args);
                let (lo, _) = group_span(&groups[i + 1], &self.buffers, args);
                let gap = lo.saturating_sub(hi);
                if gap < best_gap {
                    best_gap = gap;
                    best = i;
                }
            }
            let tail = groups.remove(best + 1);
            groups[best].extend(tail);
            self.stats.groups_merged += 1;
        }
        let n_ids = groups.len() + fixed;
        let ids = match scope {
            Some(alloc) => alloc.acquire(n_ids)?,
            None => self.fresh_ids(n_ids)?,
        };
        self.stats.region_ids_assigned += n_ids as u64;
        let region_ids = ids.clone();
        let mut id_iter = ids.into_iter();
        // RBT entries, written once every pointer is tagged.
        let mut entries: Vec<(u16, BoundsEntry)> = Vec::with_capacity(n_ids);

        // Pre-assign one ID and merged bounds per group.
        let mut param_ids: std::collections::HashMap<u8, (u16, u64, u64)> =
            std::collections::HashMap::new();
        for g in &groups {
            let id = id_iter.next().ok_or(DriverError::LaunchInvariant {
                what: "region ID reserved for every group",
            })?;
            let (lo, hi) = group_span(g, &self.buffers, args);
            for p in g {
                param_ids.insert(*p, (id, lo, hi));
            }
        }

        let mut launch = KernelLaunch::new(kernel.clone(), launch_cfg)
            .kernel_id(kernel_id)
            .plan(bat.plan.clone());

        // Tag arguments.
        for (p, a) in args.iter().enumerate() {
            let raw = match a {
                Arg::Scalar(v) => *v,
                Arg::Buffer(h) => {
                    let rec = self.buffers[h.0];
                    match bat.param_class[p] {
                        PtrClass::Unprotected => TaggedPtr::unprotected(rec.alloc.va).raw(),
                        PtrClass::Region => {
                            let (id, lo, hi) =
                                *param_ids
                                    .get(&(p as u8))
                                    .ok_or(DriverError::LaunchInvariant {
                                        what: "region param assigned to a group",
                                    })?;
                            // A merged entry is only read-only when every
                            // member is (otherwise legitimate writes to a
                            // writable member would fault).
                            let readonly = groups
                                .iter()
                                .find(|g| g.contains(&(p as u8)))
                                .ok_or(DriverError::LaunchInvariant {
                                    what: "region param present in a merge group",
                                })?
                                .iter()
                                .all(|q| {
                                    matches!(
                                        kernel.params()[usize::from(*q)].kind(),
                                        ParamKind::Buffer { readonly: true, .. }
                                    )
                                });
                            entries.push((
                                id,
                                BoundsEntry {
                                    valid: true,
                                    readonly,
                                    kernel_id,
                                    base: lo,
                                    size: (hi - lo) as u32,
                                },
                            ));
                            TaggedPtr::with_region_id(rec.alloc.va, encrypt_id(id, key)).raw()
                        }
                        PtrClass::SizeEmbedded => {
                            self.write_canary(h.0);
                            let log2 = rec.alloc.reserved.trailing_zeros() as u8;
                            TaggedPtr::with_log2_size(rec.alloc.va, log2).raw()
                        }
                    }
                }
            };
            launch.args.push(raw);
        }

        // Tag local variables.
        for (v, alloc) in local_allocs.iter().enumerate() {
            let raw = match bat.local_class[v] {
                PtrClass::Unprotected => TaggedPtr::unprotected(alloc.va).raw(),
                PtrClass::Region => {
                    let id = id_iter.next().ok_or(DriverError::LaunchInvariant {
                        what: "region ID reserved for every local",
                    })?;
                    entries.push((
                        id,
                        BoundsEntry {
                            valid: true,
                            readonly: false,
                            kernel_id,
                            base: alloc.va,
                            size: alloc.size as u32,
                        },
                    ));
                    TaggedPtr::with_region_id(alloc.va, encrypt_id(id, key)).raw()
                }
                PtrClass::SizeEmbedded => {
                    let log2 = alloc.reserved.trailing_zeros() as u8;
                    TaggedPtr::with_log2_size(alloc.va, log2).raw()
                }
            };
            launch.local_bases.push(raw);
        }

        // Heap: one coarse entry for the whole chunk (§5.2.1).
        if uses_heap {
            let h = self.heap.ok_or(DriverError::LaunchInvariant {
                what: "heap configured for a heap-using kernel",
            })?;
            let id = id_iter.next().ok_or(DriverError::LaunchInvariant {
                what: "region ID reserved for the heap",
            })?;
            entries.push((
                id,
                BoundsEntry {
                    valid: true,
                    readonly: false,
                    kernel_id,
                    base: h.va,
                    size: h.size as u32,
                },
            ));
            launch = launch.heap(HeapDesc {
                tagged_base: TaggedPtr::with_region_id(h.va, encrypt_id(id, key)),
                size: h.size,
            });
        }

        let rbt_base = self.take_rbt()?;
        for (id, entry) in &entries {
            write_entry(&mut self.vm, rbt_base, *id, entry)
                .map_err(|fault| DriverError::MetadataWrite { fault })?;
        }
        self.stats.rbt_entries_written += entries.len() as u64;
        self.live_rbts.push(rbt_base);

        // --- Auditable claims: the VA window each non-Runtime decision
        // guarantees. A Static site proven by intervals claims its origin's
        // logical extent; an elided Static site claims the RBT entry window
        // of the covering runtime check (the merged group for params); a
        // Type 3 site claims its power-of-two reservation.
        let mut site_claims = Vec::new();
        let elided: HashSet<(gpushield_isa::BlockId, usize)> =
            bat.elided_sites.iter().copied().collect();
        for (site, check) in bat.plan.iter() {
            if check == SiteCheck::Runtime {
                continue;
            }
            // A certificate-elided site claims exactly its discharged proof
            // window — tighter than the origin's extent, and available even
            // when no interval analysis ran (so the auditor can still
            // falsify a bad certificate).
            if let Some((lo, hi)) = cert_windows.get(&site) {
                site_claims.push(SiteClaim {
                    site,
                    check,
                    lo: *lo,
                    hi: *hi,
                });
                continue;
            }
            let Some(origin) = bat.site_origins.get(&site).copied() else {
                // Unresolved origin (e.g. an elided site whose base came
                // from a loaded pointer): dynamically covered, but there is
                // no static window to audit against.
                continue;
            };
            let window = match (check, origin) {
                (SiteCheck::Static, Origin::Param(p)) if elided.contains(&site) => {
                    param_ids.get(&p).map(|(_, lo, hi)| (*lo, *hi))
                }
                (SiteCheck::Static, Origin::Param(p)) => match args[usize::from(p)] {
                    Arg::Buffer(h) => {
                        let a = self.buffers[h.0].alloc;
                        Some((a.va, a.va + a.size))
                    }
                    Arg::Scalar(_) => None,
                },
                (SiteCheck::Static, Origin::Local(v)) => local_allocs
                    .get(usize::from(v))
                    .map(|a| (a.va, a.va + a.size)),
                (SiteCheck::Static, Origin::Heap) => self.heap.map(|h| (h.va, h.va + h.size)),
                (SiteCheck::SizeEmbedded, Origin::Param(p)) => match args[usize::from(p)] {
                    Arg::Buffer(h) => {
                        let a = self.buffers[h.0].alloc;
                        Some((a.va, a.va + a.reserved))
                    }
                    Arg::Scalar(_) => None,
                },
                (SiteCheck::SizeEmbedded, Origin::Local(v)) => local_allocs
                    .get(usize::from(v))
                    .map(|a| (a.va, a.va + a.reserved)),
                _ => None,
            };
            if let Some((lo, hi)) = window {
                site_claims.push(SiteClaim {
                    site,
                    check,
                    lo,
                    hi,
                });
            }
        }
        site_claims.sort_unstable_by_key(|c| c.site);
        self.stats.launches_prepared += 1;

        Ok(PreparedLaunch {
            launch,
            shield: Some(ShieldSetup {
                kernel_id,
                rbt_base,
                key,
            }),
            bat: Some(bat),
            region_ids,
            site_claims,
        })
    }

    /// A retired RBT from the free list, else a freshly mapped one. A
    /// fresh RBT's pages are made inaccessible to normal kernel accesses
    /// at once (§5.4); the driver and the BCU use the bypass path.
    fn take_rbt(&mut self) -> Result<u64, DriverError> {
        if let Some(base) = self.free_rbts.pop() {
            return Ok(base);
        }
        let rbt = self
            .vm
            .alloc(RBT_BYTES, AllocPolicy::Isolated)
            .map_err(|fault| DriverError::AllocationFailed { what: "RBT", fault })?;
        self.vm.protect(rbt.va, RBT_BYTES);
        self.stats.rbt_allocs += 1;
        Ok(rbt.va)
    }

    /// Retires a launch at kernel completion (the RBT is per kernel,
    /// §5.4): writes an invalid entry at every region ID the launch was
    /// given and returns its RBT to the free list that
    /// [`Driver::prepare_launch_scoped`] draws from before mapping a new
    /// one. A pointer tagged for the retired launch therefore finds no
    /// valid entry when a later launch reuses the table. Launches in
    /// flight together always hold distinct RBTs.
    ///
    /// # Errors
    ///
    /// [`DriverError::RbtNotLive`] when `setup` is not a prepared launch
    /// of this driver awaiting retirement (e.g. retired twice), and
    /// [`DriverError::RegionIdNotLive`] for an ID outside the 14-bit
    /// space; the RBT is then not reused.
    pub fn retire_launch(
        &mut self,
        setup: ShieldSetup,
        region_ids: &[u16],
    ) -> Result<(), DriverError> {
        let base = setup.rbt_base;
        let Some(slot) = self.live_rbts.iter().rposition(|b| *b == base) else {
            return Err(DriverError::RbtNotLive { base });
        };
        self.live_rbts.swap_remove(slot);
        for &id in region_ids {
            if u64::from(id) >= RBT_ENTRIES {
                return Err(DriverError::RegionIdNotLive { id });
            }
            write_entry(&mut self.vm, base, id, &BoundsEntry::default())
                .map_err(|fault| DriverError::MetadataWrite { fault })?;
        }
        self.free_rbts.push(base);
        Ok(())
    }

    fn write_canary(&mut self, idx: usize) {
        let rec = &mut self.buffers[idx];
        if rec.canary_written || rec.alloc.reserved == rec.alloc.size {
            rec.canary_written = true;
            return;
        }
        let pad = vec![CANARY_BYTE; (rec.alloc.reserved - rec.alloc.size) as usize];
        let va = rec.alloc.va + rec.alloc.size;
        rec.canary_written = true;
        self.stats.canaries_written += 1;
        self.vm.write(va, &pad).expect("padding is mapped");
    }

    /// Post-kernel canary scan for a Type 3 buffer's padding (§5.3.3):
    /// returns `true` when the canary is intact (no overflow into padding).
    pub fn canary_intact(&self, h: BufferHandle) -> bool {
        let rec = self.buffers[h.0];
        if !rec.canary_written {
            return true;
        }
        let len = (rec.alloc.reserved - rec.alloc.size) as usize;
        let mut buf = vec![0u8; len];
        self.vm
            .read(rec.alloc.va + rec.alloc.size, &mut buf)
            .expect("padding is mapped");
        buf.iter().all(|b| *b == CANARY_BYTE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rbt::read_entry;
    use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand, PtrClass};

    fn iota_kernel() -> Arc<Kernel> {
        let mut b = KernelBuilder::new("iota");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn safe_kernel_gets_unprotected_pointer() {
        let mut d = Driver::new(DriverConfig::default(), 1);
        let buf = d.malloc(1024 * 4).unwrap();
        let p = d
            .prepare_launch(iota_kernel(), 4, 256, &[Arg::Buffer(buf)])
            .unwrap();
        let ptr = TaggedPtr::from_raw(p.launch.args[0]);
        assert_eq!(ptr.class(), PtrClass::Unprotected);
        assert_eq!(p.bat.as_ref().unwrap().sites_static, 1);
    }

    #[test]
    fn unsafe_kernel_gets_encrypted_region_pointer() {
        let mut d = Driver::new(DriverConfig::default(), 1);
        let buf = d.malloc(128).unwrap(); // too small for 1024 threads
        let p = d
            .prepare_launch(iota_kernel(), 4, 256, &[Arg::Buffer(buf)])
            .unwrap();
        let ptr = TaggedPtr::from_raw(p.launch.args[0]);
        assert_eq!(ptr.class(), PtrClass::Region);
        let setup = p.shield.unwrap();
        // The embedded ID is encrypted: decrypting recovers a valid entry.
        let id = crate::cipher::decrypt_id(ptr.info(), setup.key);
        let e = crate::rbt::read_entry(d.vm(), setup.rbt_base, id).unwrap();
        assert!(e.valid);
        assert_eq!(e.base, d.buffer_va(buf));
        assert_eq!(e.size, 128);
        assert_eq!(e.kernel_id, setup.kernel_id);
    }

    #[test]
    fn shield_disabled_gives_raw_pointers_and_no_rbt() {
        let cfg = DriverConfig {
            enable_shield: false,
            ..DriverConfig::default()
        };
        let mut d = Driver::new(cfg, 1);
        let buf = d.malloc(64).unwrap();
        let p = d
            .prepare_launch(iota_kernel(), 1, 32, &[Arg::Buffer(buf)])
            .unwrap();
        assert!(p.shield.is_none());
        assert!(p.bat.is_none());
        assert_eq!(
            TaggedPtr::from_raw(p.launch.args[0]).class(),
            PtrClass::Unprotected
        );
    }

    #[test]
    fn without_static_analysis_everything_is_region() {
        let cfg = DriverConfig {
            enable_static_analysis: false,
            ..DriverConfig::default()
        };
        let mut d = Driver::new(cfg, 1);
        let buf = d.malloc(1024 * 4).unwrap();
        let p = d
            .prepare_launch(iota_kernel(), 4, 256, &[Arg::Buffer(buf)])
            .unwrap();
        assert_eq!(
            TaggedPtr::from_raw(p.launch.args[0]).class(),
            PtrClass::Region
        );
        assert_eq!(p.bat.unwrap().sites_static, 0);
    }

    #[test]
    fn type3_pads_and_writes_canary() {
        // Kernel with an unprovable Method C offset → Type 3 candidate.
        let mut b = KernelBuilder::new("k");
        let out = b.param_buffer("out", false);
        let n = b.param_scalar("n");
        let off = b.shl(n, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), n);
        b.ret();
        let k = Arc::new(b.finish().unwrap());

        let cfg = DriverConfig {
            enable_type3: true,
            ..DriverConfig::default()
        };
        let mut d = Driver::new(cfg, 1);
        let buf = d.malloc(100).unwrap(); // padded to 512
                                          // Pass an unknowable scalar by pretending it's a runtime value: the
                                          // driver knows it, so use a kernel where it still can't prove
                                          // bounds: n is known (5) here, so offset 20 is provably fine —
                                          // choose a huge n instead to stay unprovable but in-range at run.
        let p = d
            .prepare_launch(k, 1, 32, &[Arg::Buffer(buf), Arg::Scalar(3)])
            .unwrap();
        // With a known scalar the site may be proven static; accept either
        // Static or a Type 3 pointer, but the buffer must stay consistent.
        let ptr = TaggedPtr::from_raw(p.launch.args[0]);
        if ptr.class() == PtrClass::SizeEmbedded {
            assert_eq!(ptr.info(), 9); // log2(512)
            assert!(d.canary_intact(buf));
        }
    }

    #[test]
    fn arg_mismatch_is_reported() {
        let mut d = Driver::new(DriverConfig::default(), 1);
        let e = d.prepare_launch(iota_kernel(), 1, 32, &[]).unwrap_err();
        assert!(matches!(e, DriverError::ArgMismatch { .. }));
        let e2 = d
            .prepare_launch(iota_kernel(), 1, 32, &[Arg::Scalar(1)])
            .unwrap_err();
        assert!(matches!(e2, DriverError::ArgMismatch { .. }));
    }

    #[test]
    fn heap_kernel_requires_heap_limit() {
        let mut b = KernelBuilder::new("heapy");
        let _p = b.malloc(Operand::Imm(64));
        b.ret();
        let k = Arc::new(b.finish().unwrap());
        let mut d = Driver::new(DriverConfig::default(), 1);
        assert!(matches!(
            d.prepare_launch(k.clone(), 1, 32, &[]),
            Err(DriverError::NoHeapConfigured { .. })
        ));
        d.set_heap_limit(1 << 20).unwrap();
        let p = d.prepare_launch(k, 1, 32, &[]).unwrap();
        let heap = p.launch.heap.unwrap();
        assert_eq!(heap.tagged_base.class(), PtrClass::Region);
        assert_eq!(heap.size, 1 << 20);
    }

    #[test]
    fn local_vars_get_tagged_bases() {
        let mut b = KernelBuilder::new("loc");
        let v = b.local_var("scratch", 64);
        let tid = b.global_thread_id();
        // Unprovable dynamic index via a loaded value would be Runtime;
        // here use an affine store (provable → local base may stay
        // unprotected) plus an unbounded one to force Region.
        let unknown = b.mul(tid, tid);
        let addr = b.local_base(v);
        b.st(
            MemSpace::Local,
            MemWidth::W4,
            b.base_offset(addr, unknown),
            tid,
        );
        b.ret();
        let k = Arc::new(b.finish().unwrap());
        let mut d = Driver::new(DriverConfig::default(), 1);
        // 4 × 32 threads: tid*tid reaches 127² = 16129, past the 8 KB
        // local region, so the access is unprovable → Region tagging.
        let p = d.prepare_launch(k, 4, 32, &[]).unwrap();
        assert_eq!(p.launch.local_bases.len(), 1);
        let ptr = TaggedPtr::from_raw(p.launch.local_bases[0]);
        assert_eq!(ptr.class(), PtrClass::Region);
    }

    #[test]
    fn ids_are_unique_per_launch() {
        let mut d = Driver::new(DriverConfig::default(), 9);
        let ids = d.fresh_ids(1000).unwrap();
        let set: HashSet<u16> = ids.iter().copied().collect();
        assert_eq!(set.len(), 1000);
        assert!(ids.iter().all(|i| *i > 0 && *i < (1 << 14)));
    }

    #[test]
    fn fresh_ids_refuses_more_than_the_id_space() {
        let mut d = Driver::new(DriverConfig::default(), 9);
        let e = d.fresh_ids(1 << 14).unwrap_err();
        assert_eq!(e, DriverError::RegionIdsExhausted { needed: 1 << 14 });
    }

    #[test]
    fn zero_geometry_is_rejected_not_a_panic() {
        let mut d = Driver::new(DriverConfig::default(), 1);
        let buf = d.malloc(64).unwrap();
        let e = d
            .prepare_launch(iota_kernel(), 0, 32, &[Arg::Buffer(buf)])
            .unwrap_err();
        assert_eq!(e, DriverError::DegenerateLaunch { grid: 0, block: 32 });
        let e = d
            .prepare_launch(iota_kernel(), 4, 0, &[Arg::Buffer(buf)])
            .unwrap_err();
        assert_eq!(e, DriverError::DegenerateLaunch { grid: 4, block: 0 });
    }

    #[test]
    fn prepared_launch_exposes_its_region_ids() {
        let mut d = Driver::new(
            DriverConfig {
                enable_static_analysis: false,
                ..DriverConfig::default()
            },
            3,
        );
        let buf = d.malloc(1024 * 4).unwrap();
        let p = d
            .prepare_launch(iota_kernel(), 4, 256, &[Arg::Buffer(buf)])
            .unwrap();
        // Without static analysis the buffer param is Region-classed, so
        // exactly one RBT entry was assigned.
        assert_eq!(p.region_ids.len(), 1);
        assert!(p.region_ids[0] > 0 && p.region_ids[0] < (1 << 14));
    }

    #[test]
    fn unprotected_launch_has_no_region_ids() {
        let mut d = Driver::new(
            DriverConfig {
                enable_shield: false,
                ..DriverConfig::default()
            },
            3,
        );
        let buf = d.malloc(1024 * 4).unwrap();
        let p = d
            .prepare_launch(iota_kernel(), 4, 256, &[Arg::Buffer(buf)])
            .unwrap();
        assert!(p.region_ids.is_empty());
    }

    fn no_analysis_driver() -> Driver {
        Driver::new(
            DriverConfig {
                enable_static_analysis: false,
                ..DriverConfig::default()
            },
            3,
        )
    }

    #[test]
    fn retired_launches_invalidate_their_entries_and_recycle_the_rbt() -> Result<(), Box<dyn Error>>
    {
        let mut d = no_analysis_driver();
        let buf = d.malloc(1024 * 4)?;
        let mut bases = Vec::new();
        for _ in 0..3 {
            let p = d.prepare_launch(iota_kernel(), 4, 256, &[Arg::Buffer(buf)])?;
            let setup = p.shield.ok_or("shielded launch")?;
            for &id in &p.region_ids {
                assert!(read_entry(d.vm(), setup.rbt_base, id)?.valid);
            }
            d.retire_launch(setup, &p.region_ids)?;
            for &id in &p.region_ids {
                let e = read_entry(d.vm(), setup.rbt_base, id)?;
                assert_eq!(e, BoundsEntry::default(), "retired ID {id}");
            }
            assert_eq!(
                d.retire_launch(setup, &p.region_ids),
                Err(DriverError::RbtNotLive {
                    base: setup.rbt_base
                }),
                "a second retirement is refused"
            );
            bases.push(setup.rbt_base);
        }
        assert!(bases.iter().all(|b| *b == bases[0]), "one RBT reused");
        assert_eq!(d.stats().rbt_allocs, 1);
        assert_eq!(d.stats().launches_prepared, 3);
        Ok(())
    }

    #[test]
    fn launches_in_flight_hold_distinct_rbts() -> Result<(), Box<dyn Error>> {
        let mut d = no_analysis_driver();
        let buf = d.malloc(1024 * 4)?;
        let prepare = |d: &mut Driver| -> Result<(ShieldSetup, Vec<u16>), Box<dyn Error>> {
            let p = d.prepare_launch(iota_kernel(), 4, 256, &[Arg::Buffer(buf)])?;
            Ok((p.shield.ok_or("shielded launch")?, p.region_ids))
        };
        let first = [prepare(&mut d)?, prepare(&mut d)?];
        assert_ne!(first[0].0.rbt_base, first[1].0.rbt_base);
        for (setup, ids) in &first {
            d.retire_launch(*setup, ids)?;
        }
        let second = [prepare(&mut d)?, prepare(&mut d)?];
        assert_ne!(second[0].0.rbt_base, second[1].0.rbt_base);
        let mut was: Vec<u64> = first.iter().map(|(s, _)| s.rbt_base).collect();
        let mut now: Vec<u64> = second.iter().map(|(s, _)| s.rbt_base).collect();
        was.sort_unstable();
        now.sort_unstable();
        assert_eq!(was, now, "both retired RBTs reused");
        assert_eq!(d.stats().rbt_allocs, 2);
        let err = d.retire_launch(second[0].0, &[1 << 14]);
        assert_eq!(err, Err(DriverError::RegionIdNotLive { id: 1 << 14 }));
        Ok(())
    }

    #[test]
    fn error_displays_cover_the_untriggerable_variants() {
        let a = DriverError::AllocationFailed {
            what: "heap",
            fault: MemFault::Unmapped { va: 0x40 },
        };
        assert_eq!(
            a.to_string(),
            "failed to allocate heap: illegal memory access at 0x40"
        );
        let m = DriverError::MetadataWrite {
            fault: MemFault::Protected { va: 0x80 },
        };
        assert_eq!(
            m.to_string(),
            "failed to write RBT metadata: access to protected page at 0x80"
        );
        let r = DriverError::RegionIdsExhausted { needed: 99999 };
        assert_eq!(
            r.to_string(),
            "launch needs 99999 region IDs, exceeding the 14-bit ID space"
        );
        let g = DriverError::DegenerateLaunch { grid: 0, block: 64 };
        assert_eq!(g.to_string(), "degenerate launch geometry 0x64");
        let b = DriverError::RbtNotLive { base: 0x20_0000 };
        assert_eq!(b.to_string(), "RBT at 0x200000 retired while not live");
    }

    #[test]
    fn host_buffer_io_roundtrip() {
        let mut d = Driver::new(DriverConfig::default(), 1);
        let buf = d.malloc(64).unwrap();
        d.write_buffer(buf, 8, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        d.read_buffer(buf, 8, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        assert_eq!(d.read_buffer_uint(buf, 8, 4), 0x0403_0201);
    }
}
