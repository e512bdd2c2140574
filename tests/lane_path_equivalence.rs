//! Engine-level pin of the LSU's functional data path.
//!
//! Every registry workload and every specimen of the default fuzz corpus
//! (all nine planted-bug classes, including the page-straddling and
//! out-of-bounds ones) runs on the cycle-quantum engine three ways: plain
//! (`Gpu::run`, via `System::launch`) at one and two workers, and audited
//! (`Gpu::run_recorded`, via `System::launch_audited`). Each run is
//! reduced to an FNV-1a fingerprint of every launch result (`Debug` of
//! the report or error), the violation log and the final bytes of every
//! buffer and of the device heap. The pinned values were recorded with
//! the per-lane load/store loops the page-run lane path replaced, so any
//! drift in reports or memory images fails here.
//!
//! Recording observed ranges must not perturb the run: the audited
//! fingerprint, with every report's `observed_ranges` cleared, equals the
//! plain one. The ranges themselves fold into a second pin per registry
//! workload, recorded on the serial engine that audited runs used before
//! they moved onto the quantum engine, so the move left every site's
//! attempted-address extremes where they were.
//!
//! At two workers only the reports are compared (against one worker's):
//! plain stores racing across cores inside one cycle quantum have no
//! defined order (see `VirtualMemorySpace`'s frame docs), so a racy
//! kernel such as `tpacf`'s non-atomic histogram leaves a host-timing
//! dependent image when cores run on different threads.
//!
//! A long serving session pins the engine state a `Gpu` keeps between
//! runs and the RBTs the driver reuses between launches: 2,000 tenant
//! jobs on one `System` fold into one fingerprint at one and two workers.
//!
//! Every trial of the fault-resilience sweep pins the fault-injected
//! launch path: each trial's launch result (report and injection log, or
//! error), violation log and final output words fold into one
//! fingerprint, the same at one and seven workers.

use gpushield::{
    Arg, BcuConfig, BufferHandle, DriverConfig, GpuConfig, System, SystemConfig, TenantId,
    TenantTable,
};
use gpushield_bench::experiments::resilience::{self, Injected};
use gpushield_bench::runner::{config, Protection, Target};
use gpushield_fuzzgen::{corpus, BugClass, Specimen, CORPUS_SEED, PER_CLASS};
use gpushield_isa::{Kernel, KernelBuilder, MemSpace, MemWidth, Operand, TaggedPtr};
use gpushield_workloads::{all, BufId, HostApi, Suite, WArg};
use std::sync::Arc;

/// `(workload, fingerprint, observed-range fingerprint)`.
const WORKLOAD_PINS: &[(&str, u64, u64)] = &[
    ("mm", 0xd14801cea359bb65, 0xee702c8e0619e191),
    ("ConvSep", 0x2c92e18954b82acd, 0x16461ca84f5cc05e),
    ("kmeans", 0x50c106e7b47cebc7, 0x4f8af8608e672070),
    ("backprop", 0x0d2ba24534243fd5, 0x92b417935d4380d9),
    ("sad", 0x1d301b45567cfa79, 0x52aae028c23abd1a),
    ("spmv", 0x6889394bc4b76ee1, 0xe28da970452250fc),
    ("stencil", 0xec0b41505f8661ec, 0xfe1ec4b13b197a11),
    ("ScalarProd", 0x7682de626dc1b410, 0x73285946af3adeb7),
    ("vectoradd", 0x3dbf7f5c7c87b0a7, 0x04c2b67f5f1672b1),
    ("dct", 0x0515b95530ed88e8, 0x510a35a3e8996214),
    ("Reduction", 0xba27eb278325c5ef, 0x0d1db61a3a4defa5),
    ("bc", 0x7b5f842939d84084, 0x1e90549031ddaab0),
    ("bfs-dtc", 0x6e026ca56014cd59, 0x48eb1a8ce6bb237f),
    ("gc-dtc", 0x7eb09b887e7a57da, 0x921da41adb084075),
    ("sssp-dwc", 0x5d23f29050e25815, 0x9b05b7aa0c9fe249),
    ("lavaMD", 0x632f3ed18fb927c0, 0x304e7c8f6f2a02c6),
    ("gaussian", 0x90ea745fe6d2d725, 0x1ea35c5a34f0d7c7),
    ("nn-256k-1", 0x6f954d20a402fa9e, 0x8c694e096e99a99b),
    ("pagerank", 0x27236ad03e840bfa, 0xdcd4cd43367e31ee),
    ("kcore", 0x7d7d2b2c08a6cd43, 0x5c6927be294b5cb5),
    ("trianglecount", 0x0a02aeb9eb51743e, 0xecdbfe2a0f67a79e),
    ("cutcp", 0x8e901343ce07da7b, 0x563ac7ffe4201e5e),
    ("tpacf", 0x3ed7e20c311f761a, 0xa92ff6345f0f19a2),
    ("blacksholes", 0xed94f72ae04ed3be, 0xeeb592cc6ce20520),
    ("mersennetwister", 0x6ed60134d3cc0d29, 0xe34b4077f67e7ee0),
    ("sorting", 0x82e00739b37201fe, 0x69b7b89e5993e58d),
    ("shoc-reduction", 0x355fa5c7fdc050eb, 0xc7c01519dd63177b),
    ("scan", 0x1103273498d477ac, 0x7e7506487e5e6731),
    ("MergeSort", 0x3fd6d0bb9da7eec5, 0x09dc8d3fddf1329d),
    ("mri-q", 0xb5549af34df481ca, 0x2ef8c969c1260415),
    ("SobolQRNG", 0xfade69f6a0de584b, 0x73285946af3adeb7),
    ("DwtHarr", 0x080e0d67aa33e9a8, 0x10f9b3014dad6209),
    ("hotspot", 0xa3340e512ada4f9c, 0xfa30d585572b631a),
    ("lud-64", 0xdae5c839ef1aa38f, 0xc82491dfae0006a5),
    ("lud-256", 0x240973caf378c3a8, 0xbee3058a682bfa85),
    ("LineOfSight", 0xa950d2519158e06c, 0x73285946af3adeb7),
    ("Dxtc", 0x9e0615883de6c821, 0x90573ba1288db957),
    ("Histogram", 0xab2e1a4acb1f4af6, 0xb4c7b63437c9321f),
    ("HSOpticalFlow", 0x0f5925ebc3cd7149, 0x27823e7ccf4473cd),
    ("streamcluster", 0xb62f567dfa4a344d, 0xedf7b4ff4f2be735),
    ("nw", 0x840e6fa26d277da7, 0xc66b4d5ad2d66165),
    ("transpose", 0x7e0832e259b04a3e, 0x64cacfa261d48d45),
    ("sgemm", 0xe1db30187726ce23, 0x54f7301fd038243f),
    ("lbm", 0xecd62a91ae54044d, 0x2768e19d64efe6ff),
    ("histo", 0xdf96b0e1a59fbe9d, 0x01cad9ac78498d76),
    ("mri-gridding", 0x061bc30a1ee981d6, 0x73285946af3adeb7),
    ("atax", 0x3da387ba6c93b857, 0xfc8240bfea2b759a),
    ("bicg", 0x31dc450a9fbc1d1c, 0x5f37b7c93c0b9c95),
    ("mvt", 0x9d3cdb98bf0292e0, 0xee702c8e0619e191),
    ("gemver", 0x8f0e6392798c278a, 0x9d3b58e69a75b70a),
    ("jacobi2d", 0xec7fdec9e1583759, 0x9c384e6f1217f8d1),
    ("fdtd2d", 0x388de3ca7f60fa4b, 0xc50378b329b7ea7b),
    ("correlation", 0x0f41306f56910a4a, 0xb8d79a7f48a1be19),
    ("covariance", 0x5ad9d99dea2a70e9, 0xb8d79a7f48a1be19),
    ("scalarprod-shoc", 0x22c5b674c3df0571, 0x7752fc2322d8b6e5),
    ("spmv-shoc", 0xe0555694eb4e1e22, 0xb4e083240b27c830),
    ("md", 0x60799629d2ae5caf, 0x6ac00e0280cf5922),
    ("fft", 0x9a51422d994dadaf, 0x25aacede979318fa),
    ("quasirandom", 0x481d5f49ebcc0b67, 0x5622cee3343ba085),
    ("binomialoptions", 0x1d9fa2711d4db49f, 0xf387dd6db0121ab2),
    ("montecarlo-fb", 0x291bb3ddb9774f81, 0xc0b1306c19617a49),
    ("b+tree", 0xe9604c84b0cc37d6, 0x78d906e53c5b9f2d),
    ("cfd", 0x9c9e9af24304b5f0, 0x8cbdc1bb25020535),
    ("dwt2d", 0x985702a96d69237d, 0xb8bfcedcf099eba5),
    ("heartwall", 0x566858839f5f359b, 0xfc8240bfea2b759a),
    ("hotspot3D", 0x264175f83b46a3cd, 0xd58fcaa8818fa5bc),
    ("hybridsort", 0xe9f3d69c67940a83, 0x1b4fab1fbe45a256),
    ("myocyte", 0x83765eac884787fa, 0xa418634749ea0fac),
    ("particlefilter", 0xbd68c793dfbc17c7, 0x9ceece1c17bd05c0),
    ("pathfinder", 0x42c555904cd6ae25, 0xc45a9718b30173bf),
    ("srad", 0xada77b3391b24ad6, 0xb7de7cdb32afd5b7),
    ("ocl:backprop", 0x94ebb1b8b6e63611, 0x92b417935d4380d9),
    ("ocl:bfs", 0x9f099716eaa7e8db, 0xb264783c89eeaa4f),
    ("ocl:BitonicSort", 0xe2fbd4a27834093a, 0x69b7b89e5993e58d),
    ("ocl:GEMM", 0x6c3abcb8fc8820ce, 0xee702c8e0619e191),
    ("ocl:image", 0x3bfd511df0493de4, 0x0ed4dc74a940742c),
    ("ocl:lavaMD", 0xb9b2197a916c4777, 0x66e11b63e7a64a57),
    ("ocl:MedianFilter", 0x4298a0514dc4f391, 0x3ba5a152ea7c6713),
    ("ocl:cfd", 0xb656a08b86baa9ab, 0x01cc18adabbf0e05),
    ("ocl:MonteCarlo", 0x8a83c8296247abe4, 0x53c7116e4ac6fc0f),
    ("ocl:pathfinder", 0x0f6656ca096e67ac, 0xc45a9718b30173bf),
    ("ocl:svm", 0x1f21175c86535137, 0xf8845a86bad750e1),
    ("ocl:hotspot", 0x3f32c312eb990a20, 0xfa30d585572b631a),
    ("ocl:hotspot3D", 0x8f0f1f33872b40c5, 0xd58fcaa8818fa5bc),
    ("ocl:hybridsort", 0xb9ca45e2e8f0694f, 0x1b4fab1fbe45a256),
    ("ocl:kmeans", 0x104a8ecb7771e659, 0x4f8af8608e672070),
    ("ocl:nn", 0xe38de7ad4d6269d5, 0x065640208be7ce69),
    ("ocl:streamcluster", 0x3d988ef4b24412dd, 0xedf7b4ff4f2be735),
];

/// `(bug class, fingerprint)`, each over the class's specimens in corpus
/// order.
const FUZZ_PINS: &[(&str, u64)] = &[
    ("static-oob-write", 0x6cd4e2ff387d6963),
    ("dyn-oob-read", 0x7089a29157106fe8),
    ("heap-oob-write", 0x6467a85bdfaef7f2),
    ("intra-region-overflow", 0xf7efe849b32a02da),
    ("use-after-free", 0xeab955dc60479e07),
    ("partial-width-straddle", 0xed767d03771709ff),
    ("local-oob-write", 0xfcff21f032eb7fee),
    ("shared-oob-write", 0x8f5e767b836a643e),
    ("benign-control", 0x94fda66299495e94),
];

/// How a launch runs.
#[derive(Clone, Copy)]
enum Engine {
    /// `Gpu::run` with this many engine workers.
    Plain(usize),
    /// `Gpu::run_recorded` on one worker.
    Audited,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// What [`PinHost::finish`] folds one host's launches into.
struct Prints {
    /// Launch results and the violation log.
    reports: u64,
    /// `reports` plus every buffer's bytes and the device heap.
    image: u64,
    /// Every audited launch's observed ranges (the empty fold otherwise).
    ranges: u64,
}

/// A workload host that fingerprints every launch as it happens.
struct PinHost {
    sys: System,
    bufs: Vec<BufferHandle>,
    engine: Engine,
    fp: Fnv,
    ranges: Fnv,
}

impl PinHost {
    fn new(mut cfg: SystemConfig, engine: Engine) -> Self {
        cfg.gpu.sim_threads = match engine {
            Engine::Plain(n) => n,
            Engine::Audited => 1,
        };
        PinHost {
            sys: System::new(cfg),
            bufs: Vec::new(),
            engine,
            fp: Fnv::new(),
            ranges: Fnv::new(),
        }
    }

    /// Folds the launch result into the fingerprint. An audited launch's
    /// observed ranges fold into their own fingerprint and are cleared
    /// first, so the result reads as the plain launch's would.
    fn launch_args(&mut self, kernel: &Arc<Kernel>, grid: u32, block: u32, args: &[Arg]) {
        let line = match self.engine {
            Engine::Plain(_) => {
                format!("{:?}", self.sys.launch(kernel.clone(), grid, block, args))
            }
            Engine::Audited => {
                let mut result = self
                    .sys
                    .launch_audited(kernel.clone(), grid, block, args)
                    .map(|(report, _claims)| report);
                for l in result.iter_mut().flat_map(|r| &mut r.launches) {
                    self.ranges
                        .eat(format!("{:?}", l.observed_ranges).as_bytes());
                    l.observed_ranges.clear();
                }
                format!("{result:?}")
            }
        };
        self.fp.eat(line.as_bytes());
    }

    /// Folds the violation log into the report fingerprint, then every
    /// buffer's bytes and the device heap into a copy of it.
    fn finish(mut self) -> Prints {
        self.fp
            .eat(format!("{:?}", self.sys.violations()).as_bytes());
        let reports = self.fp.0;
        for &h in &self.bufs {
            let mut bytes = vec![0u8; self.sys.driver().buffer_size(h) as usize];
            self.sys.read_buffer(h, 0, &mut bytes);
            self.fp.eat(&bytes);
        }
        if let Some((va, size)) = self.sys.heap_window() {
            let mut bytes = vec![0u8; size as usize];
            let read = self.sys.driver().vm().read_bypass(va, &mut bytes);
            self.fp.eat(format!("{read:?}").as_bytes());
            self.fp.eat(&bytes);
        }
        Prints {
            reports,
            image: self.fp.0,
            ranges: self.ranges.0,
        }
    }
}

impl HostApi for PinHost {
    fn alloc(&mut self, bytes: u64) -> BufId {
        self.bufs
            .push(self.sys.alloc(bytes).expect("workload allocation"));
        self.bufs.len() - 1
    }

    fn upload_u32(&mut self, buf: BufId, offset_bytes: u64, data: &[u32]) {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.sys.write_buffer(self.bufs[buf], offset_bytes, &bytes);
    }

    fn set_heap(&mut self, bytes: u64) {
        self.sys.set_heap_limit(bytes).expect("heap limit");
    }

    fn launch(&mut self, kernel: &Arc<Kernel>, grid: u32, block: u32, args: &[WArg]) {
        let mapped: Vec<Arg> = args
            .iter()
            .map(|a| match a {
                WArg::Buf(b) => Arg::Buffer(self.bufs[*b]),
                WArg::Scalar(v) => Arg::Scalar(*v),
            })
            .collect();
        self.launch_args(kernel, grid, block, &mapped);
    }
}

/// Checks paste-ready pin rows against the pins, listing every row of
/// this run on a mismatch.
fn check_pins(what: &str, got: &[String], pins: &[String]) {
    if got != pins {
        panic!(
            "{what} fingerprints drifted from the pins; this run:\n{}",
            got.concat()
        );
    }
}

fn workload_row(name: &str, fp: u64, ranges: u64) -> String {
    format!("    ({name:?}, 0x{fp:016x}, 0x{ranges:016x}),\n")
}

#[test]
fn registry_workloads_match_the_pinned_fingerprints() {
    let mut got = Vec::new();
    for w in all() {
        let target = match w.suite() {
            Suite::OpenCl => Target::Intel,
            _ => Target::Nvidia,
        };
        let cfg = config(target, Protection::shield_lat(1, 3));
        let run = |engine| {
            let mut host = PinHost::new(cfg.clone(), engine);
            w.run(&mut host);
            host.finish()
        };
        let plain = run(Engine::Plain(1));
        assert_eq!(
            plain.reports,
            run(Engine::Plain(2)).reports,
            "{}: sim_threads 1 vs 2",
            w.name()
        );
        let audited = run(Engine::Audited);
        assert_eq!(plain.image, audited.image, "{}: audited vs plain", w.name());
        got.push(workload_row(w.name(), plain.image, audited.ranges));
    }
    let pins: Vec<String> = WORKLOAD_PINS
        .iter()
        .map(|&(n, fp, ranges)| workload_row(n, fp, ranges))
        .collect();
    check_pins("registry workload", &got, &pins);
}

/// Runs one fuzz specimen the way the fuzz sweep does, with a patterned
/// sentinel allocation right after its buffers (where overflowing stores
/// land).
fn run_specimen(s: &Specimen, engine: Engine) -> Prints {
    let mut cfg = SystemConfig::nvidia_protected();
    cfg.driver.enable_type3 = true;
    cfg.driver.enable_elision = true;
    cfg.gpu.max_cycles = 200_000;
    let mut host = PinHost::new(cfg, engine);
    for &bytes in &s.buffers {
        host.alloc(bytes);
    }
    let sentinel = host.alloc(256);
    host.upload_u32(sentinel, 0, &[0x53E7_71E1; 64]);
    let args: Vec<Arg> = host.bufs[..s.buffers.len()]
        .iter()
        .map(|&h| Arg::Buffer(h))
        .collect();
    if s.heap_limit > 0 {
        host.set_heap(s.heap_limit);
    }
    host.launch_args(&s.kernel, s.grid, s.block, &args);
    host.finish()
}

fn fuzz_row(class: &str, fp: u64) -> String {
    format!("    ({class:?}, 0x{fp:016x}),\n")
}

#[test]
fn fuzz_corpus_matches_the_pinned_fingerprints() {
    let specimens = corpus(CORPUS_SEED, PER_CLASS);
    let mut got = Vec::new();
    for class in BugClass::ALL {
        let mut fp = Fnv::new();
        for s in specimens.iter().filter(|s| s.bug.class == class) {
            let plain = run_specimen(s, Engine::Plain(1));
            let sharded = run_specimen(s, Engine::Plain(2)).reports;
            assert_eq!(plain.reports, sharded, "{}: sim_threads 1 vs 2", s.name);
            let audited = run_specimen(s, Engine::Audited).image;
            assert_eq!(plain.image, audited, "{}: audited vs plain", s.name);
            fp.eat(&plain.image.to_le_bytes());
        }
        got.push(fuzz_row(class.slug(), fp.0));
    }
    let pins: Vec<String> = FUZZ_PINS
        .iter()
        .map(|&(class, fp)| fuzz_row(class, fp))
        .collect();
    check_pins("fuzz class", &got, &pins);
}

/// Fingerprint of [`serving_session`], the same at one and two workers.
const SERVING_PIN: u64 = 0xfd32_6ab1_2630_c84c;

/// Stores `0xBAD` through a pointer loaded from `A[0]` (`indirect` false)
/// or through `A` at an offset loaded from `A[8]` (`indirect` true).
fn probe_kernel(indirect: bool) -> Arc<Kernel> {
    let mut b = KernelBuilder::new("pin_probe");
    let a = b.param_buffer("A", false);
    let slot = b.ld(
        MemSpace::Global,
        MemWidth::W8,
        b.base_offset(a, Operand::Imm(if indirect { 8 } else { 0 })),
    );
    let addr = if indirect {
        b.base_offset(a, slot)
    } else {
        b.base_offset(slot, Operand::Imm(0))
    };
    b.st(MemSpace::Global, MemWidth::W4, addr, Operand::Imm(0xBAD));
    b.ret();
    Arc::new(b.finish().expect("valid kernel"))
}

/// A 2,000-job serving session on one `System`: four tenants on
/// 16-ID slices take turns launching `iota` over 1..=32 threads, and
/// every 25 jobs carry one probe of each cross-tenant vector against the
/// next tenant's secret. Folds every job's `(cycles, instructions,
/// violations)` (or its error) and then every buffer's final bytes.
fn serving_session(sim_threads: usize) -> u64 {
    const TENANTS: usize = 4;
    let mut sys = System::new(SystemConfig {
        gpu: GpuConfig {
            max_cycles: 200_000,
            sim_threads,
            ..GpuConfig::nvidia()
        },
        driver: DriverConfig {
            enable_static_analysis: false,
            ..DriverConfig::default()
        },
        bcu: BcuConfig {
            strict_runtime_tags: true,
            ..BcuConfig::default()
        },
        seed: 0x6057_5E1D,
    });
    let mut tenants =
        TenantTable::with_slices((0..TENANTS as u16).map(|t| (1 + 16 * t, 17 + 16 * t, 1)));
    let work: Vec<BufferHandle> = (0..TENANTS)
        .map(|_| sys.alloc(32 * 4).expect("work buffer"))
        .collect();
    let secret: Vec<BufferHandle> = (0..TENANTS as u32)
        .map(|t| {
            let words: Vec<u32> = (0..8).map(|i| 0xA5A5_0000 ^ (t << 8) ^ i).collect();
            sys.alloc_u32s(&words).expect("secret buffer")
        })
        .collect();
    let iota = gpushield_bench::serving::iota_kernel();
    let (deref, indirect) = (probe_kernel(false), probe_kernel(true));
    let mut fp = Fnv::new();
    for job in 0..2_000u32 {
        let t = job as usize % TENANTS;
        let victim_va = sys.driver().buffer_va(secret[(t + 1) % TENANTS]);
        let (kernel, block, payload) = match job % 25 {
            5 => (&deref, 1, Some((0, victim_va))),
            11 => {
                let delta = victim_va.wrapping_sub(sys.driver().buffer_va(work[t]));
                (&indirect, 1, Some((8, delta)))
            }
            17 => {
                let guess = 1 + 16 * ((t + 1) % TENANTS) as u16;
                let raw = TaggedPtr::with_region_id(victim_va, guess).raw();
                (&deref, 1, Some((0, raw)))
            }
            23 => (
                &deref,
                1,
                Some((0, TaggedPtr::with_log2_size(victim_va, 40).raw())),
            ),
            _ => (&iota, 1 + job % 32, None),
        };
        if let Some((offset, value)) = payload {
            sys.write_buffer(work[t], offset, &value.to_le_bytes());
        }
        let result = sys
            .launch_tenant(
                &mut tenants,
                TenantId(t as u16),
                kernel.clone(),
                1,
                block,
                &[Arg::Buffer(work[t])],
            )
            .map(|(r, v)| (r.cycles, r.instructions(), v.len()));
        fp.eat(format!("{result:?}").as_bytes());
    }
    for &h in work.iter().chain(&secret) {
        let mut bytes = vec![0u8; sys.driver().buffer_size(h) as usize];
        sys.read_buffer(h, 0, &mut bytes);
        fp.eat(&bytes);
    }
    fp.0
}

#[test]
fn a_long_serving_session_matches_the_pinned_fingerprint() {
    let got = [serving_session(1), serving_session(2)];
    assert_eq!(
        got, [SERVING_PIN; 2],
        "serving session fingerprints at sim_threads 1 and 2: 0x{:016x} 0x{:016x}",
        got[0], got[1]
    );
}

/// Fingerprint of every fault-resilience trial, the same at one and
/// seven workers.
const FAULT_TRIALS_PIN: u64 = 0x54ee_9a53_cd45_405e;

/// Folds one fault-injected trial's launch result, violation log and
/// final output words.
fn fault_trial_print(t: resilience::Trial, sim_threads: usize) -> u64 {
    let Injected {
        sys,
        buf,
        words,
        result,
    } = resilience::inject(t, sim_threads);
    let mut fp = Fnv::new();
    fp.eat(format!("{result:?}").as_bytes());
    fp.eat(format!("{:?}", sys.violations()).as_bytes());
    for i in 0..words {
        fp.eat(&sys.read_uint(buf, i * 4, 4).to_le_bytes());
    }
    fp.0
}

#[test]
fn every_fault_resilience_trial_matches_the_pinned_fingerprint() {
    let mut fp = Fnv::new();
    for t in resilience::trials() {
        let one = fault_trial_print(t, 1);
        assert_eq!(one, fault_trial_print(t, 7), "{t:?}: sim_threads 1 vs 7");
        fp.eat(&one.to_le_bytes());
    }
    assert_eq!(
        fp.0, FAULT_TRIALS_PIN,
        "fault-trial fingerprint: 0x{:016x}",
        fp.0
    );
}
