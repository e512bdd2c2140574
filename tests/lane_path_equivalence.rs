//! Engine-level pin of the LSU's functional data path.
//!
//! Every registry workload and every specimen of the default fuzz corpus
//! (all nine planted-bug classes, including the page-straddling and
//! out-of-bounds ones) runs through both engines: the quantum engine
//! (`Gpu::run`, via `System::launch`) at one and two workers, and the
//! serial audit engine (`Gpu::run_recorded`, via `System::launch_audited`).
//! Each run is reduced to an FNV-1a fingerprint of every launch result
//! (`Debug` of the report or error), the violation log and the final
//! bytes of every buffer and of the device heap. The pinned values were
//! recorded with the per-lane load/store loops the page-run lane path
//! replaced, so any drift in reports or memory images fails here.
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

use gpushield::{
    Arg, BcuConfig, BufferHandle, DriverConfig, GpuConfig, System, SystemConfig, TenantId,
    TenantTable,
};
use gpushield_bench::runner::{config, Protection, Target};
use gpushield_fuzzgen::{corpus, BugClass, Specimen, CORPUS_SEED, PER_CLASS};
use gpushield_isa::{Kernel, KernelBuilder, MemSpace, MemWidth, Operand, TaggedPtr};
use gpushield_workloads::{all, BufId, HostApi, Suite, WArg};
use std::sync::Arc;

/// `(workload, quantum-engine fingerprint, serial-engine fingerprint)`.
const WORKLOAD_PINS: &[(&str, u64, u64)] = &[
    ("mm", 0xd14801cea359bb65, 0x3a9174412c9e2240),
    ("ConvSep", 0x2c92e18954b82acd, 0x4bc72b5f71e21144),
    ("kmeans", 0x50c106e7b47cebc7, 0xdbbcb024011db10e),
    ("backprop", 0x0d2ba24534243fd5, 0x565b25d25f5a0ebd),
    ("sad", 0x1d301b45567cfa79, 0x3080ed5a7cf4fe9e),
    ("spmv", 0x6889394bc4b76ee1, 0x91831ba8306be8f3),
    ("stencil", 0xec0b41505f8661ec, 0xb3eaa922ba25c1ee),
    ("ScalarProd", 0x7682de626dc1b410, 0x32db86d79792f2b1),
    ("vectoradd", 0x3dbf7f5c7c87b0a7, 0x8df7d8597847badc),
    ("dct", 0x0515b95530ed88e8, 0x4fbce8c66b3c7b29),
    ("Reduction", 0xba27eb278325c5ef, 0x0ade1a1c65e498e1),
    ("bc", 0x7b5f842939d84084, 0xac236ea5ca94cd50),
    ("bfs-dtc", 0x6e026ca56014cd59, 0x05c45d6a49df7908),
    ("gc-dtc", 0x7eb09b887e7a57da, 0xcf3fd64a24b37648),
    ("sssp-dwc", 0x5d23f29050e25815, 0x4215caeb45ee58d9),
    ("lavaMD", 0x632f3ed18fb927c0, 0x99ac7a8aeb6664d8),
    ("gaussian", 0x90ea745fe6d2d725, 0x6434cbc5a4cbea28),
    ("nn-256k-1", 0x6f954d20a402fa9e, 0x384a28fa182b3049),
    ("pagerank", 0x27236ad03e840bfa, 0x0d6bda49ce1f37c0),
    ("kcore", 0x7d7d2b2c08a6cd43, 0x447eb0803b5eb069),
    ("trianglecount", 0x0a02aeb9eb51743e, 0x305a08e0b4bddb99),
    ("cutcp", 0x8e901343ce07da7b, 0xcc1db1cb67b3a375),
    ("tpacf", 0x3ed7e20c311f761a, 0x4b26cb4b08dc6290),
    ("blacksholes", 0xed94f72ae04ed3be, 0xe1371fd38efbd758),
    ("mersennetwister", 0x6ed60134d3cc0d29, 0x42397e24818430e6),
    ("sorting", 0x82e00739b37201fe, 0xb0cfbc069cd67aee),
    ("shoc-reduction", 0x355fa5c7fdc050eb, 0x368ccb055db90625),
    ("scan", 0x1103273498d477ac, 0x475b202ed0222b78),
    ("MergeSort", 0x3fd6d0bb9da7eec5, 0x752be9462b870ebb),
    ("mri-q", 0xb5549af34df481ca, 0x5f2901b402446c58),
    ("SobolQRNG", 0xfade69f6a0de584b, 0x8ede09c7921cd7f1),
    ("DwtHarr", 0x080e0d67aa33e9a8, 0xd0c0d281aeef2ec6),
    ("hotspot", 0xa3340e512ada4f9c, 0xaf478b01217b1107),
    ("lud-64", 0xdae5c839ef1aa38f, 0x70bc44b9076882fd),
    ("lud-256", 0x240973caf378c3a8, 0xee0cf2e68ff1de9a),
    ("LineOfSight", 0xa950d2519158e06c, 0xeb0a06fc1a890499),
    ("Dxtc", 0x9e0615883de6c821, 0xb1ac71728e867917),
    ("Histogram", 0xab2e1a4acb1f4af6, 0x3f6ba75d964344be),
    ("HSOpticalFlow", 0x0f5925ebc3cd7149, 0x23323e886eb30777),
    ("streamcluster", 0xb62f567dfa4a344d, 0x60c71842f47771ca),
    ("nw", 0x840e6fa26d277da7, 0xe41bb08d58930ce8),
    ("transpose", 0x7e0832e259b04a3e, 0x4168f2581b7891e4),
    ("sgemm", 0xe1db30187726ce23, 0xa9729ff1abd0d43a),
    ("lbm", 0xecd62a91ae54044d, 0x8c7e28378219e1ae),
    ("histo", 0xdf96b0e1a59fbe9d, 0x27c3ae4d2888a2a2),
    ("mri-gridding", 0x061bc30a1ee981d6, 0x95b355a9b28c6e80),
    ("atax", 0x3da387ba6c93b857, 0x17134d6ba125b725),
    ("bicg", 0x31dc450a9fbc1d1c, 0x11e97adb1c9a39ca),
    ("mvt", 0x9d3cdb98bf0292e0, 0xbd3e91fbfa255e27),
    ("gemver", 0x8f0e6392798c278a, 0xdc7841301f1ae396),
    ("jacobi2d", 0xec7fdec9e1583759, 0xffc1d13741050075),
    ("fdtd2d", 0x388de3ca7f60fa4b, 0x81e7433d0584b724),
    ("correlation", 0x0f41306f56910a4a, 0x4c44b49a9ba1d494),
    ("covariance", 0x5ad9d99dea2a70e9, 0xe52e5d3b0c062f07),
    ("scalarprod-shoc", 0x22c5b674c3df0571, 0xa83eb90216b0c30b),
    ("spmv-shoc", 0xe0555694eb4e1e22, 0x13f54db8e1903705),
    ("md", 0x60799629d2ae5caf, 0xb0367aabec6a32a2),
    ("fft", 0x9a51422d994dadaf, 0x39da3b49015ea486),
    ("quasirandom", 0x481d5f49ebcc0b67, 0xc79e3fc22bec480a),
    ("binomialoptions", 0x1d9fa2711d4db49f, 0x82f58fc6ae110ace),
    ("montecarlo-fb", 0x291bb3ddb9774f81, 0xacc7d47cfa27ca16),
    ("b+tree", 0xe9604c84b0cc37d6, 0x08bacd1539dd40f6),
    ("cfd", 0x9c9e9af24304b5f0, 0xe53f57d2aeacc30d),
    ("dwt2d", 0x985702a96d69237d, 0xc581b3c124323ff8),
    ("heartwall", 0x566858839f5f359b, 0x9a028d9e77aaff6d),
    ("hotspot3D", 0x264175f83b46a3cd, 0xc92603a696caa6b4),
    ("hybridsort", 0xe9f3d69c67940a83, 0x4ec303d4ffafdd7e),
    ("myocyte", 0x83765eac884787fa, 0xc7f953b4d24146fc),
    ("particlefilter", 0xbd68c793dfbc17c7, 0x1a60f1024bdb75e7),
    ("pathfinder", 0x42c555904cd6ae25, 0xc7a9156ff5a0df05),
    ("srad", 0xada77b3391b24ad6, 0x4a8af9a8270dd69d),
    ("ocl:backprop", 0x94ebb1b8b6e63611, 0x79d01996ca814fa1),
    ("ocl:bfs", 0x9f099716eaa7e8db, 0xe4744f5c6c0458fa),
    ("ocl:BitonicSort", 0xe2fbd4a27834093a, 0x6c8dc7eab79281da),
    ("ocl:GEMM", 0x6c3abcb8fc8820ce, 0x67aff2e0ad96cb91),
    ("ocl:image", 0x3bfd511df0493de4, 0x0a0099b214e97e1d),
    ("ocl:lavaMD", 0xb9b2197a916c4777, 0x606cf286bbfd3814),
    ("ocl:MedianFilter", 0x4298a0514dc4f391, 0xe7bf2b764003cb5e),
    ("ocl:cfd", 0xb656a08b86baa9ab, 0x68a821cd81b1abd2),
    ("ocl:MonteCarlo", 0x8a83c8296247abe4, 0x81d8b772b703cae2),
    ("ocl:pathfinder", 0x0f6656ca096e67ac, 0x6038a2e2db3f77c5),
    ("ocl:svm", 0x1f21175c86535137, 0xc43c7f7cd7586a72),
    ("ocl:hotspot", 0x3f32c312eb990a20, 0xaf57154e54ccbef0),
    ("ocl:hotspot3D", 0x8f0f1f33872b40c5, 0x84341100d5e0a31e),
    ("ocl:hybridsort", 0xb9ca45e2e8f0694f, 0xf47b79f39476e267),
    ("ocl:kmeans", 0x104a8ecb7771e659, 0xa06628c58c782a03),
    ("ocl:nn", 0xe38de7ad4d6269d5, 0x4111b532d6d5008b),
    ("ocl:streamcluster", 0x3d988ef4b24412dd, 0xc8b7b9c9240d0956),
];

/// `(bug class, quantum-engine fingerprint, serial-engine fingerprint)`,
/// each over the class's specimens in corpus order.
const FUZZ_PINS: &[(&str, u64, u64)] = &[
    ("static-oob-write", 0x6cd4e2ff387d6963, 0x01e280a723c56b77),
    ("dyn-oob-read", 0x7089a29157106fe8, 0x65e477f74fd6bfd5),
    ("heap-oob-write", 0x6467a85bdfaef7f2, 0x7c2f6e8cb06b3e97),
    (
        "intra-region-overflow",
        0xf7efe849b32a02da,
        0x11740caa80345994,
    ),
    ("use-after-free", 0xeab955dc60479e07, 0x5d2342b5c72447ef),
    (
        "partial-width-straddle",
        0xed767d03771709ff,
        0x5e521b1aa09d2153,
    ),
    ("local-oob-write", 0xfcff21f032eb7fee, 0x63c1e52518ec50b9),
    ("shared-oob-write", 0x8f5e767b836a643e, 0xff3afcec04cf536e),
    ("benign-control", 0x94fda66299495e94, 0x04ed2e1fd86fb4fc),
];

/// Which engine a launch runs on.
#[derive(Clone, Copy)]
enum Engine {
    /// `Gpu::run` with this many engine workers.
    Quantum(usize),
    /// `Gpu::run_recorded`.
    Serial,
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

/// A workload host that fingerprints every launch as it happens.
struct PinHost {
    sys: System,
    bufs: Vec<BufferHandle>,
    engine: Engine,
    fp: Fnv,
}

impl PinHost {
    fn new(mut cfg: SystemConfig, engine: Engine) -> Self {
        if let Engine::Quantum(n) = engine {
            cfg.gpu.sim_threads = n;
        }
        PinHost {
            sys: System::new(cfg),
            bufs: Vec::new(),
            engine,
            fp: Fnv::new(),
        }
    }

    fn launch_args(&mut self, kernel: &Arc<Kernel>, grid: u32, block: u32, args: &[Arg]) {
        let line = match self.engine {
            Engine::Quantum(_) => {
                format!("{:?}", self.sys.launch(kernel.clone(), grid, block, args))
            }
            Engine::Serial => format!(
                "{:?}",
                self.sys
                    .launch_audited(kernel.clone(), grid, block, args)
                    .map(|(report, _claims)| report)
            ),
        };
        self.fp.eat(line.as_bytes());
    }

    /// Folds the violation log into the report fingerprint, then every
    /// buffer's bytes and the device heap into a copy of it. Returns
    /// `(reports, reports + memory image)`.
    fn finish(mut self) -> (u64, u64) {
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
        (reports, self.fp.0)
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

/// Checks `(name, quantum, serial)` rows against the pins, listing every
/// row in paste-ready form on a mismatch.
fn check_pins(what: &str, got: &[(String, u64, u64)], pins: &[(&str, u64, u64)]) {
    let matches = got.len() == pins.len()
        && got
            .iter()
            .zip(pins)
            .all(|((n, q, s), (pn, pq, ps))| n == pn && q == pq && s == ps);
    if !matches {
        let rows: String = got
            .iter()
            .map(|(n, q, s)| format!("    ({n:?}, 0x{q:016x}, 0x{s:016x}),\n"))
            .collect();
        panic!("{what} fingerprints drifted from the pins; this run:\n{rows}");
    }
}

#[test]
fn registry_workloads_match_the_pinned_fingerprints_on_both_engines() {
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
        let (reports, quantum) = run(Engine::Quantum(1));
        assert_eq!(
            reports,
            run(Engine::Quantum(2)).0,
            "{}: sim_threads 1 vs 2",
            w.name()
        );
        got.push((w.name().to_string(), quantum, run(Engine::Serial).1));
    }
    check_pins("registry workload", &got, WORKLOAD_PINS);
}

/// Runs one fuzz specimen the way the fuzz sweep does, with a patterned
/// sentinel allocation right after its buffers (where overflowing stores
/// land), and returns [`PinHost::finish`]'s pair.
fn run_specimen(s: &Specimen, engine: Engine) -> (u64, u64) {
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

#[test]
fn fuzz_corpus_matches_the_pinned_fingerprints_on_both_engines() {
    let specimens = corpus(CORPUS_SEED, PER_CLASS);
    let mut got = Vec::new();
    for class in BugClass::ALL {
        let (mut quantum, mut serial) = (Fnv::new(), Fnv::new());
        for s in specimens.iter().filter(|s| s.bug.class == class) {
            let (reports, with_image) = run_specimen(s, Engine::Quantum(1));
            let sharded = run_specimen(s, Engine::Quantum(2)).0;
            assert_eq!(reports, sharded, "{}: sim_threads 1 vs 2", s.name);
            quantum.eat(&with_image.to_le_bytes());
            serial.eat(&run_specimen(s, Engine::Serial).1.to_le_bytes());
        }
        got.push((class.slug().to_string(), quantum.0, serial.0));
    }
    check_pins("fuzz class", &got, FUZZ_PINS);
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
