//! Output pins of the static-analysis stack.
//!
//! Every registry kernel launch (as the driver would see it, captured
//! through [`CaptureHost`]) and every specimen of the default fuzz corpus
//! runs through three compiler entry points:
//!
//! * `PassManager::verify` — diagnostics and the Fig. 16 breakdown;
//! * `analyze` under all four Type 3 × elision configurations — the
//!   whole Bounds-Analysis Table, with its hash maps read in sorted order;
//! * `prove_sites` under the value-less view — every certificate field.
//!
//! Each stream folds into one FNV-1a fingerprint per source. The pins were
//! recorded before the verifier shared one interval fixpoint between its
//! passes and its breakdown and before the relational prover stopped
//! building windows it discards, so any drift in what the compiler
//! decides fails here.

use gpushield_bench::verifysweep::CaptureHost;
use gpushield_compiler::{
    analyze, prove_sites, AnalysisConfig, ArgInfo, BoundsAnalysis, LaunchKnowledge, PassManager,
};
use gpushield_fuzzgen::{corpus, CORPUS_SEED, PER_CLASS};
use gpushield_isa::Kernel;
use gpushield_workloads::all;

/// `(verify, analyze, prove)` over every registry launch in order.
const REGISTRY_PINS: [u64; 3] = [0x8c7e469b061ea35a, 0x234900f5acce57bd, 0x7f8a410281e5ce77];
/// `(verify, analyze, prove)` over the default fuzz corpus in order.
const FUZZ_PINS: [u64; 3] = [0x700bb47d185b9c78, 0x0799412f3bd9bf41, 0x87f0f7a362736d82];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The three stream fingerprints.
struct Streams {
    verify: Fnv,
    analyze: Fnv,
    prove: Fnv,
}

impl Streams {
    fn new() -> Self {
        Streams {
            verify: Fnv::new(),
            analyze: Fnv::new(),
            prove: Fnv::new(),
        }
    }

    fn eat(&mut self, kernel: &Kernel, know: &LaunchKnowledge) {
        let pm = PassManager::with_default_passes();
        let report = pm.verify(kernel, know);
        self.verify.eat(&format!(
            "{} {:?} {:?}",
            report.kernel, report.diagnostics, report.breakdown
        ));
        for enable_type3 in [false, true] {
            for enable_elision in [false, true] {
                let bat = analyze(
                    kernel,
                    know,
                    AnalysisConfig {
                        enable_type3,
                        enable_elision,
                    },
                );
                self.analyze.eat(&bat_text(&bat));
            }
        }
        for p in prove_sites(kernel, &know.value_less()) {
            self.prove.eat(&format!(
                "{:?} {:?} {} {} {} {:?} {:?} {:?} {:?};",
                p.site, p.origin, p.width, p.lo, p.hi_const, p.lo_sym, p.hi_sym, p.conds, p.align
            ));
        }
        self.prove.eat("|");
    }

    fn pins(&self) -> [u64; 3] {
        [self.verify.0, self.analyze.0, self.prove.0]
    }
}

/// A canonical rendering of a BAT: every map in sorted key order.
fn bat_text(bat: &BoundsAnalysis) -> String {
    let mut plan: Vec<_> = bat.plan.iter().collect();
    plan.sort_unstable_by_key(|(site, _)| *site);
    let mut origins: Vec<_> = bat.site_origins.iter().collect();
    origins.sort_unstable_by_key(|(site, _)| **site);
    format!(
        "{plan:?} {:?} {:?} {:?} {} {} {} {} {origins:?} {:?} {}|",
        bat.param_class,
        bat.local_class,
        bat.violations,
        bat.sites_static,
        bat.sites_runtime,
        bat.sites_type3,
        bat.sites_total,
        bat.elided_sites,
        bat.fixpoint_iterations
    )
}

#[test]
fn registry_launches_keep_their_compiler_outputs() {
    let mut streams = Streams::new();
    let mut launches = 0;
    for w in all() {
        let mut cap = CaptureHost::new();
        w.run(&mut cap);
        for l in &cap.launches {
            streams.eat(&l.kernel, &l.know);
            launches += 1;
        }
    }
    assert!(launches > 100, "registry captured only {launches} launches");
    let got = streams.pins();
    assert_eq!(
        got, REGISTRY_PINS,
        "registry compiler pins moved: {got:#018x?}"
    );
}

#[test]
fn fuzz_corpus_keeps_its_compiler_outputs() {
    let mut streams = Streams::new();
    let specimens = corpus(CORPUS_SEED, PER_CLASS);
    for s in &specimens {
        let total_threads = u64::from(s.grid) * u64::from(s.block);
        let know = LaunchKnowledge {
            args: s
                .buffers
                .iter()
                .map(|&size| ArgInfo::Buffer { size })
                .collect(),
            local_sizes: s
                .kernel
                .locals()
                .iter()
                .map(|l| l.bytes_per_thread() * total_threads)
                .collect(),
            block: s.block,
            grid: s.grid,
            heap_size: (s.heap_limit > 0).then_some(s.heap_limit),
        };
        streams.eat(&s.kernel, &know);
    }
    assert_eq!(specimens.len(), 225);
    let got = streams.pins();
    assert_eq!(got, FUZZ_PINS, "fuzz compiler pins moved: {got:#018x?}");
}
