//! Workload-suite integration: metadata sanity for every benchmark and
//! full simulated runs (baseline + protected) for a fast representative
//! subset, asserting zero false positives.

use gpushield::SystemConfig;
use gpushield_bench::verifysweep::CaptureHost;
use gpushield_bench::SystemHost;
use gpushield_isa::{Kernel, ReconvergenceTable};
use gpushield_workloads::{all, by_name, fig19_set, opencl_set, rcache_sensitive_set};
use std::sync::Arc;

#[test]
fn every_workload_has_consistent_metadata() {
    for w in all() {
        let p = w.probe();
        assert!(p.launches > 0, "{}", w.name());
        assert!(!p.kernel_names.is_empty(), "{}", w.name());
        assert!(p.total_threads > 0, "{}", w.name());
        // The paper's programming-model limit (§2.1).
        assert!(p.max_buffers_per_kernel <= 128, "{}", w.name());
    }
}

/// `a == b` and `b == a`: a hand-written `PartialEq` must be symmetric.
fn equal_both_ways(a: &Kernel, b: &Kernel) -> bool {
    a.eq(b) && b.eq(a)
}

/// What `Kernel`'s traits say of each kernel: its `Debug` text, its
/// equality with a clone (both ways, the `Eq` reflexivity a clone must
/// keep) and with the next kernel, and the `Debug` text of a clone.
fn trait_answers(kernels: &[Arc<Kernel>]) -> Vec<(String, bool, bool, String)> {
    kernels
        .iter()
        .zip(kernels.iter().cycle().skip(1))
        .map(|(k, next)| {
            let clone = Kernel::clone(k);
            (
                format!("{k:?}"),
                equal_both_ways(&clone, k),
                **k == **next,
                format!("{clone:?}"),
            )
        })
        .collect()
}

/// Every registry kernel and every specimen of the default fuzz corpus
/// reconverges where a fresh `ReconvergenceTable::build` says, builds its
/// table once, and answers `PartialEq`, `Debug` and `Clone` alike before
/// and after the table exists.
#[test]
fn memoised_reconvergence_tables_match_fresh_builds() {
    let mut kernels: Vec<Arc<Kernel>> = Vec::new();
    for w in all() {
        let mut host = CaptureHost::new();
        w.run(&mut host);
        for l in host.launches {
            if !kernels.iter().any(|k| Arc::ptr_eq(k, &l.kernel)) {
                kernels.push(l.kernel);
            }
        }
    }
    let registry = kernels.len();
    assert!(registry >= 88, "only {registry} registry kernels captured");
    kernels.extend(
        gpushield_fuzzgen::default_corpus()
            .into_iter()
            .map(|s| s.kernel),
    );
    assert_eq!(kernels.len(), registry + 225);

    let before = trait_answers(&kernels);
    let clones: Vec<Kernel> = kernels.iter().map(|k| Kernel::clone(k)).collect();
    for (k, clone) in kernels.iter().zip(&clones) {
        let table = k.reconvergence();
        assert_eq!(*table, ReconvergenceTable::build(k), "{}", k.name());
        assert!(std::ptr::eq(table, k.reconvergence()), "{}", k.name());
        // One side built, the other not: still equal, both ways.
        assert!(equal_both_ways(k, clone), "{}", k.name());
    }
    assert_eq!(trait_answers(&kernels), before);
}

#[test]
fn named_figure_sets_resolve() {
    assert_eq!(rcache_sensitive_set().len(), 17);
    assert_eq!(opencl_set().len(), 17);
    assert_eq!(fig19_set().len(), 9);
}

fn run_both(name: &str) {
    let w = by_name(name).unwrap_or_else(|| panic!("workload {name}"));
    let mut base = SystemHost::new(SystemConfig::nvidia_baseline());
    w.run(&mut base);
    assert!(!base.any_abort(), "{name} aborted on baseline");
    let base_cycles = base.total_cycles();

    let mut prot = SystemHost::new(SystemConfig::nvidia_protected());
    w.run(&mut prot);
    assert!(!prot.any_abort(), "{name}: false positive under GPUShield");
    let ratio = prot.total_cycles() as f64 / base_cycles as f64;
    assert!(
        ratio < 1.05,
        "{name}: default-config overhead {ratio} exceeds the paper's bound"
    );
}

#[test]
fn vectoradd_runs_clean_on_both_systems() {
    run_both("vectoradd");
}

#[test]
fn histogram_runs_clean_on_both_systems() {
    run_both("Histogram");
}

#[test]
fn sensitive_interleaved_workload_runs_clean() {
    run_both("Dxtc");
}

#[test]
fn graph_workload_runs_clean() {
    run_both("trianglecount");
}

#[test]
fn local_memory_workload_runs_clean() {
    run_both("myocyte");
}

#[test]
fn opencl_workload_runs_on_intel() {
    // A graph workload: indirect accesses guarantee runtime checks even
    // with static analysis enabled.
    let w = by_name("ocl:bfs").unwrap();
    let mut host = SystemHost::new(SystemConfig::intel_protected());
    w.run(&mut host);
    assert!(!host.any_abort(), "ocl:bfs false positive on Intel");
    assert!(host.system().bcu_stats().checks > 0);
}
