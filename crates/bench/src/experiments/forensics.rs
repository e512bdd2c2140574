//! The forensics exhibit: replay a violating slice of the adversarial
//! fuzz corpus and the fault-injection sweep with the flight recorder in
//! full mode, and pin each run's post-mortem — human-readable and
//! machine-readable JSON side by side.
//!
//! Every replayed fuzz specimen's post-mortem is cross-checked against
//! its [`PlantedBug`](gpushield_fuzzgen::PlantedBug) oracle: the guilty
//! memory-instruction ordinal recovered from the ring must equal the
//! ordinal the generator planted, and the logged violating range must
//! overlap the oracle's victim window where one resolves to virtual
//! addresses. The rendered output is byte-identical at any `--jobs` and
//! any `--sim-threads` value (per-core event outboxes drain in canonical
//! order; see DESIGN.md section 16).

use crate::fuzzsweep;
use crate::runner::{self, fan_out};
use gpushield::{
    Arg, BufferHandle, ConcurrentKernel, FaultKind, FaultPlan, LaunchSpec, ObserveMode, System,
};
use gpushield_fuzzgen::{Expected, Specimen};
use gpushield_runtime::rng::derive_seed;
use std::fmt::Write as _;

use super::resilience;

/// Fault count per replayed injection trial: enough pressure that every
/// kind deterministically perturbs the run.
const FAULT_COUNT: usize = 4;

/// Replays one specimen with full observation and renders its
/// post-mortem plus the oracle cross-check.
fn replay_specimen(s: &Specimen) -> String {
    let mut sys = System::new(fuzzsweep::sweep_config(true));
    sys.enable_observation(ObserveMode::Full);
    let bufs: Vec<BufferHandle> = s
        .buffers
        .iter()
        .map(|&b| sys.alloc(b).expect("specimen buffer"))
        .collect();
    if s.heap_limit > 0 {
        sys.set_heap_limit(s.heap_limit).expect("heap limit");
    }
    let args: Vec<Arg> = bufs.iter().map(|&h| Arg::Buffer(h)).collect();
    let _ = sys.launch(s.kernel.clone(), s.grid, s.block, &args);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== fuzz specimen {} (class {}) ==",
        s.name,
        s.bug.class.slug()
    );
    let Some(pm) = sys.post_mortem() else {
        let _ = writeln!(out, "  no anomaly resident - post-mortem unavailable");
        return out;
    };
    for line in pm.render_text().lines() {
        let _ = writeln!(out, "  {line}");
    }
    let recovered = pm.guilty_mem_ordinal(&s.kernel);
    let ordinal_ok = recovered.is_some() && recovered == s.bug.mem_ordinal;
    let window = fuzzsweep::victim_window(s, &sys, &bufs);
    let overlap = match (window, pm.violation.as_ref()) {
        (Some((lo, hi)), Some(v)) => {
            if v.range.0 < hi && v.range.1 > lo {
                "yes"
            } else {
                "NO"
            }
        }
        // No VA window (locals, controls): the site is the evidence.
        (None, _) => "n/a",
        (Some(_), None) => "NO",
    };
    let _ = writeln!(
        out,
        "  oracle: planted mem_ordinal={:?} recovered={:?} match={} | \
         victim_window_overlap={} victim_named={}",
        s.bug.mem_ordinal,
        recovered,
        if ordinal_ok { "yes" } else { "NO" },
        overlap,
        if pm.victim.is_some() { "yes" } else { "NO" }
    );
    let _ = writeln!(out, "  json: {}", pm.render_json());
    out
}

/// Replays one fault-injection trial (the resilience sweep's workloads)
/// with full observation and renders its post-mortem.
fn replay_fault(kind: FaultKind, spin: bool) -> String {
    let mut cfg = resilience::sys_config(true);
    cfg.gpu.sim_threads = runner::sim_threads();
    let mut sys = System::new(cfg);
    sys.enable_observation(ObserveMode::Full);
    let (kernel, grid, block, words, window) = if spin {
        (resilience::spin_kernel(), 1u32, 32u32, 8u64, 5u64)
    } else {
        (resilience::linear_kernel(), 4u32, 32u32, 128u64, 4u64)
    };
    let buf = sys.alloc(words * 4).expect("trial buffer");
    if spin {
        sys.write_buffer(buf, 0, &1u32.to_le_bytes());
    }
    let plan_seed = derive_seed(u64::from(spin), &format!("forensics-fault/{}", kind.name()));
    let plan = FaultPlan::generate(plan_seed, &[kind], FAULT_COUNT, window);
    let _ = sys.submit(LaunchSpec {
        faults: Some(plan),
        ..LaunchSpec::new(&[ConcurrentKernel::new(
            kernel,
            grid,
            block,
            &[Arg::Buffer(buf)],
        )])
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== fault trial {} ({} workload) ==",
        kind.name(),
        if spin { "spin" } else { "store" }
    );
    match sys.post_mortem() {
        Some(pm) => {
            for line in pm.render_text().lines() {
                let _ = writeln!(out, "  {line}");
            }
            let _ = writeln!(
                out,
                "  injections resident in ring: {}",
                pm.faults_injected.len()
            );
            let _ = writeln!(out, "  json: {}", pm.render_json());
        }
        None => {
            let _ = writeln!(
                out,
                "  no anomaly resident - corruption was masked or benignly absorbed"
            );
        }
    }
    out
}

/// One replay case, unified so the fan-out preserves submission order.
enum Case {
    Specimen(Specimen),
    Fault(FaultKind, bool),
}

/// The exhibit: one specimen per Detected-expected bug class, then every
/// fault kind against both resilience workloads.
pub fn forensics(jobs: usize) -> String {
    let corpus = gpushield_fuzzgen::corpus(gpushield_fuzzgen::CORPUS_SEED, 1);
    let mut cases: Vec<Case> = corpus
        .into_iter()
        .filter(|s| s.bug.class.expected() == Expected::Detected)
        .map(Case::Specimen)
        .collect();
    let specimens = cases.len();
    for kind in FaultKind::ALL {
        for spin in [false, true] {
            cases.push(Case::Fault(kind, spin));
        }
    }
    let faults = cases.len() - specimens;

    let tasks: Vec<_> = cases
        .into_iter()
        .map(|c| {
            move || match c {
                Case::Specimen(s) => replay_specimen(&s),
                Case::Fault(kind, spin) => replay_fault(kind, spin),
            }
        })
        .collect();
    let sections = fan_out(tasks, jobs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Flight-recorder forensics — {specimens} fuzz specimens (one per Detected class,\n \
         corpus seed 0x{:X}) and {faults} fault-injection trials replayed under full\n \
         observation; each post-mortem walks the event ring backwards from the anomaly\n \
         and is cross-checked against the specimen's PlantedBug oracle\n",
        gpushield_fuzzgen::CORPUS_SEED
    );
    for s in &sections {
        out.push_str(s);
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "(post-mortems are byte-identical at any --jobs and --sim-threads value: per-core\n \
         outboxes replay into the ring in canonical (cycle, core, sequence) order — see\n \
         DESIGN.md section 16)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpushield_fuzzgen::BugClass;

    #[test]
    fn exhibit_is_deterministic_across_job_counts() {
        let a = forensics(1);
        let b = forensics(4);
        assert_eq!(a, b, "rendered forensics must not depend on worker count");
    }

    #[test]
    fn every_detected_specimen_post_mortem_matches_its_oracle() {
        let text = forensics(2);
        let detected_classes = BugClass::ALL
            .iter()
            .filter(|c| c.expected() == Expected::Detected)
            .count();
        let matches = text.matches("match=yes").count();
        assert_eq!(
            matches, detected_classes,
            "every replayed specimen must recover the planted ordinal"
        );
        assert_eq!(text.matches("match=NO").count(), 0);
        assert_eq!(text.matches("victim_named=NO").count(), 0);
        assert_eq!(text.matches("window_overlap=NO").count(), 0);
    }

    #[test]
    fn fault_trials_record_their_injections() {
        let text = forensics(2);
        for kind in FaultKind::ALL {
            assert!(
                text.contains(&format!("== fault trial {}", kind.name())),
                "{} trial missing",
                kind.name()
            );
        }
        assert!(text.contains("injections resident in ring:"));
    }
}
