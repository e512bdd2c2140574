//! `fuzz`: a triage pipeline whose unit of work is one buggy kernel, as
//! in "Chasing Elusive Memory Bugs in GPU Programs". The seeded
//! `fuzzgen` corpus covers all nine planted-bug classes and runs under
//! the `fuzz_scoreboard` configuration (Nvidia shield + static analysis +
//! Type 3 + elision + watchdog). An op is one specimen judged: verifier
//! passes → fresh system → `launch_audited` → oracle check.
//!
//! The kernels are tiny, so the compiler (verify, BAT analysis,
//! relational proofs) is about half the host time, and launches run on
//! the serial recording engine. Compiler changes show here and nowhere
//! else.

use crate::layers::Counts;
use crate::stack::Stack;
use crate::stats::proc_status_kb;
use crate::trace::Tracer;
use crate::{Round, Setup, Sig};
use gpushield::{Arg, BufferHandle, RunError, System, SystemConfig, SystemError};
use gpushield_compiler::{ArgInfo, LaunchKnowledge, PassManager};
use gpushield_fuzzgen::{corpus, BugClass, Expected, Specimen, VictimRef};
use gpushield_isa::{BlockId, Instr};
use std::hint::black_box;
use std::time::Instant;

/// Specimens per class (9 classes × 1,000 = 9,000 per corpus pass).
const PER_CLASS: usize = 1000;
/// Every how many specimens one is judged during warm-up.
const WARM_UP_STRIDE: usize = 25;
/// Watchdog budget per specimen launch, as the scoreboard's.
const MAX_CYCLES: u64 = 200_000;
/// Unshared sentinel allocation after the specimen's buffers.
const SENTINEL_BYTES: u64 = 256;
const SENTINEL_WORD: u32 = 0x53E7_71E1;

/// The scoreboard's everything-on audit configuration.
fn sweep_config() -> SystemConfig {
    let mut cfg = SystemConfig::nvidia_protected();
    cfg.driver.enable_type3 = true;
    cfg.driver.enable_elision = true;
    cfg.gpu.max_cycles = MAX_CYCLES;
    cfg.gpu.sim_threads = 1;
    cfg
}

/// The driver's launch-time knowledge, for the verifier.
fn knowledge(s: &Specimen) -> LaunchKnowledge {
    let total_threads = u64::from(s.grid) * u64::from(s.block);
    LaunchKnowledge {
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
    }
}

/// The instruction site the violation log names for the planted bug.
fn planted_site(s: &Specimen) -> Option<(BlockId, usize)> {
    let ord = s.bug.mem_ordinal?;
    s.kernel
        .iter_instrs()
        .filter(|(_, _, i)| {
            matches!(
                i,
                Instr::Ld { .. } | Instr::St { .. } | Instr::AtomAdd { .. }
            )
        })
        .nth(ord)
        .map(|(b, idx, _)| (b, idx))
}

/// The oracle's victim window as virtual addresses, where one exists.
fn victim_window<S: Stack>(s: &Specimen, sys: &S, bufs: &[BufferHandle]) -> Option<(u64, u64)> {
    match s.bug.victim {
        VictimRef::BufferEnd { param, lo, hi } => {
            let end = sys.driver().buffer_va(bufs[param]) + s.buffers[param];
            Some(((end as i64 + lo) as u64, (end as i64 + hi) as u64))
        }
        VictimRef::HeapEnd { lo, hi } => {
            let (va, size) = sys.driver().heap_window()?;
            Some((va + size + lo, va + size + hi))
        }
        _ => None,
    }
}

/// The scoreboard's classification, reduced to "does the outcome match
/// the class's expected one".
fn judge<S: Stack>(
    s: &Specimen,
    sys: &S,
    bufs: &[BufferHandle],
    sentinel: BufferHandle,
    launched: &Result<gpushield::RunReport, SystemError>,
) -> bool {
    let completed = match launched {
        Ok(report) => report.completed(),
        Err(SystemError::Run(
            RunError::CycleBudgetExceeded { .. } | RunError::HeapDeadlock { .. },
        )) => return false,
        Err(_) => false,
    };
    let site = planted_site(s);
    let window = victim_window(s, sys, bufs);
    let violations = sys.violations();
    let planted_hit = violations.iter().any(|v| {
        Some(v.site) == site && window.is_none_or(|(lo, hi)| v.range.0 < hi && v.range.1 > lo)
    });
    let stray = violations.iter().any(|v| Some(v.site) != site);
    let d = sys.driver();
    let sentinel_clean = (0..SENTINEL_BYTES / 4)
        .all(|w| d.read_buffer_uint(sentinel, w * 4, 4) == u64::from(SENTINEL_WORD));
    let probe_clean = s
        .probe
        .is_none_or(|p| d.read_buffer_uint(bufs[p.param], p.offset, 4) == p.clean);
    let outcome = if s.bug.class == BugClass::Benign {
        if completed && violations.is_empty() && sentinel_clean {
            Expected::Completed
        } else {
            return false;
        }
    } else if planted_hit {
        Expected::Detected
    } else if stray || !completed {
        return false;
    } else if !probe_clean || !sentinel_clean {
        Expected::SilentCorruption
    } else {
        Expected::Masked
    };
    outcome == s.bug.class.expected()
}

/// Judges one specimen on a fresh stack; returns (conforms, signature).
fn specimen<S: Stack>(s: &Specimen, tr: &mut Tracer, counts: Option<&mut Counts>) -> (bool, Sig) {
    tr.begin("compiler.verify");
    black_box(PassManager::with_default_passes().verify(&s.kernel, &knowledge(s)));
    tr.end("compiler.verify");

    tr.begin("gpushield.system_new");
    let mut sys = S::build(sweep_config());
    tr.end("gpushield.system_new");
    tr.begin("driver.alloc");
    let bufs: Vec<BufferHandle> = s
        .buffers
        .iter()
        .map(|&b| sys.alloc(b).expect("specimen buffer"))
        .collect();
    let sentinel = sys.alloc(SENTINEL_BYTES).expect("sentinel buffer");
    for w in 0..SENTINEL_BYTES / 4 {
        sys.driver_mut()
            .write_buffer(sentinel, w * 4, &SENTINEL_WORD.to_le_bytes());
    }
    if s.heap_limit > 0 {
        sys.driver_mut()
            .set_heap_limit(s.heap_limit)
            .expect("heap limit");
    }
    tr.end("driver.alloc");
    let args: Vec<Arg> = bufs.iter().map(|&h| Arg::Buffer(h)).collect();

    let launched = sys.launch_audited(tr, s.kernel.clone(), s.grid, s.block, &args);

    tr.begin("bench.judge");
    let ok = judge(s, &sys, &bufs, sentinel, &launched);
    tr.end("bench.judge");
    let sig = match &launched {
        Ok(r) => (r.cycles, r.instructions(), sys.violations().len()),
        Err(_) => (0, 0, sys.violations().len()),
    };
    if let Some(c) = counts {
        if let Ok(r) = &launched {
            c.report(r);
        }
        sys.add_counts(c);
    }
    (ok, sig)
}

/// One pass over the corpus.
fn pass<S: Stack>(specs: &[Specimen], tr: &mut Tracer, mut counts: Option<&mut Counts>) -> Round {
    let rss_before = proc_status_kb("VmRSS");
    let mut round = Round::default();
    for (i, s) in specs.iter().enumerate() {
        tr.set_op(i as u64);
        let t = Instant::now();
        let (ok, sig) = specimen::<S>(s, tr, counts.as_deref_mut());
        round.op_us.push(t.elapsed().as_secs_f64() * 1e6);
        round.tally.record(ok);
        round.instrs += sig.1;
        round.sigs.push(sig);
    }
    round.rss_kb_per_op =
        proc_status_kb("VmRSS").saturating_sub(rss_before) as f64 / specs.len().max(1) as f64;
    round.step_us = round.op_us.clone();
    round
}

/// The `fuzz` workload.
pub struct Fuzz;

impl crate::Workload for Fuzz {
    type Input = Vec<Specimen>;

    fn setup(seed: u64) -> Setup<Self::Input> {
        let t = Instant::now();
        let specs = corpus(seed, PER_CLASS);
        let corpus_ms = t.elapsed().as_secs_f64() * 1e3;
        let warm: Vec<Specimen> = specs.iter().step_by(WARM_UP_STRIDE).cloned().collect();
        pass::<System>(&warm, &mut Tracer::new(false), None);
        Setup {
            input: specs,
            corpus_ms,
            build_ms: 0.0,
        }
    }

    fn round<S: Stack>(input: &Self::Input, tr: &mut Tracer, counts: Option<&mut Counts>) -> Round {
        pass::<S>(input, tr, counts)
    }
}
