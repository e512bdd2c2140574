//! The adversarial-fuzz sweep: every [`gpushield_fuzzgen`] specimen runs
//! through the full protection stack — verifier passes, BAT construction,
//! then an audited launch on the everything-on shield configuration — and
//! its end-to-end outcome is judged against the specimen's machine-readable
//! [`PlantedBug`](gpushield_fuzzgen::PlantedBug) oracle. The per-class
//! tallies feed the `fuzz_scoreboard` exhibit, the committed
//! `BENCH_detection.json` baseline, and the `trend` CI gate.
//!
//! Classification (per specimen):
//!
//! * **Detected** — the violation log names the planted site, and when the
//!   oracle's victim window resolves to virtual addresses the logged range
//!   overlaps it.
//! * **FalseFault** — a violation anywhere else, any violation on a benign
//!   control, or a launch refused without a logged violation.
//! * **SilentCorruption** — the run completed, nothing was logged, and the
//!   host-side probe word or the unshared sentinel buffer changed.
//! * **Masked** — a planted bug ran to completion with clean memory (the
//!   documented blind spots: use-after-free under timing-only `Free`,
//!   wrapped shared-memory scratch).
//! * **Completed** — a benign control finishing clean.
//! * **Hang** — watchdog-terminated; the sweep requires zero of these.

use crate::runner::{self, fan_out};
use gpushield::{Arg, BufferHandle, RunError, System, SystemConfig, SystemError};
use gpushield_compiler::{ArgInfo, LaunchKnowledge, PassManager, Severity};
use gpushield_fuzzgen::{BugClass, Expected, Specimen, VictimRef};
use gpushield_isa::{BlockId, Instr};
use gpushield_runtime::report::Json;
use std::fmt::Write as _;

/// Watchdog budget per specimen launch: the corpus kernels are tiny, so
/// anything still running after this is a livelock and must be surfaced
/// (the scoreboard requires zero hangs).
const MAX_CYCLES: u64 = 200_000;

/// Size of the unshared sentinel allocation placed after every specimen's
/// buffers; a far-out-of-bounds write the shield misses lands here.
const SENTINEL_BYTES: u64 = 256;

/// Word pattern the sentinel is filled with before launch.
const SENTINEL_WORD: u32 = 0x53E7_71E1;

/// The everything-on audit configuration the sweep judges: the paper's
/// Nvidia shield with static analysis, Type 3 size-embedded pointers and
/// check elision all enabled, plus the livelock watchdog.
pub(crate) fn sweep_config(elision: bool) -> SystemConfig {
    let mut cfg = SystemConfig::nvidia_protected();
    cfg.driver.enable_type3 = true;
    cfg.driver.enable_elision = elision;
    cfg.gpu.max_cycles = MAX_CYCLES;
    cfg.gpu.sim_threads = runner::sim_threads();
    cfg
}

/// What one specimen degraded into (see the module docs for semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Violation logged at the planted site, inside the victim window.
    Detected,
    /// A violation that the oracle did not plant.
    FalseFault,
    /// Completed clean but the probe or sentinel changed.
    SilentCorruption,
    /// Planted bug ran to completion with clean memory.
    Masked,
    /// Benign control finishing clean.
    Completed,
    /// Watchdog-terminated livelock (must never happen).
    Hang,
}

impl Outcome {
    /// Every outcome, in scoreboard column order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Detected,
        Outcome::FalseFault,
        Outcome::SilentCorruption,
        Outcome::Masked,
        Outcome::Completed,
        Outcome::Hang,
    ];

    /// Stable machine-readable name (JSON key).
    pub fn slug(self) -> &'static str {
        match self {
            Outcome::Detected => "detected",
            Outcome::FalseFault => "false_fault",
            Outcome::SilentCorruption => "silent_corruption",
            Outcome::Masked => "masked",
            Outcome::Completed => "completed",
            Outcome::Hang => "hang",
        }
    }

    /// Whether this outcome is the one the taxonomy expects for the class.
    fn conforms(self, expected: Expected) -> bool {
        matches!(
            (self, expected),
            (Outcome::Detected, Expected::Detected)
                | (Outcome::Masked, Expected::Masked)
                | (Outcome::SilentCorruption, Expected::SilentCorruption)
                | (Outcome::Completed, Expected::Completed)
        )
    }
}

/// One judged specimen.
struct SpecimenResult {
    outcome: Outcome,
    /// The BAT proved the planted access out of bounds before launch.
    static_flagged: bool,
    /// The verifier raised at least a warning on the kernel.
    verify_flagged: bool,
}

/// Resolves the oracle's `mem_ordinal` to the concrete instruction site
/// the violation log would name.
pub(crate) fn planted_site(s: &Specimen) -> Option<(BlockId, usize)> {
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

/// Resolves the oracle's victim reference to a virtual-address window,
/// where one exists (`None` for locals, heap siblings and controls, whose
/// detection evidence is the site alone or host-visible corruption).
pub(crate) fn victim_window(
    s: &Specimen,
    sys: &System,
    bufs: &[BufferHandle],
) -> Option<(u64, u64)> {
    match s.bug.victim {
        VictimRef::BufferEnd { param, lo, hi } => {
            let end = sys.driver().buffer_va(bufs[param]) + s.buffers[param];
            Some(((end as i64 + lo) as u64, (end as i64 + hi) as u64))
        }
        VictimRef::HeapEnd { lo, hi } => {
            let (va, size) = sys.heap_window()?;
            Some((va + size + lo, va + size + hi))
        }
        _ => None,
    }
}

/// Mirrors the driver's launch-time knowledge for the verifier (same
/// construction as the registry sweep's `CaptureHost`).
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

fn run_specimen(s: &Specimen, elision: bool) -> SpecimenResult {
    // Stage 1: verifier passes over the same knowledge the driver gets.
    let report = PassManager::with_default_passes().verify(&s.kernel, &knowledge(s));
    let verify_flagged = report.at_least(Severity::Warning).next().is_some();

    // Stage 2: audited launch with a pattern-filled sentinel allocation
    // right after the specimen's buffers.
    let mut sys = System::new(sweep_config(elision));
    let bufs: Vec<BufferHandle> = s
        .buffers
        .iter()
        .map(|&b| sys.alloc(b).expect("specimen buffer"))
        .collect();
    let sentinel = sys.alloc(SENTINEL_BYTES).expect("sentinel buffer");
    for w in 0..SENTINEL_BYTES / 4 {
        sys.write_buffer(sentinel, w * 4, &SENTINEL_WORD.to_le_bytes());
    }
    if s.heap_limit > 0 {
        sys.set_heap_limit(s.heap_limit).expect("heap limit");
    }
    let args: Vec<Arg> = bufs.iter().map(|&h| Arg::Buffer(h)).collect();

    let launched = sys.launch_audited(s.kernel.clone(), s.grid, s.block, &args);
    let static_flagged = sys.last_bat().is_some_and(|bat| !bat.violations.is_empty());

    let completed = match launched {
        Ok((report, _claims)) => report.completed(),
        Err(SystemError::Run(
            RunError::CycleBudgetExceeded { .. } | RunError::HeapDeadlock { .. },
        )) => {
            return SpecimenResult {
                outcome: Outcome::Hang,
                static_flagged,
                verify_flagged,
            };
        }
        // A host-level refusal with nothing in the violation log is a
        // spurious rejection.
        Err(_) => false,
    };

    let site = planted_site(s);
    let window = victim_window(s, &sys, &bufs);
    let planted_hit = sys.violations().iter().any(|v| {
        Some(v.site) == site && window.is_none_or(|(lo, hi)| v.range.0 < hi && v.range.1 > lo)
    });
    let stray = sys.violations().iter().any(|v| Some(v.site) != site);

    let sentinel_clean = (0..SENTINEL_BYTES / 4)
        .all(|w| sys.read_uint(sentinel, w * 4, 4) == u64::from(SENTINEL_WORD));
    let probe_clean = s
        .probe
        .map(|p| sys.read_uint(bufs[p.param], p.offset, 4) == p.clean)
        .unwrap_or(true);

    let outcome = if s.bug.class == BugClass::Benign {
        if completed && sys.violations().is_empty() && sentinel_clean {
            Outcome::Completed
        } else {
            Outcome::FalseFault
        }
    } else if planted_hit {
        Outcome::Detected
    } else if stray || !completed {
        Outcome::FalseFault
    } else if !probe_clean || !sentinel_clean {
        Outcome::SilentCorruption
    } else {
        Outcome::Masked
    };
    SpecimenResult {
        outcome,
        static_flagged,
        verify_flagged,
    }
}

/// Per-class scoreboard row.
pub struct ClassRow {
    /// The taxonomy entry this row tallies.
    pub class: BugClass,
    /// Outcome counts in [`Outcome::ALL`] order.
    pub tally: [usize; 6],
    /// Specimens whose outcome matched [`BugClass::expected`].
    pub conforming: usize,
    /// Specimens whose BAT carried a statically proven violation.
    pub static_flagged: usize,
    /// Specimens the verifier warned about before launch.
    pub verify_flagged: usize,
}

impl ClassRow {
    /// Specimens tallied in this row.
    pub fn specimens(&self) -> usize {
        self.tally.iter().sum()
    }
}

/// The sweep's full result: one row per taxonomy class, in class order.
pub struct Scoreboard {
    /// Seed the corpus was generated from.
    pub corpus_seed: u64,
    /// Specimens per class.
    pub per_class: usize,
    /// Per-class tallies, in [`BugClass::ALL`] order.
    pub rows: Vec<ClassRow>,
}

/// Generates the corpus for `(corpus_seed, per_class)`, runs and judges
/// every specimen over `jobs` workers, and tallies per class. Results come
/// back in submission order, so the scoreboard is byte-identical at any
/// worker count (and at any `--sim-threads` value: the violation log is
/// bit-stable across engine shardings).
pub fn run_sweep(corpus_seed: u64, per_class: usize, jobs: usize) -> Scoreboard {
    run_sweep_with(corpus_seed, per_class, jobs, true)
}

/// [`run_sweep`] with proof-carrying check elision switchable: the
/// `elision_soundness` gate runs the corpus both ways and requires the
/// per-class outcomes to match — a discharged certificate must never turn
/// a Detected planted bug into a Masked one.
pub fn run_sweep_with(
    corpus_seed: u64,
    per_class: usize,
    jobs: usize,
    elision: bool,
) -> Scoreboard {
    let specs = gpushield_fuzzgen::corpus(corpus_seed, per_class);
    let tasks: Vec<_> = specs
        .iter()
        .map(|s| {
            let s = s.clone();
            move || run_specimen(&s, elision)
        })
        .collect();
    let results = fan_out(tasks, jobs);

    let rows = BugClass::ALL
        .iter()
        .map(|&class| {
            let mut row = ClassRow {
                class,
                tally: [0; 6],
                conforming: 0,
                static_flagged: 0,
                verify_flagged: 0,
            };
            for (s, r) in specs.iter().zip(&results) {
                if s.bug.class != class {
                    continue;
                }
                let slot = Outcome::ALL
                    .iter()
                    .position(|o| *o == r.outcome)
                    .expect("outcome indexed");
                row.tally[slot] += 1;
                row.conforming += usize::from(r.outcome.conforms(class.expected()));
                row.static_flagged += usize::from(r.static_flagged);
                row.verify_flagged += usize::from(r.verify_flagged);
            }
            row
        })
        .collect();
    Scoreboard {
        corpus_seed,
        per_class,
        rows,
    }
}

impl Scoreboard {
    /// Total specimens across every row.
    pub fn total(&self) -> usize {
        self.rows.iter().map(ClassRow::specimens).sum()
    }

    /// The rendered exhibit text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Adversarial fuzz scoreboard — {} seeded specimens across {} planted-bug classes\n \
             (corpus seed 0x{:X}, {} per class; shield config: Nvidia + static analysis +\n \
             Type 3 + elision; watchdog budget {} cycles — a hang is a sweep failure)\n",
            self.total(),
            self.rows.len(),
            self.corpus_seed,
            self.per_class,
            MAX_CYCLES
        );
        let _ = writeln!(
            out,
            "{:<23} {:<7} {:<9} {:>4} {:>6} {:>7} {:>7} {:>6} {:>5} {:>8} {:>7}",
            "class",
            "family",
            "expected",
            "det",
            "false",
            "silent",
            "masked",
            "compl",
            "hang",
            "conform",
            "static"
        );
        let mut grand = [0usize; 6];
        let mut conform_total = 0usize;
        for row in &self.rows {
            for (g, t) in grand.iter_mut().zip(row.tally) {
                *g += t;
            }
            conform_total += row.conforming;
            let _ = writeln!(
                out,
                "{:<23} {:<7} {:<9} {:>4} {:>6} {:>7} {:>7} {:>6} {:>5} {:>8} {:>7}",
                row.class.slug(),
                row.class.check_family(),
                row.class.expected().slug(),
                row.tally[0],
                row.tally[1],
                row.tally[2],
                row.tally[3],
                row.tally[4],
                row.tally[5],
                row.conforming,
                row.static_flagged
            );
        }
        let _ = writeln!(
            out,
            "{:<23} {:<7} {:<9} {:>4} {:>6} {:>7} {:>7} {:>6} {:>5} {:>8} {:>7}",
            "TOTALS",
            "",
            "",
            grand[0],
            grand[1],
            grand[2],
            grand[3],
            grand[4],
            grand[5],
            conform_total,
            self.rows.iter().map(|r| r.static_flagged).sum::<usize>()
        );
        let _ = writeln!(
            out,
            "\n(det/false/silent/masked columns judge each specimen against its PlantedBug\n \
             oracle — site, addressing class, victim window; `conform` counts outcomes\n \
             matching the taxonomy's expectation, `static` counts specimens the BAT\n \
             already proved out of bounds before launch. Masked rows are the documented\n \
             blind spots — see DESIGN.md section 14.)"
        );
        out
    }

    /// The `BENCH_detection.json` document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("bench", Json::Str("fuzz-detection".to_string()));
        doc.set("schema", Json::Str("fuzz-detection/v1".to_string()));
        doc.set("corpus_seed", Json::UInt(self.corpus_seed));
        doc.set("per_class", Json::UInt(self.per_class as u64));
        doc.set("specimens", Json::UInt(self.total() as u64));
        let rows = self
            .rows
            .iter()
            .map(|row| {
                let mut r = Json::obj();
                r.set("class", Json::Str(row.class.slug().to_string()));
                r.set("family", Json::Str(row.class.check_family().to_string()));
                r.set(
                    "expected",
                    Json::Str(row.class.expected().slug().to_string()),
                );
                r.set("specimens", Json::UInt(row.specimens() as u64));
                for (o, t) in Outcome::ALL.iter().zip(row.tally) {
                    r.set(o.slug(), Json::UInt(t as u64));
                }
                r.set("conforming", Json::UInt(row.conforming as u64));
                r.set("static_flagged", Json::UInt(row.static_flagged as u64));
                r.set("verify_flagged", Json::UInt(row.verify_flagged as u64));
                r
            })
            .collect();
        doc.set("classes", Json::Arr(rows));
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-per-class mini-sweep exercising the full classification path.
    fn mini() -> Scoreboard {
        run_sweep(gpushield_fuzzgen::CORPUS_SEED, 2, 4)
    }

    #[test]
    fn mini_sweep_classifies_every_specimen_without_hangs() {
        let sb = mini();
        assert_eq!(sb.total(), BugClass::ALL.len() * 2);
        for row in &sb.rows {
            assert_eq!(row.specimens(), 2, "{} row short", row.class.slug());
            assert_eq!(row.tally[5], 0, "{} hung", row.class.slug());
        }
    }

    #[test]
    fn mini_sweep_conforms_to_the_taxonomy() {
        let sb = mini();
        for row in &sb.rows {
            assert_eq!(
                row.conforming,
                row.specimens(),
                "{}: expected every specimen to be {:?}, tally {:?}",
                row.class.slug(),
                row.class.expected(),
                row.tally
            );
        }
    }

    #[test]
    fn static_class_is_flagged_at_bat_time() {
        let sb = mini();
        let row = &sb.rows[0];
        assert_eq!(row.class, BugClass::StaticOobWrite);
        assert_eq!(
            row.static_flagged,
            row.specimens(),
            "constant-offset OOB must be proven at BAT construction"
        );
    }

    #[test]
    fn scoreboard_json_has_the_published_schema() {
        let sb = mini();
        let doc = sb.to_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("fuzz-detection/v1")
        );
        let classes = doc.get("classes").and_then(Json::as_arr).expect("classes");
        assert_eq!(classes.len(), BugClass::ALL.len());
        for c in classes {
            for key in [
                "class",
                "family",
                "expected",
                "specimens",
                "detected",
                "false_fault",
                "silent_corruption",
                "masked",
                "completed",
                "hang",
                "conforming",
                "static_flagged",
                "verify_flagged",
            ] {
                assert!(c.get(key).is_some(), "missing key {key}");
            }
        }
    }
}
