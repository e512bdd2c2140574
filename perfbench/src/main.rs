//! End-to-end and per-layer speed benchmark of the GPUShield stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig14|serving|fuzz [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload with one thread of load and
//! `sim_threads = 1`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). `perfbench/README.md` says what each workload and
//! metric is for.

mod fig14;
mod fuzz;
mod layers;
mod serving;
mod stack;
mod stats;
mod trace;

use gpushield::System;
use layers::{Counts, Traced};
use stack::{Parts, Stack};
use stats::{median, percentile, proc_status_kb, tenths_us, Tally};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 0x6057_5E1D;
/// A seed held out from tuning: use it only to confirm a claimed gain.
pub const HELD_OUT_SEED: u64 = 0x00C0_FFEE;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Rounds of the untraced phase at least: the end-to-end estimators take
/// each op's fastest repetition, so every op must repeat.
const MIN_ROUNDS: usize = 3;

/// Run options from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One named measurement.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Simulated outcome of one op — cycles, instructions, violations —
/// compared between rounds and between the facade and the traced path.
pub type Sig = (u64, u64, usize);

/// What one round — one fig14 sweep, one serving session, one pass over
/// the fuzz corpus — produced. Rounds of one run repeat the same ops in
/// the same order.
#[derive(Debug, Default)]
pub struct Round {
    /// Host time of every op, in microseconds.
    pub op_us: Vec<f64>,
    /// Host time of every step of the round, in microseconds: the steps
    /// cover all of the round's work (fig14: one unit, from building its
    /// system to its last launch; serving: one job with its admission and
    /// payload; fuzz: one specimen).
    pub step_us: Vec<f64>,
    pub sigs: Vec<Sig>,
    /// Simulated warp instructions.
    pub instrs: u64,
    pub tally: Tally,
    /// Wrong deterministic totals, one line each.
    pub problems: Vec<String>,
    /// Resident-set growth over the round ÷ ops, in KiB.
    pub rss_kb_per_op: f64,
    /// fig14's headline ratio; 0 on the other workloads.
    pub shield_slowdown: f64,
}

/// One set-up repetition's product.
pub struct Setup<I> {
    pub input: I,
    /// Time to generate the fuzz corpus (0 elsewhere), in ms.
    pub corpus_ms: f64,
    /// Time to build the workload registry (0 elsewhere), in ms.
    pub build_ms: f64,
}

/// A benchmark workload.
pub trait Workload {
    type Input;
    /// Builds the inputs from the seed and warms up.
    fn setup(seed: u64) -> Setup<Self::Input>;
    /// Runs one round on fresh stacks of type `S`; `counts` is given for
    /// the traced run's counting round only.
    fn round<S: Stack>(input: &Self::Input, tr: &mut Tracer, counts: Option<&mut Counts>) -> Round;
}

/// Position by position, the fastest of several equally long series.
fn fastest<'a>(mut series: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best = series.next().map(<[f64]>::to_vec).unwrap_or_default();
    for s in series {
        for (b, t) in best.iter_mut().zip(s) {
            *b = b.min(*t);
        }
    }
    best
}

/// One timed phase: whole rounds back to back until the requested time
/// has passed.
struct Phase {
    rounds: Vec<Round>,
    /// Host seconds of each round.
    secs: Vec<f64>,
    /// Peak resident set after the first round, in KiB: later rounds
    /// only add allocator fragmentation, which grows with how many
    /// rounds fit in the time, not with the program's footprint.
    peak_kb: u64,
}

impl Phase {
    fn run<W: Workload, S: Stack>(
        input: &W::Input,
        seconds: f64,
        min_rounds: usize,
        tr: &mut Tracer,
        mut counts: Option<&mut Counts>,
    ) -> Phase {
        let mut p = Phase {
            rounds: Vec::new(),
            secs: Vec::new(),
            peak_kb: 0,
        };
        let start = Instant::now();
        while p.rounds.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            p.rounds.push(W::round::<S>(input, tr, counts.take()));
            p.secs.push(t.elapsed().as_secs_f64());
            if p.rounds.len() == 1 {
                p.peak_kb = proc_status_kb("VmHWM");
            }
        }
        p
    }

    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        self.rounds.iter().for_each(|r| t.absorb(r.tally));
        t
    }

    /// Ops per round second over the whole phase, host noise included.
    fn wall_ops_per_s(&self) -> f64 {
        let ops: usize = self.rounds.iter().map(|r| r.op_us.len()).sum();
        ops as f64 / self.secs.iter().sum::<f64>()
    }

    /// Each op's fastest time over the rounds, in op order.
    fn best_op_us(&self) -> Vec<f64> {
        fastest(self.rounds.iter().map(|r| r.op_us.as_slice()))
    }

    /// One round's host seconds, as the sum of its steps' fastest times.
    fn best_round_secs(&self) -> f64 {
        fastest(self.rounds.iter().map(|r| r.step_us.as_slice()))
            .iter()
            .sum::<f64>()
            / 1e6
    }

    fn ops_per_s(&self) -> f64 {
        self.rounds[0].op_us.len() as f64 / self.best_round_secs()
    }

    /// The end-to-end metrics. Contention from other tenants of the host
    /// only ever slows work down, so every figure is built from each op's
    /// or step's fastest repetition in the run.
    fn end_to_end(&self, setup_s: f64) -> Result<Vec<Metric>, String> {
        let best = self.best_op_us();
        let p50 = percentile(&best, 50.0).ok_or("op_p50_us: too few ops")?;
        let p99 = percentile(&best, 99.0).ok_or("op_p99_us: too few ops beyond p99")?;
        let m = |name, value, unit| Metric { name, value, unit };
        Ok(vec![
            m(
                "instrs_per_s",
                self.rounds[0].instrs as f64 / self.best_round_secs(),
                "instr/s",
            ),
            m("ops_per_s", self.ops_per_s(), "op/s"),
            m("op_p50_us", p50, "us"),
            m("op_p99_us", p99, "us"),
            m("setup_s", setup_s, "s"),
            m("peak_rss_mb", self.peak_kb as f64 / 1024.0, "MiB"),
        ])
    }

    /// Rounds that disagree with the first on any op's simulated outcome.
    fn diverging(&self, reference: &[Sig]) -> bool {
        self.rounds.iter().any(|r| r.sigs != reference)
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Every deterministic total matched its reference and every op
    /// simulated identically in every round and on both paths.
    pub correct: bool,
    pub tally: Tally,
    /// Printed by name with units, whatever the trace mode.
    pub lines: Vec<Metric>,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
    /// Spans of the traced run, as JSON lines.
    pub spans: String,
}

/// Runs one workload: set-up, the untraced timed phase and, with
/// `--trace 1`, the traced phase.
fn run<W: Workload>(opts: &Opts) -> Outcome {
    let mut setup_s = Vec::new();
    let mut corpus_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut input = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = W::setup(opts.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        corpus_ms.push(s.corpus_ms);
        build_ms.push(s.build_ms);
        input = Some(s.input);
    }
    let input = input.expect("at least one set-up");
    let setup_s = median(&setup_s).unwrap_or(0.0);

    // A traced run splits its time between the untraced phase, which it
    // reports its overhead against, and the traced phase; per-layer
    // figures need no repetition.
    let (plain_secs, plain_rounds) = if opts.trace {
        (opts.seconds / 2.0, 1)
    } else {
        (opts.seconds, MIN_ROUNDS)
    };
    let plain = Phase::run::<W, System>(
        &input,
        plain_secs,
        plain_rounds,
        &mut Tracer::new(false),
        None,
    );
    let first = &plain.rounds[0];
    let mut problems: Vec<String> = plain
        .rounds
        .iter()
        .flat_map(|r| r.problems.iter().cloned())
        .collect();
    if plain.diverging(&first.sigs) {
        problems.push("rounds of one run simulated different ops".to_string());
    }
    let e2e = plain.end_to_end(setup_s).unwrap_or_else(|e| {
        problems.push(e);
        Vec::new()
    });
    let mut tally = plain.tally();
    let (first_tenth_us, last_tenth_us) = tenths_us(&plain.best_op_us());
    let mut lines = e2e.clone();
    let mut line = |name, value, unit| lines.push(Metric { name, value, unit });
    line("op_samples", first.op_us.len() as f64, "count");
    line("rounds", plain.rounds.len() as f64, "count");
    line("fail_frac", tally.fail_frac(), "ratio");
    line("shield_slowdown", first.shield_slowdown, "ratio");
    line("op_first_tenth_us", first_tenth_us, "us");
    line("op_last_tenth_us", last_tenth_us, "us");
    line("wall_ops_per_s", plain.wall_ops_per_s(), "op/s");
    if !opts.trace {
        return Outcome {
            correct: problems.is_empty(),
            tally,
            lines,
            metrics: e2e,
            problems,
            spans: String::new(),
        };
    }

    let mut counts = Counts::default();
    let counting = W::round::<Parts<true>>(&input, &mut Tracer::new(false), Some(&mut counts));
    let mut tr = Tracer::new(true);
    let traced = Phase::run::<W, Parts<false>>(&input, opts.seconds / 2.0, 1, &mut tr, None);
    for r in std::iter::once(&counting).chain(&traced.rounds) {
        problems.extend(r.problems.iter().cloned());
        if r.sigs != first.sigs {
            problems.push("the traced path simulated different ops than the facade".to_string());
        }
    }
    tally.absorb(counting.tally);
    tally.absorb(traced.tally());
    lines.push(Metric {
        name: "traced_ops_per_s",
        value: traced.ops_per_s(),
        unit: "op/s",
    });
    let t = Traced {
        tracer: &tr,
        counts,
        run_ns: tr.samples("sim.run").iter().sum(),
        run_instrs: traced.rounds.iter().map(|r| r.instrs).sum(),
        corpus_ms: median(&corpus_ms).unwrap_or(0.0),
        build_ms: median(&build_ms).unwrap_or(0.0),
        rss_kb_per_launch: first.rss_kb_per_op,
        shield_slowdown: first.shield_slowdown,
        fail_frac: tally.fail_frac(),
        first_tenth_us,
        last_tenth_us,
        overhead_frac: plain.ops_per_s() / traced.ops_per_s() - 1.0,
    };
    Outcome {
        correct: problems.is_empty(),
        tally,
        lines,
        metrics: layers::metrics(&t),
        problems,
        spans: tr.render(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload fig14|serving|fuzz [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

/// Host and configuration facts recorded with every result.
fn provenance(workload: &str, opts: &Opts) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    format!(
        "{{\"provenance\":{{\"workload\":\"{workload}\",\"seed\":{},\"held_out_seed\":{},\
         \"seconds\":{},\"trace\":{},\"available_parallelism\":{},\"cpu_model\":\"{}\",\
         \"sim_threads\":1,\"config_fingerprint\":\"{}\",\"git_commit\":\"{commit}\"}}}}",
        opts.seed,
        HELD_OUT_SEED,
        opts.seconds,
        u8::from(opts.trace),
        gpushield_runtime::available_parallelism(),
        cpu.replace('"', "'"),
        gpushield_bench::runner::config_fingerprint(),
    )
}

/// Where a traced run writes its spans: beside the build output.
fn out_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| "perfbench/target".into())
        .join("perfbench-runs")
}

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let v = args.next();
        match (a.as_str(), v.as_deref()) {
            ("--workload", Some(w)) => workload = Some(w.to_string()),
            ("--seed", Some(s)) => match parse_u64(s) {
                Some(s) => opts.seed = s,
                None => return usage(),
            },
            ("--seconds", Some(s)) => match s.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => opts.seconds = s,
                _ => return usage(),
            },
            ("--trace", Some("0")) => opts.trace = false,
            ("--trace", Some("1")) => opts.trace = true,
            _ => return usage(),
        }
    }
    let run = match workload.as_deref() {
        Some("fig14") => run::<fig14::Fig14>,
        Some("serving") => run::<serving::Serving>,
        Some("fuzz") => run::<fuzz::Fuzz>,
        _ => return usage(),
    };
    let workload = workload.unwrap_or_default();
    let prov = provenance(&workload, &opts);
    let out = run(&opts);

    for m in &out.lines {
        println!("{workload:<8} {:<22} {:>20.6} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        println!("{workload:<8} WRONG: {p}");
    }
    if opts.trace {
        let dir = out_dir();
        let path = dir.join(format!("spans-{workload}-{}.jsonl", opts.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &out.spans)) {
            Ok(()) => println!("{workload:<8} spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    println!("{prov}");
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct && out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed
    );
    ExitCode::SUCCESS
}
