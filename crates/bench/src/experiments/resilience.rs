//! The fault-resilience exhibit: inject deterministic corruptions into the
//! protection substrate (RBT entries, pointer tags, BAT records, RCache
//! entries) mid-run and verify GPUShield degrades gracefully — every trial
//! ends in a classified outcome, never a panic and never an unbounded hang
//! (the cycle-budget watchdog converts injected livelocks into
//! `RunError::CycleBudgetExceeded`).

use crate::runner::{self, fan_out};
use gpushield::{
    Arg, BcuConfig, BufferHandle, ConcurrentKernel, DriverConfig, FaultKind, FaultPlan, GpuConfig,
    InjectionRecord, LaunchSpec, RunError, RunReport, System, SystemConfig, SystemError,
    ViolationKind,
};
use gpushield_isa::{CmpOp, Kernel, KernelBuilder, MemSpace, MemWidth, Operand};
use gpushield_runtime::rng::derive_seed;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default watchdog budget for the sweep: generous for the tiny workloads
/// used here, tight enough that an injected livelock terminates in well
/// under a second.
const DEFAULT_MAX_CYCLES: u64 = 200_000;

static MAX_CYCLES: AtomicU64 = AtomicU64::new(DEFAULT_MAX_CYCLES);

/// Overrides the watchdog cycle budget the sweep runs under (the CLI's
/// `--max-cycles`). Zero restores the default.
pub fn set_max_cycles(budget: u64) {
    let v = if budget == 0 {
        DEFAULT_MAX_CYCLES
    } else {
        budget
    };
    MAX_CYCLES.store(v, Ordering::Relaxed);
}

fn max_cycles() -> u64 {
    MAX_CYCLES.load(Ordering::Relaxed)
}

/// What one injected-fault trial degraded into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The corruption was caught: the kernel aborted with a metadata-level
    /// violation, or completed with correct output and the violation log
    /// shows the squashed accesses.
    Detected,
    /// A benign access was reported as a violation (the corruption turned
    /// protection against the workload) — safe but spurious.
    FalseFault,
    /// The kernel completed with wrong output and nothing in the log.
    SilentCorruption,
    /// The corruption livelocked the kernel; the watchdog terminated it.
    Hang,
    /// The fault landed somewhere inert; execution was unaffected.
    Masked,
}

impl Outcome {
    const ALL: [Outcome; 5] = [
        Outcome::Detected,
        Outcome::FalseFault,
        Outcome::SilentCorruption,
        Outcome::Hang,
        Outcome::Masked,
    ];
}

/// `out[tid] = tid`, every access runtime-checked: the benign store
/// workload whose output the harness can diff against a golden run.
pub(crate) fn linear_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("resilience_linear");
    let out = b.param_buffer("out", false);
    let tid = b.global_thread_id();
    let off = b.shl(tid, Operand::Imm(2));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
    b.ret();
    Arc::new(b.finish().expect("valid kernel"))
}

/// Warms the RCache with four loads, then spins while `flag[0] == 0`. The
/// flag is pre-set to 1, so an uninjected run exits immediately — but a
/// persistent corruption that squashes the flag load to zero spins forever,
/// exercising the watchdog.
pub(crate) fn spin_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("resilience_spin");
    let flag = b.param_buffer("flag", false);
    b.for_loop(Operand::Imm(0), Operand::Imm(4), 1, |b, i| {
        let off = b.shl(i, Operand::Imm(2));
        b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(flag, off));
    });
    b.while_loop(
        |b| {
            let v = b.ld(
                MemSpace::Global,
                MemWidth::W4,
                b.base_offset(flag, Operand::Imm(0)),
            );
            Operand::Reg(b.cmp(CmpOp::Eq, v, Operand::Imm(0)))
        },
        |_| {},
    );
    b.ret();
    Arc::new(b.finish().expect("valid kernel"))
}

/// Shielded Nvidia system with the watchdog armed and static analysis off
/// (so every site is runtime-checked and every buffer has a live RBT
/// entry — the largest injectable surface).
pub(crate) fn sys_config(precise_faults: bool) -> SystemConfig {
    SystemConfig {
        gpu: GpuConfig {
            max_cycles: max_cycles(),
            ..GpuConfig::nvidia()
        },
        driver: DriverConfig {
            enable_static_analysis: false,
            ..DriverConfig::default()
        },
        bcu: BcuConfig {
            precise_faults,
            ..BcuConfig::default()
        },
        seed: 0x6057_5E1D,
    }
}

fn read_words(sys: &System, buf: BufferHandle, words: u64) -> Vec<u64> {
    (0..words).map(|i| sys.read_uint(buf, i * 4, 4)).collect()
}

/// One trial of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Trial {
    /// The injected fault kind.
    pub kind: FaultKind,
    /// Precise fault (`true`) or imprecise squash (§5.5.2).
    pub precise_faults: bool,
    /// Faults scheduled.
    pub count: usize,
    /// Scenario seed; seed 3 runs the spin workload.
    pub seed: u64,
}

/// Every trial of the sweep, in submission order: fault kind ×
/// protection mode × fault count × seeded scenario.
pub fn trials() -> Vec<Trial> {
    let mut trials = Vec::new();
    for kind in FaultKind::ALL {
        for precise_faults in MODES {
            for count in COUNTS {
                for seed in SEEDS {
                    trials.push(Trial {
                        kind,
                        precise_faults,
                        count,
                        seed,
                    });
                }
            }
        }
    }
    trials
}

const COUNTS: [usize; 2] = [1, 4];
const SEEDS: [u64; 4] = [0, 1, 2, 3];
/// Precise fault vs imprecise squash (§5.5.2).
const MODES: [bool; 2] = [true, false];

/// Per-trial result: classification plus how many scheduled faults fired
/// and how many corrupted something.
struct TrialResult {
    outcome: Outcome,
    fired: usize,
    applied: usize,
}

fn classify_completed(sys: &System, output_matches: bool) -> Outcome {
    if !output_matches {
        Outcome::SilentCorruption
    } else if !sys.violations().is_empty() {
        Outcome::Detected
    } else {
        Outcome::Masked
    }
}

fn classify_aborted(sys: &System) -> Outcome {
    let metadata_level = sys.violations().iter().any(|v| {
        matches!(
            v.kind,
            ViolationKind::BadRegion | ViolationKind::UnknownKernel
        )
    });
    if metadata_level {
        Outcome::Detected
    } else {
        // The workload is benign, so an OutOfBounds/ReadOnly abort means a
        // legitimate access was misjudged against corrupted bounds.
        Outcome::FalseFault
    }
}

/// A trial's fault-injected launch and the system it ran on.
pub struct Injected {
    /// The system after the launch.
    pub sys: System,
    /// The workload's output buffer.
    pub buf: BufferHandle,
    /// Words the workload's output spans.
    pub words: u64,
    /// The run report and injection log, or the host-level error.
    pub result: Result<(RunReport, Vec<InjectionRecord>), SystemError>,
}

/// The trial's workload: `(kernel, grid, block, output words, fault
/// window)`. Seeds 0–2 run the diffable store workload; seed 3 runs the
/// watchdog-exercising spin workload.
fn workload(t: Trial) -> (Arc<Kernel>, u32, u32, u64, u64) {
    if t.seed == 3 {
        (spin_kernel(), 1, 32, 8, 5)
    } else {
        (linear_kernel(), 4, 32, 128, 4)
    }
}

/// A fresh trial system with the workload's buffer allocated (and the
/// spin workload's exit flag set).
fn trial_system(t: Trial, sim_threads: usize, words: u64) -> (System, BufferHandle) {
    let mut cfg = sys_config(t.precise_faults);
    cfg.gpu.sim_threads = sim_threads;
    let mut sys = System::new(cfg);
    let buf = sys.alloc(words * 4).expect("alloc");
    if t.seed == 3 {
        sys.write_buffer(buf, 0, &1u32.to_le_bytes());
    }
    (sys, buf)
}

/// Runs trial `t`'s fault-injected launch on `sim_threads` engine
/// workers. Each (scenario, count) cell draws its fault plan from a
/// labelled child stream of the scenario seed, so plans can never collide
/// with each other or with any other consumer of the same experiment
/// seed.
pub fn inject(t: Trial, sim_threads: usize) -> Injected {
    let (kernel, grid, block, words, window) = workload(t);
    let (mut sys, buf) = trial_system(t, sim_threads, words);
    let plan_seed = derive_seed(t.seed, &format!("fault-plan/{}", t.count));
    let plan = FaultPlan::generate(plan_seed, &[t.kind], t.count, window);
    let result = sys
        .submit(LaunchSpec {
            faults: Some(plan),
            ..LaunchSpec::new(&[ConcurrentKernel::new(
                kernel,
                grid,
                block,
                &[Arg::Buffer(buf)],
            )])
        })
        .map(|l| (l.report, l.injections));
    Injected {
        sys,
        buf,
        words,
        result,
    }
}

fn run_trial(t: Trial) -> TrialResult {
    // Golden reference: same config, same workload, no injection.
    let golden = {
        let (kernel, grid, block, words, _) = workload(t);
        let (mut sys, buf) = trial_system(t, runner::sim_threads(), words);
        let r = sys
            .launch(kernel, grid, block, &[Arg::Buffer(buf)])
            .expect("golden launch");
        assert!(r.completed(), "golden run must complete");
        read_words(&sys, buf, words)
    };

    let Injected {
        sys,
        buf,
        words,
        result,
    } = inject(t, runner::sim_threads());
    match result {
        Ok((report, injected)) => {
            let fired = injected.len();
            let applied = injected.iter().filter(|r| r.applied).count();
            let outcome = if report.completed() {
                classify_completed(&sys, read_words(&sys, buf, words) == golden)
            } else {
                classify_aborted(&sys)
            };
            TrialResult {
                outcome,
                fired,
                applied,
            }
        }
        Err(e) => {
            // Every scheduled fault counts as fired and applied.
            let scheduled = t.count;
            let outcome = match e {
                SystemError::Run(
                    RunError::CycleBudgetExceeded { .. } | RunError::HeapDeadlock { .. },
                ) => Outcome::Hang,
                // Any other host-level refusal still counts as a spurious
                // rejection of a benign workload.
                _ => Outcome::FalseFault,
            };
            TrialResult {
                outcome,
                fired: scheduled,
                applied: scheduled,
            }
        }
    }
}

/// The sweep: fault kind × protection mode × fault count × seeded
/// scenario, fanned over `jobs` workers with submission-order results, so
/// the rendered matrix is byte-identical at any worker count.
pub fn fault_resilience(jobs: usize) -> String {
    let trials = trials();
    let tasks: Vec<_> = trials
        .iter()
        .map(|t| {
            let t = *t;
            move || run_trial(t)
        })
        .collect();
    let results = fan_out(tasks, jobs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fault resilience — deterministic corruption of the protection substrate\n \
         ({} fault kinds x {} protection modes x counts {:?} x {} seeded scenarios;\n \
         watchdog budget {} cycles; every trial classified, zero panics)\n",
        FaultKind::ALL.len(),
        MODES.len(),
        COUNTS,
        SEEDS.len(),
        max_cycles()
    );
    let _ = writeln!(
        out,
        "{:<18} {:<7} {:>9} {:>11} {:>7} {:>6} {:>7} {:>7}",
        "kind", "mode", "detected", "false-fault", "silent", "hang", "masked", "trials"
    );

    let mut grand = [0usize; 5];
    let mut fired_total = 0usize;
    let mut applied_total = 0usize;
    for kind in FaultKind::ALL {
        for precise_faults in MODES {
            let mut tally = [0usize; 5];
            for (t, r) in trials.iter().zip(&results) {
                if t.kind == kind && t.precise_faults == precise_faults {
                    let slot = Outcome::ALL
                        .iter()
                        .position(|o| *o == r.outcome)
                        .expect("outcome indexed");
                    tally[slot] += 1;
                    fired_total += r.fired;
                    applied_total += r.applied;
                }
            }
            let trials_row: usize = tally.iter().sum();
            for (g, t) in grand.iter_mut().zip(tally) {
                *g += t;
            }
            let _ = writeln!(
                out,
                "{:<18} {:<7} {:>9} {:>11} {:>7} {:>6} {:>7} {:>7}",
                kind.name(),
                if precise_faults { "fault" } else { "squash" },
                tally[0],
                tally[1],
                tally[2],
                tally[3],
                tally[4],
                trials_row
            );
        }
    }
    let total_trials: usize = grand.iter().sum();
    let _ = writeln!(
        out,
        "{:<18} {:<7} {:>9} {:>11} {:>7} {:>6} {:>7} {:>7}",
        "TOTALS", "", grand[0], grand[1], grand[2], grand[3], grand[4], total_trials
    );
    let _ = writeln!(
        out,
        "\n(faults fired {fired_total}, corrupted something {applied_total}; a hang is a\n \
         watchdog-terminated livelock, not a lockup — see DESIGN.md section 9)"
    );
    eprintln!(
        "  fault totals: {total_trials} trials, {fired_total} faults fired, {applied_total} applied — \
         {} detected, {} false-fault, {} silent, {} hang, {} masked",
        grand[0], grand[1], grand[2], grand[3], grand[4]
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_across_job_counts() {
        let a = fault_resilience(1);
        let b = fault_resilience(8);
        assert_eq!(a, b, "rendered matrix must not depend on worker count");
    }

    #[test]
    fn sweep_covers_all_kinds_and_both_modes() {
        let text = fault_resilience(4);
        for kind in FaultKind::ALL {
            assert!(text.contains(kind.name()), "{} missing", kind.name());
        }
        assert!(text.contains("fault"));
        assert!(text.contains("squash"));
        assert!(text.contains("TOTALS"));
    }

    #[test]
    fn every_trial_is_classified() {
        // The TOTALS row sums to kinds x modes x counts x seeds.
        let text = fault_resilience(4);
        let totals = text
            .lines()
            .find(|l| l.starts_with("TOTALS"))
            .expect("totals row");
        let cols: Vec<usize> = totals
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().expect("numeric"))
            .collect();
        let expected = FaultKind::ALL.len() * 2 * 2 * 4;
        assert_eq!(*cols.last().expect("trial count"), expected);
        assert_eq!(cols[..5].iter().sum::<usize>(), expected);
    }

    #[test]
    fn watchdog_override_is_respected_and_restored() {
        set_max_cycles(50_000);
        assert_eq!(max_cycles(), 50_000);
        set_max_cycles(0);
        assert_eq!(max_cycles(), DEFAULT_MAX_CYCLES);
    }
}
