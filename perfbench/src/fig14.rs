//! `fig14`: the paper's Fig. 14 sweep — every `cuda_set` workload under
//! {baseline, shield(1,3), shield(2,5)} on the Nvidia preset, one fresh
//! system per (workload, protection) as `runner::run_workload` builds
//! it. An op is one kernel launch. The kernels are large, so the
//! simulator, memory hierarchy and BCU do nearly all the host work.
//!
//! The sweep's inputs are fixed by the workload registry (the reference
//! totals below depend on them); the seed only sets the order in which
//! the (workload, protection) units run.

use crate::layers::Counts;
use crate::stack::Stack;
use crate::stats::proc_status_kb;
use crate::trace::Tracer;
use crate::{Round, Setup};
use gpushield::{Arg, BufferHandle, RunReport, System};
use gpushield_bench::runner::{config, geomean, Protection, Target};
use gpushield_isa::Kernel;
use gpushield_runtime::StdRng;
use gpushield_workloads::{by_name, cuda_set, BufId, HostApi, WArg, Workload};
use std::sync::Arc;
use std::time::Instant;

/// Simulated warp instructions of one full sweep.
const REF_INSTRS: u64 = 26_672_049;
/// Simulated cycles of one full sweep.
const REF_CYCLES: u64 = 4_373_408;
/// Geomean over `cuda_set` of cycles shield(1,3) ÷ baseline.
const REF_SLOWDOWN: f64 = 1.000_002_886_232_795_2;

fn protections() -> [Protection; 3] {
    [
        Protection::baseline(),
        Protection::shield_lat(1, 3),
        Protection::shield_lat(2, 5),
    ]
}

/// Runs one workload's host program on a stack, timing each launch and
/// each stretch of host work between launches as steps of the round.
struct Host<'a, S: Stack> {
    stack: S,
    bufs: Vec<BufferHandle>,
    tr: &'a mut Tracer,
    round: &'a mut Round,
    /// End of the last timed step.
    mark: Instant,
    reports: Vec<RunReport>,
}

impl<S: Stack> HostApi for Host<'_, S> {
    fn alloc(&mut self, bytes: u64) -> BufId {
        let h = self.stack.alloc(bytes).expect("workload allocation");
        self.bufs.push(h);
        self.bufs.len() - 1
    }

    fn upload_u32(&mut self, buf: BufId, offset_bytes: u64, data: &[u32]) {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.stack
            .driver_mut()
            .write_buffer(self.bufs[buf], offset_bytes, &bytes);
    }

    fn set_heap(&mut self, bytes: u64) {
        self.stack
            .driver_mut()
            .set_heap_limit(bytes)
            .expect("heap limit");
    }

    fn launch(&mut self, kernel: &Arc<Kernel>, grid: u32, block: u32, args: &[WArg]) {
        let mapped: Vec<Arg> = args
            .iter()
            .map(|a| match a {
                WArg::Buf(b) => Arg::Buffer(self.bufs[*b]),
                WArg::Scalar(v) => Arg::Scalar(*v),
            })
            .collect();
        let t = Instant::now();
        let round = &mut *self.round;
        round.step_us.push(us(t - self.mark));
        self.tr.set_op(round.op_us.len() as u64);
        let r = self
            .stack
            .launch(self.tr, kernel.clone(), grid, block, &mapped);
        self.mark = Instant::now();
        round.op_us.push(us(self.mark - t));
        round.step_us.push(us(self.mark - t));
        // A benign sweep launch that aborts is a false positive.
        round
            .tally
            .record(r.as_ref().is_ok_and(RunReport::completed));
        match r {
            Ok(report) => {
                round.sigs.push((
                    report.cycles,
                    report.instructions(),
                    self.stack.violations().len(),
                ));
                self.reports.push(report);
            }
            Err(_) => round.sigs.push((0, 0, 0)),
        }
    }
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The seeded unit order: `(workload, protection)` index pairs.
fn unit_order(n_workloads: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> = (0..n_workloads)
        .flat_map(|w| (0..3).map(move |p| (w, p)))
        .collect();
    StdRng::stream(seed, "perfbench/fig14/order").shuffle(&mut order);
    order
}

/// Runs every unit once, in `order`, each on a fresh stack.
fn sweep<S: Stack>(
    workloads: &[Workload],
    order: &[(usize, usize)],
    tr: &mut Tracer,
    mut counts: Option<&mut Counts>,
) -> Round {
    let rss_before = proc_status_kb("VmRSS");
    let mut round = Round::default();
    let mut cycles = vec![[0u64; 3]; workloads.len()];
    let prots = protections();
    for &(w, p) in order {
        let mark = Instant::now();
        tr.set_op(round.op_us.len() as u64);
        tr.begin("gpushield.system_new");
        let stack = S::build(config(Target::Nvidia, prots[p]));
        tr.end("gpushield.system_new");
        let mut host = Host {
            stack,
            bufs: Vec::new(),
            tr: &mut *tr,
            round: &mut round,
            mark,
            reports: Vec::new(),
        };
        workloads[w].run(&mut host);
        if let Some(c) = counts.as_deref_mut() {
            host.reports.iter().for_each(|r| c.report(r));
            host.stack.add_counts(c);
        }
        cycles[w][p] = host.reports.iter().map(|r| r.cycles).sum();
        let instrs: u64 = host.reports.iter().map(|r| r.instructions()).sum();
        let mark = host.mark;
        drop(host);
        round.instrs += instrs;
        round.step_us.push(us(mark.elapsed()));
    }
    let ratios: Vec<f64> = cycles.iter().map(|c| c[1] as f64 / c[0] as f64).collect();
    round.shield_slowdown = geomean(&ratios);
    let total_cycles: u64 = cycles.iter().flatten().sum();
    if round.instrs != REF_INSTRS || total_cycles != REF_CYCLES {
        round.problems.push(format!(
            "sweep totals {} instrs / {total_cycles} cycles, reference {REF_INSTRS} / {REF_CYCLES}",
            round.instrs
        ));
    }
    if round.shield_slowdown != REF_SLOWDOWN {
        round.problems.push(format!(
            "shield_slowdown {:?}, reference {REF_SLOWDOWN:?}",
            round.shield_slowdown
        ));
    }
    round.rss_kb_per_op =
        proc_status_kb("VmRSS").saturating_sub(rss_before) as f64 / round.op_us.len().max(1) as f64;
    round
}

/// The `fig14` workload.
pub struct Fig14;

impl crate::Workload for Fig14 {
    /// The registry's `cuda_set` and the seeded unit order.
    type Input = (Vec<Workload>, Vec<(usize, usize)>);

    fn setup(seed: u64) -> Setup<Self::Input> {
        let t = Instant::now();
        let workloads = cuda_set();
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        // Warm-up: the smallest registry workload under every protection.
        let warm = by_name("vectoradd").expect("vectoradd registered");
        sweep::<System>(
            &[warm],
            &[(0, 0), (0, 1), (0, 2)],
            &mut Tracer::new(false),
            None,
        );
        let order = unit_order(workloads.len(), seed);
        Setup {
            input: (workloads, order),
            corpus_ms: 0.0,
            build_ms,
        }
    }

    fn round<S: Stack>(input: &Self::Input, tr: &mut Tracer, counts: Option<&mut Counts>) -> Round {
        sweep::<S>(&input.0, &input.1, tr, counts)
    }
}
