//! Per-layer counts of the traced run and the per-layer metric table.
//!
//! Counts cover one untimed counting round (one fig14 sweep, one serving
//! session, one pass over the fuzz corpus), so they are exact and do not
//! scale with host speed. Times are medians over every span of the
//! traced phase.

use crate::stack::Parts;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Metric;
use gpushield::RunReport;

/// Exact counts gathered from `RunReport`, `BcuStats`, `DriverStats`, the
/// tenant table and the engine's quantum counter.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub instructions: u64,
    pub cycles: u64,
    pub quanta: u64,
    pub idle_skips: u64,
    pub mem_issues: u64,
    pub checks: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub rbt_fetches: u64,
    pub stall_cycles: u64,
    pub unchecked: u64,
    pub lsu_transactions: u64,
    pub dram_accesses: u64,
    pub l1d_hits: u64,
    pub l1d_accesses: u64,
    pub l2_hits_mem: u64,
    pub l2_accesses: u64,
    pub rbt_allocs: u64,
    pub rbt_entries_written: u64,
    pub region_ids_assigned: u64,
    pub certs_emitted: u64,
    pub certs_discharged: u64,
    pub id_recycles: u64,
    pub rejections: u64,
}

impl Counts {
    /// Adds one launch report.
    pub fn report(&mut self, r: &RunReport) {
        self.instructions += r.instructions();
        self.cycles += r.cycles;
        self.idle_skips += r.profile.idle_skips;
        self.mem_issues += r.profile.mem_issues;
        self.lsu_transactions += r.profile.lsu_transactions;
        self.dram_accesses += r.profile.dram_accesses;
        self.unchecked += r
            .launches
            .iter()
            .map(|l| l.stall_attribution.unchecked)
            .sum::<u64>();
        self.l1d_hits += r.l1d.hits;
        self.l1d_accesses += r.l1d.accesses();
        self.l2_hits_mem += r.l2.hits;
        self.l2_accesses += r.l2.accesses();
    }

    /// Adds the cumulative statistics of a stack about to be dropped.
    pub fn parts<const Q: bool>(&mut self, p: &Parts<Q>) {
        let b = p.bcu_stats();
        self.checks += b.checks;
        self.l1_hits += b.l1_hits;
        self.l2_hits += b.l2_hits;
        self.rbt_fetches += b.rbt_fetches;
        self.stall_cycles += b.stall_cycles;
        let d = p.driver_stats();
        self.rbt_allocs += d.rbt_allocs;
        self.rbt_entries_written += d.rbt_entries_written;
        self.region_ids_assigned += d.region_ids_assigned;
        self.certs_emitted += d.certs_emitted;
        self.certs_discharged += d.certs_discharged;
        self.quanta += p.quanta();
    }
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything the traced run measured besides spans.
pub struct Traced<'a> {
    pub tracer: &'a Tracer,
    pub counts: Counts,
    /// Engine nanoseconds and instructions over the whole traced phase.
    pub run_ns: f64,
    pub run_instrs: u64,
    pub corpus_ms: f64,
    pub build_ms: f64,
    pub rss_kb_per_launch: f64,
    pub shield_slowdown: f64,
    pub fail_frac: f64,
    pub first_tenth_us: f64,
    pub last_tenth_us: f64,
    pub overhead_frac: f64,
}

/// Median self time of the spans called `name`, in microseconds (0 when
/// the workload never enters that layer).
fn p50_us(tr: &Tracer, name: &str) -> f64 {
    median(tr.samples(name)).map_or(0.0, |ns| ns / 1e3)
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn metrics(t: &Traced) -> Vec<Metric> {
    let c = &t.counts;
    let tr = t.tracer;
    let m = |name, value: f64, unit| Metric { name, value, unit };
    let n = |name, value: u64| Metric {
        name,
        value: value as f64,
        unit: "count",
    };
    vec![
        m("fuzzgen.corpus_ms", t.corpus_ms, "ms"),
        m("workloads.build_ms", t.build_ms, "ms"),
        m("compiler.verify_us", p50_us(tr, "compiler.verify"), "us"),
        m("compiler.analyze_us", p50_us(tr, "compiler.analyze"), "us"),
        m("compiler.prove_us", p50_us(tr, "compiler.prove"), "us"),
        m(
            "compiler.cert_discharge_frac",
            frac(c.certs_discharged, c.certs_emitted),
            "ratio",
        ),
        m("driver.prepare_us", p50_us(tr, "driver.prepare"), "us"),
        n("driver.rbt_allocs", c.rbt_allocs),
        n("driver.rbt_entries_written", c.rbt_entries_written),
        n("driver.region_ids_assigned", c.region_ids_assigned),
        m("driver.rss_kb_per_launch", t.rss_kb_per_launch, "KiB"),
        n("driver.tenant.id_recycles", c.id_recycles),
        n("driver.tenant.rejections", c.rejections),
        m(
            "gpushield.system_new_us",
            p50_us(tr, "gpushield.system_new"),
            "us",
        ),
        m("gpushield.facade_us", p50_us(tr, "gpushield.launch"), "us"),
        m("sim.run_us", p50_us(tr, "sim.run"), "us"),
        m(
            "sim.ns_per_instr",
            t.run_ns / t.run_instrs.max(1) as f64,
            "ns",
        ),
        n("sim.instructions", c.instructions),
        n("sim.cycles", c.cycles),
        n("sim.quanta", c.quanta),
        n("sim.idle_skips", c.idle_skips),
        n("sim.mem_issues", c.mem_issues),
        m("sim.shield_slowdown", t.shield_slowdown, "ratio"),
        n("core.checks", c.checks),
        m(
            "core.l1_hit_frac",
            frac(c.l1_hits, c.l1_hits + c.l2_hits + c.rbt_fetches),
            "ratio",
        ),
        n("core.rbt_fetches", c.rbt_fetches),
        n("core.stall_cycles", c.stall_cycles),
        n("core.unchecked", c.unchecked),
        n("mem.lsu_transactions", c.lsu_transactions),
        n("mem.dram_accesses", c.dram_accesses),
        m("mem.l1_hit_frac", frac(c.l1d_hits, c.l1d_accesses), "ratio"),
        m(
            "mem.l2_hit_frac",
            frac(c.l2_hits_mem, c.l2_accesses),
            "ratio",
        ),
        m("bench.judge_us", p50_us(tr, "bench.judge"), "us"),
        m("bench.fail_frac", t.fail_frac, "ratio"),
        m("bench.op_first_tenth_us", t.first_tenth_us, "us"),
        m("bench.op_last_tenth_us", t.last_tenth_us, "us"),
        m("bench.trace_overhead_frac", t.overhead_frac, "ratio"),
    ]
}
