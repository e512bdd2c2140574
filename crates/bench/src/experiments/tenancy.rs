//! Multi-tenant serving exhibits: the `multi_tenant` isolation/churn
//! exhibit and the `qos_fairness` weighted-admission exhibit.
//!
//! Both drive the deterministic serving loop in [`crate::serving`] — N
//! tenants with disjoint region-ID slices, weighted-fair admission, and
//! cross-tenant probes that must always classify as Detected. Scenarios
//! are fanned over `--jobs` workers with submission-order results, so the
//! rendered output is byte-identical at any worker count.

use crate::runner::fan_out;
use crate::serving::{self, JobKind, Outcome, ServingConfig, ServingSummary};
use gpushield::{
    Arg, BcuConfig, ConcurrentKernel, DriverConfig, GpuConfig, LaunchSpec, System, SystemConfig,
    TenantId, TenantTable,
};
use gpushield_isa::{Kernel, KernelBuilder, MemSpace, MemWidth, Operand};
use std::fmt::Write as _;
use std::sync::Arc;

/// Tenants in the main serving scenario.
const TENANTS: usize = 8;
/// Queued jobs per tenant (8 x 250 = 2000 admitted launches).
const JOBS_PER_TENANT: usize = 250;
/// Region-ID slice capacity per tenant — far below the job count, so the
/// run only completes if released IDs recycle correctly.
const SLICE_IDS: u16 = 16;
/// Watchdog budget per launch.
const MAX_CYCLES: u64 = 200_000;

/// The serving job mix: mostly benign traffic with all four cross-tenant
/// probe vectors interleaved, each tenant probing its right neighbour.
fn serving_queues(tenants: usize, per_tenant: usize) -> Vec<Vec<JobKind>> {
    (0..tenants)
        .map(|t| {
            let victim = (t + 1) % tenants;
            (0..per_tenant)
                .map(|i| match i % 25 {
                    5 => JobKind::AttackRawVa { victim },
                    11 => JobKind::AttackRegionOob { victim },
                    17 => JobKind::AttackForgedId { victim },
                    23 => JobKind::AttackForgedType3 { victim },
                    _ => JobKind::Benign,
                })
                .collect()
        })
        .collect()
}

fn serving_slices(
    tenants: usize,
    ids_per_tenant: u16,
    weight: impl Fn(usize) -> u64,
) -> Vec<(u16, u16, u64)> {
    (0..tenants)
        .map(|t| {
            let lo = 1 + t as u16 * ids_per_tenant;
            (lo, lo + ids_per_tenant, weight(t))
        })
        .collect()
}

fn tally_line(label: &str, s: &ServingSummary) -> String {
    let mut out = format!("{label:<22}");
    for (slot, o) in Outcome::ALL.iter().enumerate() {
        let _ = write!(out, " {:>6}={}", o.name(), s.tallies[slot]);
    }
    out
}

/// One fanned scenario's rendered section plus any telemetry to stash.
struct Section {
    text: String,
    telemetry: Option<Vec<(String, u64)>>,
}

/// Scenario A: the headline serving run — 8 tenants, 2000 queued launches,
/// every probe vector live, strict runtime tags on.
fn scenario_serving() -> Section {
    let cfg = ServingConfig {
        slices: serving_slices(TENANTS, SLICE_IDS, |_| 1),
        queues: serving_queues(TENANTS, JOBS_PER_TENANT),
        strict_runtime_tags: true,
        max_cycles: MAX_CYCLES,
    };
    let s = serving::run_serving(&cfg);
    let attacks: u64 = s.jobs.iter().filter(|j| j.kind.is_attack()).count() as u64;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "[A] serving: {} tenants x {} jobs, slice capacity {} IDs, strict tags ON",
        TENANTS, JOBS_PER_TENANT, SLICE_IDS
    );
    let _ = writeln!(text, "{}", tally_line("  outcomes", &s));
    let recycled: u64 = s
        .telemetry
        .iter()
        .find(|(k, _)| k == "driver.tenant.ids_recycled")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    let _ = writeln!(
        text,
        "  probes={} detected={} masked={} silent={} | ids_recycled={} misattributed={} secrets_intact={}",
        attacks,
        s.tallies[2],
        s.tallies[3],
        s.tallies[4],
        recycled,
        s.misattributed,
        s.secrets_intact
    );
    let _ = writeln!(
        text,
        "  {:<8} {:>6} {:>9} {:>9} {:>10} {:>12} {:>12}",
        "tenant", "weight", "admitted", "complete", "violations", "cycles", "wait_mean"
    );
    for (t, st) in s.per_tenant.iter().enumerate() {
        let done = st.launches_completed.max(1);
        let _ = writeln!(
            text,
            "  {:<8} {:>6} {:>9} {:>9} {:>10} {:>12} {:>12}",
            format!("tenant{t}"),
            1,
            st.launches_admitted,
            st.launches_completed,
            st.violations_attributed,
            st.cycles_consumed,
            st.queue_wait_cycles / done
        );
    }
    let _ = writeln!(
        text,
        "  audit log: {} entries (driver.audit.*); first and last decisions:",
        s.audit.len()
    );
    for line in s.audit.iter().take(3) {
        let _ = writeln!(text, "    {line}");
    }
    if s.audit.len() > 6 {
        let _ = writeln!(text, "    ...");
    }
    let tail = s.audit.len().saturating_sub(3).max(3);
    for line in s.audit.iter().skip(tail) {
        let _ = writeln!(text, "    {line}");
    }
    Section {
        text,
        telemetry: Some(s.telemetry),
    }
}

/// Scenario B: the same probe vectors with strict tags OFF — the exposure
/// the serving configuration exists to close.
fn scenario_lax() -> Section {
    let probes = |victim: usize| {
        vec![
            JobKind::AttackRawVa { victim },
            JobKind::AttackRegionOob { victim },
            JobKind::AttackForgedId { victim },
            JobKind::AttackForgedType3 { victim },
        ]
    };
    let cfg = ServingConfig {
        slices: serving_slices(2, 64, |_| 1),
        queues: vec![probes(1), probes(0)],
        strict_runtime_tags: false,
        max_cycles: MAX_CYCLES,
    };
    let s = serving::run_serving(&cfg);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "[B] exposure: same probe vectors, strict tags OFF (raw-VA and forged\n    Type 3 pointers bypass the RBT and corrupt the victim silently)"
    );
    let _ = writeln!(text, "{}", tally_line("  outcomes", &s));
    Section {
        text,
        telemetry: None,
    }
}

/// Scenario C: region-ID churn against a starved slice — wide jobs needing
/// two IDs are rejected with a typed error while single-ID traffic
/// recycles the lone ID indefinitely.
fn scenario_churn() -> Section {
    let mut q0 = Vec::new();
    for i in 0..40 {
        q0.push(if i % 4 == 3 {
            JobKind::BenignWide
        } else {
            JobKind::Benign
        });
    }
    let cfg = ServingConfig {
        slices: vec![(1, 2, 1), (2, 66, 1)],
        queues: vec![q0, vec![JobKind::Benign; 10]],
        strict_runtime_tags: true,
        max_cycles: MAX_CYCLES,
    };
    let s = serving::run_serving(&cfg);
    let find = |k: &str| {
        s.telemetry
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let mut text = String::new();
    let _ = writeln!(
        text,
        "[C] churn: tenant0 owns a single region ID; two-buffer jobs exhaust\n    the slice (typed rejection), single-buffer jobs recycle it"
    );
    let _ = writeln!(text, "{}", tally_line("  outcomes", &s));
    let _ = writeln!(
        text,
        "  tenant0: rejected={} ids_acquired={} ids_recycled={} capacity=1",
        s.per_tenant[0].launches_rejected,
        find("driver.tenant.0.ids_acquired"),
        find("driver.tenant.0.ids_recycled"),
    );
    Section {
        text,
        telemetry: None,
    }
}

/// A kernel touching four distinct buffers — four region IDs of RCache
/// footprint per co-resident kernel.
fn multibuf_kernel(name: &str) -> Arc<Kernel> {
    let mut b = KernelBuilder::new(name);
    let bufs: Vec<_> = (0..4)
        .map(|i| b.param_buffer(&format!("b{i}"), false))
        .collect();
    let tid = b.global_thread_id();
    let off = b.shl(tid, Operand::Imm(2));
    for p in bufs {
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(p, off), tid);
    }
    b.ret();
    Arc::new(b.finish().expect("valid kernel"))
}

/// Scenario D: co-located kernels from two tenants share each core's
/// RCaches (intra-core slicing); kernel-ID tags keep their entries apart,
/// and the eviction counters expose the cross-tenant contention.
fn scenario_contention() -> Section {
    let mut sys = System::new(SystemConfig {
        gpu: GpuConfig {
            // A single core forces both tenants' warps to co-reside and
            // share one BCU's RCaches.
            num_cores: 1,
            max_cycles: MAX_CYCLES,
            ..GpuConfig::nvidia()
        },
        driver: DriverConfig {
            enable_static_analysis: false,
            enable_type3: false,
            ..DriverConfig::default()
        },
        bcu: BcuConfig {
            l1_entries: 2,
            l2_entries: 4,
            strict_runtime_tags: true,
            ..BcuConfig::default()
        },
        seed: 0x6057_5E1D,
    });
    let mut tenants = TenantTable::with_slices([(1u16, 65u16, 1u64), (65, 129, 1)]);
    // One word per global thread (grid x block) in each buffer.
    let args: Vec<Vec<Arg>> = (0..2)
        .map(|_| {
            (0..4)
                .map(|_| Arg::Buffer(sys.alloc(2 * 32 * 4).expect("buffer")))
                .collect()
        })
        .collect();
    let kernels: Vec<ConcurrentKernel> = ["tenant0_quad", "tenant1_quad"]
        .into_iter()
        .zip(&args)
        .enumerate()
        .map(|(t, (name, args))| ConcurrentKernel {
            tenant: Some(TenantId(t as u16)),
            ..ConcurrentKernel::new(multibuf_kernel(name), 2, 32, args)
        })
        .collect();
    let launched = sys
        .submit(LaunchSpec {
            tenants: Some(&mut tenants),
            ..LaunchSpec::new(&kernels)
        })
        .expect("co-located launch");
    let (report, violations) = (launched.report, launched.violations);
    let bcu = sys.bcu_stats();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "[D] contention: 2 co-resident tenants x 4 regions on 2-entry L1 /\n    4-entry L2 RCaches (intra-core slicing)"
    );
    let _ = writeln!(
        text,
        "  completed={} violations={} rcache_evictions={} cross_kernel_evictions={}",
        report.completed(),
        violations.len(),
        bcu.rcache_evictions,
        bcu.cross_kernel_evictions
    );
    Section {
        text,
        telemetry: None,
    }
}

/// The `multi_tenant` exhibit: serving-scale isolation under churn, the
/// strict-off exposure, slice exhaustion, and co-located contention.
pub fn multi_tenant(jobs: usize) -> String {
    type Task = Box<dyn FnOnce() -> Section + Send>;
    let tasks: Vec<Task> = vec![
        Box::new(scenario_serving),
        Box::new(scenario_lax),
        Box::new(scenario_churn),
        Box::new(scenario_contention),
    ];
    let sections = fan_out(tasks, jobs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Multi-tenant serving — isolation domains over region-ID slices\n \
         ({} tenants x {} queued jobs; every cross-tenant probe must classify\n \
         as detected, never masked or silent; watchdog {} cycles per launch)\n",
        TENANTS, JOBS_PER_TENANT, MAX_CYCLES
    );
    let mut telemetry = Vec::new();
    for s in sections {
        out.push_str(&s.text);
        out.push('\n');
        if let Some(t) = s.telemetry {
            telemetry = t;
        }
    }
    let detected = telemetry
        .iter()
        .find(|(k, _)| k == "driver.tenant.violations_attributed")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "(per-tenant accounting exported as driver.tenant.* telemetry;\n \
         {} violations attributed across the serving run — see DESIGN.md section 12)",
        detected
    );
    eprintln!(
        "  multi-tenant totals: {} launches, {} violations attributed",
        TENANTS * JOBS_PER_TENANT,
        detected
    );
    serving::stash_telemetry(&telemetry);
    out
}

/// One weight profile's fairness run.
fn qos_profile(label: &'static str, weights: [u64; 4]) -> String {
    const QOS_JOBS: usize = 100;
    let cfg = ServingConfig {
        slices: (0..4)
            .map(|t| {
                let lo = 1 + t as u16 * 16;
                (lo, lo + 16, weights[t])
            })
            .collect(),
        queues: vec![vec![JobKind::Benign; QOS_JOBS]; 4],
        strict_runtime_tags: true,
        max_cycles: MAX_CYCLES,
    };
    let s = serving::run_serving(&cfg);

    // Per-tenant queue-wait distribution.
    let mut waits: Vec<Vec<u64>> = vec![Vec::new(); 4];
    for j in &s.jobs {
        waits[j.tenant].push(j.queue_wait);
    }
    let pct = |v: &[u64], p: f64| -> u64 {
        if v.is_empty() {
            return 0;
        }
        let idx = ((v.len() - 1) as f64 * p).round() as usize;
        v[idx]
    };
    let means: Vec<f64> = waits
        .iter()
        .map(|v| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<u64>() as f64 / v.len() as f64
            }
        })
        .collect();
    // Jain fairness index over mean queue waits: 1.0 when every tenant
    // waits equally, lower as weighting skews service order.
    let sum: f64 = means.iter().sum();
    let sumsq: f64 = means.iter().map(|m| m * m).sum();
    let jain = if sumsq == 0.0 {
        1.0
    } else {
        (sum * sum) / (4.0 * sumsq)
    };

    let mut text = String::new();
    let _ = writeln!(
        text,
        "[{label}] weights {:?}, {QOS_JOBS} benign jobs per tenant",
        weights
    );
    let _ = writeln!(
        text,
        "  {:<8} {:>6} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "tenant", "weight", "complete", "cycles", "wait_mean", "wait_p50", "wait_p95"
    );
    for t in 0..4 {
        let mut w = waits[t].clone();
        w.sort_unstable();
        let _ = writeln!(
            text,
            "  {:<8} {:>6} {:>9} {:>12} {:>12} {:>12} {:>12}",
            format!("tenant{t}"),
            weights[t],
            s.per_tenant[t].launches_completed,
            s.per_tenant[t].cycles_consumed,
            means[t].round() as u64,
            pct(&w, 0.50),
            pct(&w, 0.95)
        );
    }
    let _ = writeln!(text, "  jain_index_over_mean_wait={jain:.4}");
    text
}

/// The `qos_fairness` exhibit: weighted-fair admission under equal demand.
pub fn qos_fairness(jobs: usize) -> String {
    type Task = Box<dyn FnOnce() -> String + Send>;
    let tasks: Vec<Task> = vec![
        Box::new(|| qos_profile("equal", [1, 1, 1, 1])),
        Box::new(|| qos_profile("skewed", [1, 2, 4, 8])),
    ];
    let sections = fan_out(tasks, jobs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "QoS fairness — weighted-fair admission across 4 tenants\n \
         (deficit scheduler: pick the tenant minimizing cycles/weight; equal\n \
         weights wait equally, skewed weights drain high-weight queues first)\n"
    );
    for s in sections {
        out.push_str(&s);
        out.push('\n');
    }
    eprintln!("  qos fairness: 2 weight profiles x 400 launches");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_tenant_is_deterministic_across_job_counts() {
        let a = multi_tenant(1);
        let b = multi_tenant(4);
        assert_eq!(a, b, "rendered exhibit must not depend on worker count");
    }

    #[test]
    fn serving_run_meets_the_isolation_acceptance_bar() {
        let text = multi_tenant(2);
        // 2000 admitted launches, zero masked, zero silent.
        assert!(text.contains("8 tenants x 250 jobs"), "scale line missing");
        assert!(
            text.contains("masked=0 silent=0"),
            "cross-tenant probes leaked: {text}"
        );
        assert!(text.contains("misattributed=0 secrets_intact=true"));
        // The strict-off exposure section shows non-zero silent corruption
        // (raw-VA and forged-Type-3 from each of the two probing tenants).
        assert!(text.contains("silent=4"), "exposure demo missing: {text}");
        // Contention section observed cross-kernel RCache pressure.
        let d = text
            .lines()
            .find(|l| l.contains("cross_kernel_evictions="))
            .expect("contention line");
        assert!(
            !d.contains("cross_kernel_evictions=0"),
            "no cross-tenant contention observed: {d}"
        );
    }

    #[test]
    fn serving_stashes_tenant_telemetry() {
        let _ = multi_tenant(1);
        let t = serving::take_stashed_telemetry();
        assert!(
            t.iter()
                .any(|(k, _)| k == "driver.tenant.launches_admitted"),
            "aggregate gauges missing"
        );
        assert!(
            t.iter()
                .any(|(k, _)| k == "driver.tenant.7.cycles_consumed"),
            "per-tenant breakdown missing"
        );
    }

    #[test]
    fn qos_fairness_is_deterministic_and_weight_sensitive() {
        let a = qos_fairness(1);
        let b = qos_fairness(2);
        assert_eq!(a, b);
        // In the skewed profile the weight-8 tenant must wait less on
        // average than the weight-1 tenant.
        let skewed: Vec<&str> = a.lines().skip_while(|l| !l.contains("[skewed]")).collect();
        let mean_of = |tenant: &str| -> u64 {
            let line = skewed
                .iter()
                .find(|l| l.trim_start().starts_with(tenant))
                .unwrap_or_else(|| panic!("{tenant} row missing"));
            line.split_whitespace()
                .nth(4)
                .and_then(|v| v.parse().ok())
                .expect("wait_mean column")
        };
        assert!(
            mean_of("tenant3") < mean_of("tenant0"),
            "weight-8 tenant should wait less than weight-1"
        );
    }
}
