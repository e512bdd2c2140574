//! `serving`: one long-lived shielded system per session serving 8
//! tenants on disjoint 16-ID region slices under weighted-fair admission
//! with strict runtime tags — the `multi_tenant` exhibit's configuration
//! and job mix (84% benign `serve_iota`, 16% cross-tenant probes of all
//! four vectors), in a seeded order. An op is one admitted job, timed
//! around `System::launch_tenant` plus its classification.
//!
//! Kernels are 1×32 threads, so per-launch fixed cost dominates: region-ID
//! draw and recycling, RBT build, BCU registration, engine set-up and the
//! abort path. Serving state persists across a session's launches (every
//! shielded launch maps a fresh RBT that is never unmapped), so growth
//! with launch count shows in `peak_rss_mb` and in the last tenth of each
//! session against the first. The session length is fixed so that such
//! growth stays comparable across commits.

use crate::layers::Counts;
use crate::stack::Stack;
use crate::stats::proc_status_kb;
use crate::trace::Tracer;
use crate::{Round, Setup};
use gpushield::{
    Arg, BcuConfig, BufferHandle, DriverConfig, GpuConfig, System, SystemConfig, TenantId,
    TenantTable,
};
use gpushield_bench::serving::{iota_kernel, JobKind, SECRET_WORDS, WORK_WORDS};
use gpushield_isa::{Kernel, KernelBuilder, MemSpace, MemWidth, Operand, TaggedPtr};
use gpushield_runtime::StdRng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

const TENANTS: usize = 8;
/// Region IDs per tenant slice — far below the job count, so a session
/// completes only if released IDs recycle.
const SLICE_IDS: u16 = 16;
/// Jobs per tenant per session (8 × 625 = 5,000 launches per session).
const JOBS_PER_TENANT: usize = 625;
/// Watchdog budget per launch.
const MAX_CYCLES: u64 = 200_000;
/// Jobs of the warm-up session.
const WARM_UP_JOBS_PER_TENANT: usize = 125;

fn sys_config() -> SystemConfig {
    SystemConfig {
        gpu: GpuConfig {
            max_cycles: MAX_CYCLES,
            sim_threads: 1,
            ..GpuConfig::nvidia()
        },
        driver: DriverConfig {
            enable_static_analysis: false,
            enable_type3: false,
            ..DriverConfig::default()
        },
        bcu: BcuConfig {
            strict_runtime_tags: true,
            ..BcuConfig::default()
        },
        seed: 0x6057_5E1D,
    }
}

/// The session's per-tenant job queues: each block of 25 jobs holds one
/// probe of each vector against the right-hand neighbour; the order of
/// every queue is shuffled by the seed.
fn queues(seed: u64, per_tenant: usize) -> Vec<Vec<JobKind>> {
    (0..TENANTS)
        .map(|t| {
            let victim = (t + 1) % TENANTS;
            let mut q: Vec<JobKind> = (0..per_tenant)
                .map(|i| match i % 25 {
                    5 => JobKind::AttackRawVa { victim },
                    11 => JobKind::AttackRegionOob { victim },
                    17 => JobKind::AttackForgedId { victim },
                    23 => JobKind::AttackForgedType3 { victim },
                    _ => JobKind::Benign,
                })
                .collect();
            StdRng::stream(seed, &format!("perfbench/serving/tenant{t}")).shuffle(&mut q);
            q
        })
        .collect()
}

/// Loads a 64-bit value from its own buffer and stores through it.
fn deref_loaded_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("serve_deref_loaded");
    let a = b.param_buffer("A", false);
    let p = b.ld(
        MemSpace::Global,
        MemWidth::W8,
        b.base_offset(a, Operand::Imm(0)),
    );
    b.st(
        MemSpace::Global,
        MemWidth::W4,
        b.base_offset(p, Operand::Imm(0)),
        Operand::Imm(0xBAD),
    );
    b.ret();
    Arc::new(b.finish().expect("valid kernel"))
}

/// Stores through its own pointer at an offset loaded from memory.
fn indirect_offset_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("serve_indirect_offset");
    let a = b.param_buffer("A", false);
    let off = b.ld(
        MemSpace::Global,
        MemWidth::W8,
        b.base_offset(a, Operand::Imm(8)),
    );
    b.st(
        MemSpace::Global,
        MemWidth::W4,
        b.base_offset(a, off),
        Operand::Imm(0xBAD),
    );
    b.ret();
    Arc::new(b.finish().expect("valid kernel"))
}

/// The kernels of the job mix.
pub struct Kernels {
    iota: Arc<Kernel>,
    deref: Arc<Kernel>,
    indirect: Arc<Kernel>,
}

fn secret_word(tenant: usize, i: u64) -> u32 {
    0xA5A5_0000 ^ ((tenant as u32) << 8) ^ (i as u32)
}

fn write_secret<S: Stack>(sys: &mut S, buf: BufferHandle, tenant: usize) {
    for i in 0..SECRET_WORDS {
        sys.driver_mut()
            .write_buffer(buf, i * 4, &secret_word(tenant, i).to_le_bytes());
    }
}

fn secret_intact<S: Stack>(sys: &S, buf: BufferHandle, tenant: usize) -> bool {
    (0..SECRET_WORDS)
        .all(|i| sys.driver().read_buffer_uint(buf, i * 4, 4) == u64::from(secret_word(tenant, i)))
}

/// Weighted-fair pick, as the serving loop's: the non-empty queue with
/// the least `cycles_consumed / weight`, ties to the lowest index.
fn pick_tenant(tenants: &TenantTable, queues: &[VecDeque<JobKind>]) -> Option<usize> {
    let mut best: Option<(usize, u64, u64)> = None;
    for (i, q) in queues.iter().enumerate() {
        if q.is_empty() {
            continue;
        }
        let t = TenantId(i as u16);
        let consumed = tenants.stats(t).map(|s| s.cycles_consumed).unwrap_or(0);
        let weight = tenants.weight(t).unwrap_or(1);
        let better = best.is_none_or(|(_, bc, bw)| {
            u128::from(consumed) * u128::from(bw) < u128::from(bc) * u128::from(weight)
        });
        if better {
            best = Some((i, consumed, weight));
        }
    }
    best.map(|(i, _, _)| i)
}

/// Serves every queued job on one fresh stack.
fn session<S: Stack>(
    queues: &[Vec<JobKind>],
    k: &Kernels,
    tr: &mut Tracer,
    mut counts: Option<&mut Counts>,
) -> Round {
    let rss_before = proc_status_kb("VmRSS");
    tr.begin("gpushield.system_new");
    let mut sys = S::build(sys_config());
    tr.end("gpushield.system_new");
    let slices = (0..TENANTS).map(|t| {
        let lo = 1 + t as u16 * SLICE_IDS;
        (lo, lo + SLICE_IDS, 1)
    });
    let mut tenants = TenantTable::with_slices(slices);
    let mut work = Vec::with_capacity(TENANTS);
    let mut secret = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        work.push(sys.alloc(WORK_WORDS * 4).expect("work buffer"));
        let s = sys.alloc(SECRET_WORDS * 4).expect("secret buffer");
        write_secret(&mut sys, s, t);
        secret.push(s);
    }
    let mut queues: Vec<VecDeque<JobKind>> =
        queues.iter().map(|q| q.iter().copied().collect()).collect();
    let mut out = Round::default();
    let mut misattributed = 0u64;

    loop {
        let step = Instant::now();
        let Some(t) = pick_tenant(&tenants, &queues) else {
            break;
        };
        let Some(kind) = queues[t].pop_front() else {
            break;
        };
        let tid = TenantId(t as u16);
        // Host-side payload: the probe's planted pointer or offset.
        let va = |sys: &S, h| sys.driver().buffer_va(h);
        let (kernel, block, payload) = match kind {
            JobKind::Benign | JobKind::BenignWide => (&k.iota, WORK_WORDS as u32, None),
            JobKind::AttackRawVa { victim } => (&k.deref, 1, Some((0, va(&sys, secret[victim])))),
            JobKind::AttackRegionOob { victim } => {
                let delta = va(&sys, secret[victim]).wrapping_sub(va(&sys, work[t]));
                (&k.indirect, 1, Some((8, delta)))
            }
            JobKind::AttackForgedId { victim } => {
                // A plausible plaintext guess: the first ID of the
                // victim's slice, without the kernel key.
                let guess = 1 + victim as u16 * SLICE_IDS;
                let raw = TaggedPtr::with_region_id(va(&sys, secret[victim]), guess).raw();
                (&k.deref, 1, Some((0, raw)))
            }
            JobKind::AttackForgedType3 { victim } => {
                let raw = TaggedPtr::with_log2_size(va(&sys, secret[victim]), 40).raw();
                (&k.deref, 1, Some((0, raw)))
            }
        };
        if let Some((offset, value)) = payload {
            sys.driver_mut()
                .write_buffer(work[t], offset, &value.to_le_bytes());
        }
        let args = [Arg::Buffer(work[t])];

        tr.set_op(out.op_us.len() as u64);
        let start = Instant::now();
        let r = sys.launch_tenant(tr, &mut tenants, tid, kernel.clone(), 1, block, &args);
        tr.begin("bench.judge");
        let (ok, sig) = match r {
            // A refused or failed job is a wrong outcome: every job of
            // the mix fits its tenant's slice.
            Err(_) => (false, (0, 0, 0)),
            Ok((report, violations)) => {
                misattributed += violations
                    .iter()
                    .filter(|v| tenants.owner_of_kernel(v.kernel_id) != Some(tid))
                    .count() as u64;
                out.instrs += report.instructions();
                if let Some(c) = counts.as_deref_mut() {
                    c.report(&report);
                }
                let sig = (report.cycles, report.instructions(), violations.len());
                let ok = match kind.victim() {
                    Some(victim) => {
                        let intact = secret_intact(&sys, secret[victim], victim);
                        if !intact {
                            write_secret(&mut sys, secret[victim], victim);
                        }
                        let detected = intact && (!report.completed() || !violations.is_empty());
                        let _ = tenants.note_probe(tid, detected);
                        detected
                    }
                    None => {
                        report.completed()
                            && violations.is_empty()
                            && (0..WORK_WORDS)
                                .all(|i| sys.driver().read_buffer_uint(work[t], i * 4, 4) == i)
                    }
                };
                (ok, sig)
            }
        };
        tr.end("bench.judge");
        out.op_us.push(start.elapsed().as_secs_f64() * 1e6);
        out.tally.record(ok);
        out.sigs.push(sig);
        out.step_us.push(step.elapsed().as_secs_f64() * 1e6);
    }

    if !(0..TENANTS).all(|t| secret_intact(&sys, secret[t], t)) {
        out.problems
            .push("a tenant secret was corrupted".to_string());
    }
    if misattributed > 0 {
        out.problems.push(format!(
            "{misattributed} violations charged to the wrong tenant"
        ));
    }
    out.rss_kb_per_op =
        proc_status_kb("VmRSS").saturating_sub(rss_before) as f64 / out.op_us.len().max(1) as f64;
    if let Some(c) = counts {
        for t in 0..TENANTS {
            let tid = TenantId(t as u16);
            if let Ok(a) = tenants.allocator_mut(tid) {
                c.id_recycles += a.stats().recycled;
            }
            c.rejections += tenants.stats(tid).map_or(0, |s| s.launches_rejected);
        }
        sys.add_counts(c);
    }
    out
}

/// The `serving` workload.
pub struct Serving;

impl crate::Workload for Serving {
    /// The session's job queues and the kernels the jobs launch.
    type Input = (Vec<Vec<JobKind>>, Kernels);

    fn setup(seed: u64) -> Setup<Self::Input> {
        let k = Kernels {
            iota: iota_kernel(),
            deref: deref_loaded_kernel(),
            indirect: indirect_offset_kernel(),
        };
        let warm = queues(seed, WARM_UP_JOBS_PER_TENANT);
        session::<System>(&warm, &k, &mut Tracer::new(false), None);
        Setup {
            input: (queues(seed, JOBS_PER_TENANT), k),
            corpus_ms: 0.0,
            build_ms: 0.0,
        }
    }

    fn round<S: Stack>(input: &Self::Input, tr: &mut Tracer, counts: Option<&mut Counts>) -> Round {
        session::<S>(&input.0, &input.1, tr, counts)
    }
}
