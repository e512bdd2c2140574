//! Deterministic multi-tenant serving loop.
//!
//! Models the ROADMAP's production-scale setting: N mutually-untrusting
//! tenants, each with a queue of kernel-launch requests, admitted one at a
//! time by a weighted-fair scheduler onto a single shielded GPU. Every
//! tenant owns a disjoint slice of the region-ID space (so IDs recycle
//! under churn without ever crossing an isolation boundary), every launch's
//! kernel ID is recorded for violation attribution, and each tenant has a
//! host-visible *secret* buffer no benign job ever touches — the corruption
//! detector that separates a Detected probe from a silently successful one.
//!
//! The loop is fully sequential and seeded, so a serving run's entire
//! classification record is byte-identical regardless of how the caller
//! fans scenarios out across worker threads.

use gpushield::{
    Arg, BcuConfig, BcuStats, BufferHandle, DriverConfig, DriverError, GpuConfig, Registry, System,
    SystemConfig, SystemError, TenantId, TenantStats, TenantTable,
};
use gpushield_isa::{Kernel, KernelBuilder, MemSpace, MemWidth, Operand, TaggedPtr};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Words in each tenant's work buffer (the benign workload's output).
pub const WORK_WORDS: u64 = 32;
/// Words in each tenant's secret buffer (the corruption detector).
pub const SECRET_WORDS: u64 = 8;

/// One queued launch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// `work[tid] = tid` into the tenant's own buffer; output verified.
    Benign,
    /// A two-parameter copy needing two region IDs — a capacity-1 slice
    /// rejects it with `RegionIdsExhausted`.
    BenignWide,
    /// Dereference a raw (untagged) victim VA loaded from the attacker's
    /// own buffer.
    AttackRawVa {
        /// Tenant whose secret the probe targets.
        victim: usize,
    },
    /// The attacker's legitimate Region pointer plus a loaded offset that
    /// lands inside the victim's secret.
    AttackRegionOob {
        /// Tenant whose secret the probe targets.
        victim: usize,
    },
    /// A crafted Region-class pointer carrying a plaintext guess of the
    /// victim's region ID (the attacker does not know the kernel key).
    AttackForgedId {
        /// Tenant whose secret the probe targets.
        victim: usize,
    },
    /// A crafted Type 3 pointer claiming a huge power-of-two bound over
    /// the victim's memory.
    AttackForgedType3 {
        /// Tenant whose secret the probe targets.
        victim: usize,
    },
}

impl JobKind {
    /// True for the four cross-tenant probe vectors.
    pub fn is_attack(&self) -> bool {
        self.victim().is_some()
    }

    /// The probed tenant, when this is an attack.
    pub fn victim(&self) -> Option<usize> {
        match self {
            JobKind::Benign | JobKind::BenignWide => None,
            JobKind::AttackRawVa { victim }
            | JobKind::AttackRegionOob { victim }
            | JobKind::AttackForgedId { victim }
            | JobKind::AttackForgedType3 { victim } => Some(*victim),
        }
    }

    /// Short display name for exhibit tables.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Benign => "benign",
            JobKind::BenignWide => "benign_wide",
            JobKind::AttackRawVa { .. } => "raw_va",
            JobKind::AttackRegionOob { .. } => "region_oob",
            JobKind::AttackForgedId { .. } => "forged_id",
            JobKind::AttackForgedType3 { .. } => "forged_type3",
        }
    }
}

/// How one admitted (or refused) job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Benign job ran to completion with correct output.
    Completed,
    /// Benign job was aborted or produced wrong output — protection turned
    /// against a legitimate workload.
    FalseFault,
    /// Attack probe caught: aborted with a logged violation (or squashed
    /// with the log showing it) and the victim's secret intact.
    Detected,
    /// Attack probe completed with nothing logged — but the secret is
    /// intact, so the probe achieved nothing.
    Masked,
    /// Attack probe corrupted the victim's secret with nothing logged —
    /// the outcome the isolation domains must make impossible.
    SilentCorruption,
    /// Refused at admission (`RegionIdsExhausted` under a tiny slice).
    Rejected,
}

impl Outcome {
    /// Every classification, in tally order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Completed,
        Outcome::FalseFault,
        Outcome::Detected,
        Outcome::Masked,
        Outcome::SilentCorruption,
        Outcome::Rejected,
    ];

    /// Column label.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::FalseFault => "false-fault",
            Outcome::Detected => "detected",
            Outcome::Masked => "masked",
            Outcome::SilentCorruption => "silent",
            Outcome::Rejected => "rejected",
        }
    }
}

/// One serving scenario: per-tenant ID slices, weights, and job queues.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Per-tenant `(lo, hi, weight)` region-ID slices (disjoint).
    pub slices: Vec<(u16, u16, u64)>,
    /// Per-tenant job queues, drained front-first under fair admission.
    pub queues: Vec<Vec<JobKind>>,
    /// The BCU's multi-tenant hardening switch (see
    /// [`BcuConfig::strict_runtime_tags`]).
    pub strict_runtime_tags: bool,
    /// Watchdog budget per launch.
    pub max_cycles: u64,
}

/// One job's classification record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// Submitting tenant.
    pub tenant: usize,
    /// What was asked.
    pub kind: JobKind,
    /// What happened.
    pub outcome: Outcome,
    /// Simulated cycles the job waited in queue before admission.
    pub queue_wait: u64,
}

/// Everything a serving run produced.
#[derive(Debug, Clone)]
pub struct ServingSummary {
    /// Every job in admission order.
    pub jobs: Vec<JobRecord>,
    /// Tally per [`Outcome::ALL`] slot.
    pub tallies: [u64; 6],
    /// Per-tenant accounting snapshots.
    pub per_tenant: Vec<TenantStats>,
    /// Aggregate BCU statistics over the whole run.
    pub bcu: BcuStats,
    /// All secrets held their sentinel pattern at the end of the run.
    pub secrets_intact: bool,
    /// Violations whose kernel ID resolved to a different tenant than the
    /// one that launched the probe (must be 0).
    pub misattributed: u64,
    /// `driver.tenant.*` and `driver.audit.*` aggregate gauges plus the
    /// `driver.tenant.<i>.*` per-tenant breakdown, ready for a results
    /// JSON.
    pub telemetry: Vec<(String, u64)>,
    /// The per-tenant security audit log, rendered as stable one-line
    /// records in global decision order (admissions, rejections,
    /// region-ID churn, violation attributions, probe verdicts).
    pub audit: Vec<String>,
}

/// `work[tid] = tid`: one buffer, one region ID, output diffable.
pub fn iota_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("serve_iota");
    let out = b.param_buffer("out", false);
    let tid = b.global_thread_id();
    let off = b.shl(tid, Operand::Imm(2));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
    b.ret();
    Arc::new(b.finish().expect("valid kernel"))
}

/// Identity copy with two buffer parameters: needs two region IDs.
fn copy_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("serve_copy");
    let src = b.param_buffer("in", true);
    let dst = b.param_buffer("out", false);
    let tid = b.global_thread_id();
    let off = b.shl(tid, Operand::Imm(2));
    let v = b.ld(MemSpace::Global, MemWidth::W4, b.base_offset(src, off));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(dst, off), v);
    b.ret();
    Arc::new(b.finish().expect("valid kernel"))
}

/// Loads a 64-bit value from its own buffer and stores through it as a
/// base pointer — whatever bits the host planted arrive at the BCU
/// verbatim (raw VA, forged Region class, forged Type 3).
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

/// Stores through its own (legitimate) pointer at an offset loaded from
/// memory — the classic OOB reach into a neighbour.
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

fn secret_word(tenant: usize, i: u64) -> u32 {
    0xA5A5_0000 ^ ((tenant as u32) << 8) ^ (i as u32)
}

fn write_secret(sys: &mut System, buf: BufferHandle, tenant: usize) {
    for i in 0..SECRET_WORDS {
        sys.write_buffer(buf, i * 4, &secret_word(tenant, i).to_le_bytes());
    }
}

fn secret_intact(sys: &System, buf: BufferHandle, tenant: usize) -> bool {
    (0..SECRET_WORDS).all(|i| sys.read_uint(buf, i * 4, 4) == u64::from(secret_word(tenant, i)))
}

fn sys_config(cfg: &ServingConfig) -> SystemConfig {
    SystemConfig {
        gpu: GpuConfig {
            max_cycles: cfg.max_cycles,
            sim_threads: crate::runner::sim_threads(),
            ..GpuConfig::nvidia()
        },
        // Analysis and Type 3 off: every site is runtime-checked and every
        // legitimate pointer is Region-class — the precondition that makes
        // strict tag checking sound.
        driver: DriverConfig {
            enable_static_analysis: false,
            enable_type3: false,
            ..DriverConfig::default()
        },
        bcu: BcuConfig {
            strict_runtime_tags: cfg.strict_runtime_tags,
            ..BcuConfig::default()
        },
        seed: 0x6057_5E1D,
    }
}

/// Weighted-fair pick: the non-empty queue minimizing
/// `cycles_consumed / weight` (cross-multiplied to stay in integers),
/// tie-broken toward the lowest tenant index. Deterministic.
fn pick_tenant(tenants: &TenantTable, queues: &[VecDeque<JobKind>]) -> Option<usize> {
    let mut best: Option<(usize, u64, u64)> = None;
    for (i, q) in queues.iter().enumerate() {
        if q.is_empty() {
            continue;
        }
        let t = TenantId(i as u16);
        let consumed = tenants.stats(t).map(|s| s.cycles_consumed).unwrap_or(0);
        let weight = tenants.weight(t).unwrap_or(1);
        let better = match best {
            None => true,
            Some((_, bc, bw)) => {
                u128::from(consumed) * u128::from(bw) < u128::from(bc) * u128::from(weight)
            }
        };
        if better {
            best = Some((i, consumed, weight));
        }
    }
    best.map(|(i, _, _)| i)
}

/// Runs one serving scenario to queue exhaustion and classifies every job.
///
/// # Panics
///
/// Panics when the configuration is malformed (mismatched slice/queue
/// counts, overlapping slices) or a host-side allocation fails — both are
/// harness bugs, not simulated outcomes.
pub fn run_serving(cfg: &ServingConfig) -> ServingSummary {
    assert_eq!(cfg.slices.len(), cfg.queues.len(), "one queue per tenant");
    let n = cfg.slices.len();
    let mut sys = System::new(sys_config(cfg));
    let mut tenants = TenantTable::with_slices(cfg.slices.iter().copied());

    let mut work = Vec::with_capacity(n);
    let mut secret = Vec::with_capacity(n);
    for t in 0..n {
        work.push(sys.alloc(WORK_WORDS * 4).expect("work buffer"));
        let s = sys.alloc(SECRET_WORDS * 4).expect("secret buffer");
        write_secret(&mut sys, s, t);
        secret.push(s);
    }

    let iota = iota_kernel();
    let copy = copy_kernel();
    let deref = deref_loaded_kernel();
    let indirect = indirect_offset_kernel();

    let mut queues: Vec<VecDeque<JobKind>> = cfg
        .queues
        .iter()
        .map(|q| q.iter().copied().collect())
        .collect();
    let mut now = 0u64;
    let mut jobs = Vec::new();
    let mut tallies = [0u64; 6];
    let mut misattributed = 0u64;

    while let Some(t) = pick_tenant(&tenants, &queues) {
        let Some(kind) = queues[t].pop_front() else {
            break;
        };
        let wait = now;
        // Host-side payload and kernel selection.
        let (kernel, args): (Arc<Kernel>, Vec<Arg>) = match kind {
            JobKind::Benign => (iota.clone(), vec![Arg::Buffer(work[t])]),
            JobKind::BenignWide => (
                copy.clone(),
                vec![Arg::Buffer(work[t]), Arg::Buffer(work[t])],
            ),
            JobKind::AttackRawVa { victim } => {
                let raw = sys.driver().buffer_va(secret[victim]);
                sys.write_buffer(work[t], 0, &raw.to_le_bytes());
                (deref.clone(), vec![Arg::Buffer(work[t])])
            }
            JobKind::AttackRegionOob { victim } => {
                let delta = sys
                    .driver()
                    .buffer_va(secret[victim])
                    .wrapping_sub(sys.driver().buffer_va(work[t]));
                sys.write_buffer(work[t], 8, &delta.to_le_bytes());
                (indirect.clone(), vec![Arg::Buffer(work[t])])
            }
            JobKind::AttackForgedId { victim } => {
                // Plausible plaintext guess: the first ID of the victim's
                // slice. Without the kernel key, decryption scrambles it.
                let guess = cfg.slices[victim].0;
                let raw =
                    TaggedPtr::with_region_id(sys.driver().buffer_va(secret[victim]), guess).raw();
                sys.write_buffer(work[t], 0, &raw.to_le_bytes());
                (deref.clone(), vec![Arg::Buffer(work[t])])
            }
            JobKind::AttackForgedType3 { victim } => {
                let raw =
                    TaggedPtr::with_log2_size(sys.driver().buffer_va(secret[victim]), 40).raw();
                sys.write_buffer(work[t], 0, &raw.to_le_bytes());
                (deref.clone(), vec![Arg::Buffer(work[t])])
            }
        };
        let block = if kind.is_attack() {
            1
        } else {
            WORK_WORDS as u32
        };
        let outcome =
            match sys.launch_tenant(&mut tenants, TenantId(t as u16), kernel, 1, block, &args) {
                Err(SystemError::Driver(DriverError::RegionIdsExhausted { .. })) => {
                    Outcome::Rejected
                }
                Err(_) => Outcome::FalseFault,
                Ok((report, violations)) => {
                    now += report.cycles;
                    for v in &violations {
                        if tenants.owner_of_kernel(v.kernel_id) != Some(TenantId(t as u16)) {
                            misattributed += 1;
                        }
                    }
                    if let Some(victim) = kind.victim() {
                        let intact = secret_intact(&sys, secret[victim], victim);
                        if !intact {
                            // Restore the sentinel so later probes classify
                            // against a clean detector.
                            write_secret(&mut sys, secret[victim], victim);
                            Outcome::SilentCorruption
                        } else if !report.completed() || !violations.is_empty() {
                            Outcome::Detected
                        } else {
                            Outcome::Masked
                        }
                    } else if report.completed() && violations.is_empty() {
                        match kind {
                            JobKind::Benign
                                if (0..WORK_WORDS)
                                    .any(|i| sys.read_uint(work[t], i * 4, 4) != i) =>
                            {
                                Outcome::FalseFault
                            }
                            _ => Outcome::Completed,
                        }
                    } else {
                        Outcome::FalseFault
                    }
                }
            };
        if kind.is_attack() {
            // Audit the probe verdict: the boundary held iff the probe was
            // detected (aborted/squashed with the secret intact).
            let _ = tenants.note_probe(TenantId(t as u16), outcome == Outcome::Detected);
        }
        if let Ok(s) = tenants.stats_mut(TenantId(t as u16)) {
            s.queue_wait_cycles += wait;
        }
        let slot = Outcome::ALL
            .iter()
            .position(|o| *o == outcome)
            .expect("outcome indexed");
        tallies[slot] += 1;
        jobs.push(JobRecord {
            tenant: t,
            kind,
            outcome,
            queue_wait: wait,
        });
    }

    let mut reg = Registry::new();
    tenants.publish_telemetry(&mut reg);
    let mut telemetry: Vec<(String, u64)> = reg
        .names()
        .iter()
        .map(|name| ((*name).to_string(), reg.value(name).unwrap_or(0)))
        .collect();
    telemetry.extend(tenants.per_tenant_metrics());

    let secrets_intact = (0..n).all(|t| secret_intact(&sys, secret[t], t));
    let per_tenant = (0..n)
        .map(|t| tenants.stats(TenantId(t as u16)).unwrap_or_default())
        .collect();
    ServingSummary {
        jobs,
        tallies,
        per_tenant,
        bcu: sys.bcu_stats(),
        secrets_intact,
        misattributed,
        telemetry,
        audit: tenants.audit().render_lines(),
    }
}

static STASH: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());

/// Stashes exhibit telemetry for the `experiments` binary to embed in the
/// exhibit's results JSON (replacing any previous stash).
pub fn stash_telemetry(pairs: &[(String, u64)]) {
    if let Ok(mut s) = STASH.lock() {
        *s = pairs.to_vec();
    }
}

/// Drains the stash (empty when the last exhibit stashed nothing).
pub fn take_stashed_telemetry() -> Vec<(String, u64)> {
    STASH
        .lock()
        .map(|mut s| std::mem::take(&mut *s))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_config(strict: bool) -> ServingConfig {
        let atk = |v: usize| {
            vec![
                JobKind::Benign,
                JobKind::AttackRawVa { victim: v },
                JobKind::AttackRegionOob { victim: v },
                JobKind::AttackForgedId { victim: v },
                JobKind::AttackForgedType3 { victim: v },
                JobKind::Benign,
            ]
        };
        ServingConfig {
            slices: vec![(1, 65, 1), (65, 129, 1)],
            queues: vec![atk(1), atk(0)],
            strict_runtime_tags: strict,
            max_cycles: 200_000,
        }
    }

    #[test]
    fn strict_serving_detects_every_probe_and_keeps_secrets() {
        let s = run_serving(&mini_config(true));
        assert_eq!(s.tallies[2], 8, "all 8 probes Detected: {:?}", s.tallies);
        assert_eq!(s.tallies[3] + s.tallies[4], 0, "no Masked/Silent");
        assert!(s.secrets_intact);
        assert_eq!(s.misattributed, 0);
        assert_eq!(s.tallies[0], 4, "benign jobs unharmed");
    }

    #[test]
    fn lax_serving_exhibits_the_silent_corruption_strict_mode_closes() {
        let s = run_serving(&mini_config(false));
        // raw_va and forged_type3 slip through unlogged and corrupt the
        // secret; region_oob and forged_id are still caught by the RBT.
        assert_eq!(s.tallies[4], 4, "4 silent corruptions: {:?}", s.tallies);
        assert_eq!(s.tallies[2], 4, "RBT-backed vectors still detected");
        assert!(s.secrets_intact, "harness restores secrets after probes");
    }

    #[test]
    fn capacity_one_slice_recycles_and_rejects_wide_jobs() {
        let cfg = ServingConfig {
            slices: vec![(1, 2, 1), (2, 66, 1)],
            queues: vec![
                vec![
                    JobKind::Benign,
                    JobKind::BenignWide,
                    JobKind::Benign,
                    JobKind::BenignWide,
                    JobKind::Benign,
                ],
                vec![JobKind::Benign],
            ],
            strict_runtime_tags: true,
            max_cycles: 200_000,
        };
        let s = run_serving(&cfg);
        assert_eq!(s.tallies[5], 2, "both wide jobs rejected: {:?}", s.tallies);
        assert_eq!(s.per_tenant[0].launches_rejected, 2);
        assert_eq!(s.per_tenant[0].launches_completed, 3);
        let recycled = s
            .telemetry
            .iter()
            .find(|(k, _)| k == "driver.tenant.0.ids_recycled")
            .map(|(_, v)| *v);
        assert_eq!(recycled, Some(2), "the single ID recycled per relaunch");
    }

    #[test]
    fn audit_log_records_admissions_churn_and_probe_verdicts() {
        let s = run_serving(&mini_config(true));
        assert!(!s.audit.is_empty());
        // Gapless global sequence numbers in decision order.
        for (i, line) in s.audit.iter().enumerate() {
            assert!(line.starts_with(&format!("seq={i} ")), "gap at {i}: {line}");
        }
        let count = |label: &str| {
            s.audit
                .iter()
                .filter(|l| l.contains(&format!(" {label}")))
                .count()
        };
        assert_eq!(count("probe_verdict blocked=true"), 8, "all probes held");
        assert_eq!(count("admitted kernel="), 12, "one admission per job");
        assert!(count("ids_acquired count=") >= 1);
        let audited = s
            .telemetry
            .iter()
            .find(|(k, _)| k == "driver.audit.probes_blocked")
            .map(|(_, v)| *v);
        assert_eq!(audited, Some(8));
    }

    #[test]
    fn serving_is_deterministic() {
        let a = run_serving(&mini_config(true));
        let b = run_serving(&mini_config(true));
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(a.bcu, b.bcu);
    }

    #[test]
    fn stash_roundtrip_replaces_and_drains() {
        stash_telemetry(&[("a".to_string(), 1)]);
        stash_telemetry(&[("b".to_string(), 2)]);
        assert_eq!(take_stashed_telemetry(), vec![("b".to_string(), 2)]);
        assert!(take_stashed_telemetry().is_empty());
    }
}
