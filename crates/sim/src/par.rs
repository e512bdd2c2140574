//! The deterministic cycle-quantum engine behind `Gpu::run_with`.
//!
//! [`run_engine`] advances the GPU in fixed *quanta* of [`QUANTUM`]
//! simulated cycles. Inside a quantum, every *due* SIMT core — one whose
//! next ready cycle falls inside the quantum; a core without warps
//! sleeps — is advanced independently (a crew of worker threads claims
//! cores from the driver's due list) against an **immutable snapshot** of
//! the shared memory system: per-core L1/L1-TLB state mutates live (it
//! is core-private), while L2/L2-TLB hits are *predicted* with
//! side-effect-free probes and DRAM timing with a private per-core
//! [`DramView`]. Every side effect
//! that crosses core boundaries (L2/DRAM state, flight records, launch
//! counters, observed ranges, aborts) is buffered in a per-core outbox
//! with a `(cycle, core, seq)` key.
//!
//! At the quantum barrier the driver thread *drains* the outboxes: it
//! merges counters in core order, sorts the buffered events by their
//! canonical key, and replays them against the real shared memory system.
//! Because the canonical order is a pure function of simulated time — not
//! of which worker ran first — every scheduling decision, cache state
//! transition, verdict and cycle count is identical for every worker
//! count, including one.
//!
//! Three operations are not executed inside the phase at all because they
//! touch globally shared *mutable* state: device-heap `malloc`/`free`
//! (the serialized allocator lock) and global-memory atomics (read-
//! modify-write ordering). Issuing one *parks* the warp (`ready_at =
//! u64::MAX`, pc not advanced); the drain re-derives the instruction from
//! the frozen warp state and executes it at its recorded issue cycle, in
//! canonical order.
//!
//! A run with a fault-injection session, or with a guard that cannot
//! fork per-core shards, consults the whole guard behind a mutex on one
//! worker, so checks and injections happen in one canonical order: core
//! by core within each quantum, parked atomics at the drain.
//!
//! Model deltas (all deterministic; DESIGN.md §13): workgroup dispatch
//! happens at quantum boundaries; an abort strips the launch at the end
//! of its quantum, so other cores may execute up to one quantum of extra
//! instructions for an aborting launch; L2/L2-TLB/DRAM timing seen by a
//! warp is the quantum-start prediction rather than an interleaved
//! per-access value. Plain (non-atomic) global accesses by *different*
//! cores to the *same* location inside one quantum are data races in the
//! programming model and take no defined interleaving.

use super::{
    agu, build_launch_states, gather_lane_vas, lane_data_path, Core, GpuConfig, HeapRun,
    LaunchState, MemOp, MultiKernelMode, ResidentWg, RunError, RunOpts,
};
use crate::fault::{self, FaultSession};
use crate::guard::{CoreGuard, GuardCheck, GuardVerdict, MemAccess, MemGuard};
use crate::launch::{KernelLaunch, SiteCheck};
use crate::stats::{
    AbortReason, LaunchReport, ObservedRange, RunReport, SimProfile, StallAttribution,
};
use crate::timeline::mem_space_code;
use crate::warp::{ExecCtx, Row, SimpleOutcome, Warp, MAX_LANES};
use gpushield_isa::{BlockId, Instr, MemSpace, Operand, TaggedPtr, VReg};
use gpushield_mem::{coalesce_lanes_into, DramView, SharedMemorySystem, VirtualMemorySpace};
use gpushield_runtime::with_crew;
use gpushield_telemetry::flight::{FlightEvent, FlightRecorder, NO_SITE};
use gpushield_telemetry::{MetricId, Registry};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{LockResult, Mutex, RwLock};

/// Simulated cycles per parallel phase. Large enough to amortize the
/// barrier + drain, small enough that the boundary-only dispatch and the
/// quantum-granular abort stay close to a cycle-by-cycle model.
const QUANTUM: u64 = 64;

/// Unwraps a lock result, adopting the data on poisoning. A poisoned lock
/// here means a worker panicked mid-quantum; the crew re-raises that
/// panic on the driver thread, so pressing on with the inner data never
/// publishes results built from the poisoned state.
fn lock_ok<G>(r: LockResult<G>) -> G {
    match r {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Per-launch counter deltas accumulated core-locally during a phase and
/// folded into the real [`LaunchReport`]s at the drain, in core order.
#[derive(Default)]
struct LaunchAcc {
    instructions: u64,
    mem_instructions: u64,
    transactions: u64,
    checks_performed: u64,
    checks_skipped: u64,
    checks_certified: u64,
    guard_stall_cycles: u64,
    violations_squashed: u64,
    stall_attribution: StallAttribution,
}

impl LaunchAcc {
    fn drain_into(&mut self, r: &mut LaunchReport) {
        r.instructions += self.instructions;
        r.mem_instructions += self.mem_instructions;
        r.transactions += self.transactions;
        r.checks_performed += self.checks_performed;
        r.checks_skipped += self.checks_skipped;
        r.checks_certified += self.checks_certified;
        r.guard_stall_cycles += self.guard_stall_cycles;
        r.violations_squashed += self.violations_squashed;
        r.stall_attribution.merge(&self.stall_attribution);
        *self = LaunchAcc::default();
    }
}

/// One buffered cross-core side effect, stamped with its issue cycle and
/// a per-core sequence number so the drain can replay the quantum in a
/// canonical total order.
#[derive(Clone, Copy)]
struct QEv {
    t: u64,
    seq: u32,
    ev: Ev,
}

#[derive(Clone, Copy)]
enum Ev {
    /// An L1-missing data transaction to replay against the real L2/DRAM.
    Data(u64),
    /// An L1-TLB-missing translation to replay against the real shared TLB.
    Xlate(u64),
    /// A warp parked on a serialized operation (malloc/free/global atomic),
    /// identified by (launch, workgroup, warp-in-wg) because warp indices
    /// shift when workgroups retire.
    Parked { li: u32, wg: u64, win: u32 },
    /// A workgroup of launch `li` fully retired on its core.
    Retired { li: u32 },
    /// The launch must abort (bounds violation or translation fault).
    /// Carries the guilty warp's identity for the flight recorder — the
    /// warp itself is stripped by the time the drain applies the abort.
    Abort {
        li: u32,
        wg: u64,
        win: u32,
        reason: AbortReason,
    },
    /// A buffered flight-recorder event, replayed into the recorder in
    /// canonical order so the stream is identical for every worker count.
    Flight(FlightEvent),
}

/// A static memory instruction: (block, instruction index).
type Site = (BlockId, usize);

/// A drained event: [`QEv`] plus its core, forming the canonical sort key
/// `(t, core, seq)`.
struct DrainKey {
    t: u64,
    core: u32,
    seq: u32,
    ev: Ev,
}

/// Everything a core accumulates during one phase; cleared (capacity
/// kept) by the drain, so steady-state quanta allocate nothing. Only the
/// advance phase writes an outbox and only due cores advance, so the
/// drain collects exactly the outboxes of the quantum's due cores.
#[derive(Default)]
pub(super) struct Outbox {
    evs: Vec<QEv>,
    seq: u32,
    profile: SimProfile,
    accs: Vec<LaunchAcc>,
    /// Visible bounds-check stalls, in issue order, for the telemetry
    /// histogram (observed at the drain in core order).
    stalls: Vec<u64>,
    no_issue: u64,
    /// Instructions issued (including parks) this quantum.
    issued: u64,
    /// Cycles with at least one issue this quantum — the per-core load
    /// signal behind `sim.parallel.*` skew telemetry.
    busy: u64,
    /// Attempted-address extremes per `(launch, site)` this quantum,
    /// kept under observed-range recording only; the drain merges them
    /// into the launches by min/max.
    observed: HashMap<(usize, Site), (u64, u64)>,
}

impl Outbox {
    /// Empties the outbox for a run of `n_launches` launches, keeping
    /// every buffer's capacity.
    fn reset(&mut self, n_launches: usize) {
        let Outbox {
            mut evs,
            mut accs,
            mut stalls,
            mut observed,
            ..
        } = std::mem::take(self);
        evs.clear();
        stalls.clear();
        accs.clear();
        accs.resize_with(n_launches, LaunchAcc::default);
        observed.clear();
        *self = Outbox {
            evs,
            accs,
            stalls,
            observed,
            ..Outbox::default()
        };
    }
}

/// The engine's per-core state, owned by the [`super::Gpu`] and reset —
/// not rebuilt — at the start of every run. Built on the first run.
///
/// A run touches only the cores it dispatches to: an undispatched core
/// sleeps (`next_ready_at == u64::MAX`), is never due, and so never
/// advances or writes its outbox. The arena records the dispatched cores
/// in `used`, and the next run resets only those, so neither a run's
/// set-up nor its quanta cost grows with the cores it leaves idle.
#[derive(Default)]
pub(super) struct Arena {
    cores: Vec<Core>,
    outs: Vec<Outbox>,
    dram_views: Vec<DramView>,
    /// Each core's `next_ready_at`, written only together with it (see
    /// [`CoreSlot::set_next_ready`]), so the driver lists the due cores
    /// without taking any slot lock. `Relaxed` suffices: the crew
    /// barrier orders every write before the listing that reads it.
    wake: Vec<AtomicU64>,
    /// The current quantum's due cores in ascending order (a prefix of
    /// `due_len` entries, see [`list_due`]); the workers claim from it
    /// and the drain collects only its outboxes.
    due: Vec<AtomicUsize>,
    /// Which cores received a workgroup in the current (or last) run.
    used: Vec<bool>,
    /// The drain's sort buffer.
    keys: Vec<DrainKey>,
}

impl Arena {
    /// Returns every core the last run dispatched to to its freshly
    /// constructed state and empties its outbox; the other cores and
    /// outboxes are still as reset, so their outboxes only resize their
    /// per-launch accumulators for a run of `n_launches` launches.
    fn reset(&mut self, cfg: &GpuConfig, n_launches: usize) {
        let n = cfg.num_cores;
        if self.cores.len() != n {
            self.cores = (0..n).map(|_| Core::new(cfg)).collect();
            self.outs = (0..n).map(|_| Outbox::default()).collect();
            self.dram_views = vec![DramView::default(); n];
            self.wake = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
            self.due = (0..n).map(|_| AtomicUsize::new(0)).collect();
            self.used = vec![false; n];
        }
        for (i, used) in self.used.iter_mut().enumerate() {
            if std::mem::take(used) {
                self.cores[i].reset();
                self.wake[i].store(u64::MAX, Ordering::Relaxed);
                self.outs[i].reset(n_launches);
            } else {
                self.outs[i]
                    .accs
                    .resize_with(n_launches, LaunchAcc::default);
            }
        }
        self.keys.clear();
    }
}

#[cfg(test)]
impl Arena {
    /// The engine's cores, for state checks.
    pub(super) fn cores_mut(&mut self) -> &mut [Core] {
        &mut self.cores
    }
}

/// One core's share of the machine for one run: the simulated core, its
/// outbox and its private DRAM timing view (refreshed from the real DRAM
/// when the core starts a phase), all borrowed from the [`Arena`], plus
/// its forked guard shard (when the guard supports forking).
struct CoreSlot<'a, 'g> {
    core: &'a mut Core,
    out: &'a mut Outbox,
    shard: Option<Box<dyn CoreGuard + Send + 'g>>,
    dram_view: &'a mut DramView,
    wake: &'a AtomicU64,
}

impl CoreSlot<'_, '_> {
    /// Sets the core's next-ready cycle and its wake cell together — the
    /// one way the engine writes either, since a stale cell would
    /// silently leave a core out of the due list.
    fn set_next_ready(&mut self, at: u64) {
        self.core.next_ready_at = at;
        self.wake.store(at, Ordering::Relaxed);
    }
}

/// A guard that cannot fork, or that a fault session corrupts, shared
/// whole behind a mutex by a run on one worker.
type WholeGuard<'w, 'g> = Mutex<&'w mut (dyn MemGuard + 'g)>;

/// Consults the bounds-check guard for one access: the core's forked
/// shard, else the whole guard.
fn guard_check(
    shard: Option<&mut (dyn CoreGuard + Send + '_)>,
    whole: Option<&WholeGuard<'_, '_>>,
    access: &MemAccess,
    vm: &VirtualMemorySpace,
) -> GuardCheck {
    match (shard, whole) {
        (Some(s), _) => s.check(access, vm),
        (None, Some(m)) => lock_ok(m.lock()).check(access, vm),
        (None, None) => GuardCheck::allow_free(),
    }
}

/// Draws the session's faults due at the current global-memory access
/// (see [`fault::apply_due_faults`]), with RCache poisoning aimed at the
/// whole guard, and reports each applied one to `on_applied` as a flight
/// event. Returns the access's (possibly corrupted) pointer and decision.
fn inject_due_faults(
    fs: &Mutex<&mut FaultSession>,
    whole: Option<&WholeGuard<'_, '_>>,
    vm: &VirtualMemorySpace,
    core: usize,
    t: u64,
    access: (TaggedPtr, SiteCheck),
    mut on_applied: impl FnMut(FlightEvent),
) -> (TaggedPtr, SiteCheck) {
    let mut guard = whole.map(|m| lock_ok(m.lock()));
    let mut fs = lock_ok(fs.lock());
    fault::apply_due_faults(
        &mut fs,
        vm,
        guard.as_deref_mut().map(|g| &mut **g as &mut dyn MemGuard),
        core,
        t,
        access,
        |kind| on_applied(FlightEvent::FaultInjected { kind: kind.code() }),
    )
}

/// Widens `key`'s observed address extremes in `map` to cover `[lo, hi)`.
fn widen<K: Eq + Hash>(map: &mut HashMap<K, (u64, u64)>, key: K, (lo, hi): (u64, u64)) {
    let e = map.entry(key).or_insert((lo, hi));
    e.0 = e.0.min(lo);
    e.1 = e.1.max(hi);
}

/// Hot-loop telemetry hooks: the registry plus pre-resolved metric
/// handles, so instrumented runs record in O(1) and uninstrumented runs
/// pay one `Option` branch per hook site. The `sim.parallel.*` metrics —
/// quantum count, worst per-quantum busy-cycle skew between cores and
/// per-core busy cycles — are keyed per *core* (not per worker), so the
/// published values do not depend on how workers claimed cores.
struct Tele<'t> {
    reg: &'t mut Registry,
    /// Next cycle at or after which the occupancy series sample fires
    /// (stride-bucket crossing; robust to event-skip cycle jumps).
    next_sample: u64,
    quantum_count: MetricId,
    max_skew: MetricId,
    busy: Vec<MetricId>,
    resident_warps: MetricId,
    ready_warps: MetricId,
    no_issue_slots: MetricId,
    idle_skip_cycles: MetricId,
    visible_stall: MetricId,
}

impl<'t> Tele<'t> {
    fn new(reg: &'t mut Registry, num_cores: usize) -> Self {
        let quantum_count = reg.counter("sim.parallel.quantum_count");
        let max_skew = reg.gauge("sim.parallel.max_skew_cycles");
        let busy = (0..num_cores)
            .map(|i| reg.gauge(&format!("sim.parallel.cluster.{i}.busy_cycles")))
            .collect();
        let resident_warps = reg.series("sim.series.resident_warps");
        let ready_warps = reg.series("sim.series.ready_warps");
        let no_issue_slots = reg.counter("sim.sched.no_issue_slots");
        let idle_skip_cycles = reg.counter("sim.sched.idle_skip_cycles");
        let visible_stall = reg.histogram("sim.hist.visible_stall_cycles");
        Tele {
            reg,
            next_sample: 0,
            quantum_count,
            max_skew,
            busy,
            resident_warps,
            ready_warps,
            no_issue_slots,
            idle_skip_cycles,
            visible_stall,
        }
    }
}

/// The event sinks the driver thread feeds: at dispatch, at the drain and
/// at the end of the run.
struct Feeds<'t> {
    tele: Option<Tele<'t>>,
    flight: Option<&'t mut FlightRecorder>,
    /// The recorder takes the scheduling events too (a timeline ring).
    timeline: bool,
}

/// What one core's phase reads besides its own slot.
struct PhaseCtx<'a, 'w, 'g, 'f> {
    m: Machine<'a, 'w, 'g, 'f>,
    launches: &'a [LaunchState],
    /// The quantum-start snapshot of the shared memory system.
    shared: &'a SharedMemorySystem,
    core_idx: usize,
    want_flight: bool,
    want_timeline: bool,
}

/// What every stage of a run reads, in the phase and at the drain alike.
#[derive(Clone, Copy)]
struct Machine<'a, 'w, 'g, 'f> {
    cfg: &'a GpuConfig,
    vm: &'a VirtualMemorySpace,
    /// The guard when it is not forked into the slots' shards.
    whole: Option<&'a WholeGuard<'w, 'g>>,
    fault: Option<&'a Mutex<&'f mut FaultSession>>,
}

fn push_ev(out: &mut Outbox, t: u64, ev: Ev) {
    let seq = out.seq;
    out.seq += 1;
    out.evs.push(QEv { t, seq, ev });
}

/// Buffers a scheduling event for a timeline ring (see
/// [`FlightRecorder::timeline`]); other runs skip it.
fn push_timeline(ctx: &PhaseCtx<'_, '_, '_, '_>, out: &mut Outbox, t: u64, ev: FlightEvent) {
    if ctx.want_timeline {
        push_ev(out, t, Ev::Flight(ev));
    }
}

fn recompute_next_ready(core: &Core) -> u64 {
    core.warps
        .iter()
        .filter(|w| !w.done && !w.at_barrier && !w.blocked)
        .map(|w| w.ready_at)
        .min()
        .unwrap_or(u64::MAX)
}

/// Timing prediction for a translation that missed the core's L1 TLB:
/// the `SharedMemorySystem::translate` arithmetic, with the snapshot
/// probe standing in for the L2 TLB access and the core's
/// private DRAM view standing in for the shared channels.
fn predict_translate(shared: &SharedMemorySystem, dv: &mut DramView, va: u64, now: u64) -> u64 {
    let tm = shared.timings();
    let at_l2 = now + tm.l2_tlb_hit;
    if shared.l2_tlb().probe(va) {
        at_l2
    } else {
        dv.access((va >> 12) * 8, at_l2 + tm.walk)
    }
}

/// Timing prediction for a data transaction that missed the core's L1
/// Dcache (the `access_data` arithmetic against the snapshot).
fn predict_data(shared: &SharedMemorySystem, dv: &mut DramView, pa: u64, now: u64) -> u64 {
    let tm = shared.timings();
    let at_l2 = now + tm.l2_hit;
    if shared.l2().probe(pa) {
        at_l2
    } else {
        dv.access(pa, at_l2)
    }
}

/// Advances one core from `t0` to `t1`: the per-cycle issue loop,
/// restricted to core-local state + the snapshot.
fn advance_core(ctx: &PhaseCtx<'_, '_, '_, '_>, t0: u64, t1: u64, slot: &mut CoreSlot<'_, '_>) {
    let mut t = t0;
    while t < t1 {
        if slot.core.next_ready_at > t {
            if slot.core.next_ready_at >= t1 {
                break;
            }
            t = slot.core.next_ready_at;
            continue;
        }
        let mut issued = false;
        for _ in 0..ctx.m.cfg.issue_width {
            match slot.core.pick_warp(t) {
                Some(wi) => {
                    slot.core.last_issued = Some(wi);
                    exec_warp_phase(ctx, t, slot, wi);
                    slot.out.issued += 1;
                    issued = true;
                }
                None => {
                    slot.out.no_issue += 1;
                    slot.set_next_ready(recompute_next_ready(slot.core));
                    break;
                }
            }
        }
        if issued {
            slot.out.busy += 1;
        }
        t += 1;
    }
}

fn exec_ctx(ls: &LaunchState) -> ExecCtx<'_> {
    ExecCtx {
        args: &ls.launch.args,
        local_bases: &ls.launch.local_bases,
        block_dim: u64::from(ls.launch.launch.block),
        grid_dim: u64::from(ls.launch.launch.grid),
    }
}

/// Parks a warp on a serialized operation: frozen in place (pc not
/// advanced) until the drain re-derives and executes the instruction.
fn park_warp(out: &mut Outbox, t: u64, core: &mut Core, wi: usize) {
    let w = &mut core.warps[wi];
    w.ready_at = u64::MAX;
    push_ev(
        out,
        t,
        Ev::Parked {
            li: w.launch_idx as u32,
            wg: w.wg,
            win: w.warp_in_wg as u32,
        },
    );
}

/// Freezes a warp that triggered an abort verdict; the drain strips the
/// whole launch when (and only when) this event is first in canonical
/// order for that launch.
fn freeze_abort(
    out: &mut Outbox,
    t: u64,
    core: &mut Core,
    wi: usize,
    li: usize,
    reason: AbortReason,
) {
    let (wg, win) = {
        let w = &mut core.warps[wi];
        w.ready_at = u64::MAX;
        (w.wg, w.warp_in_wg as u32)
    };
    push_ev(
        out,
        t,
        Ev::Abort {
            li: li as u32,
            wg,
            win,
            reason,
        },
    );
}

fn exec_warp_phase(ctx: &PhaseCtx<'_, '_, '_, '_>, t: u64, slot: &mut CoreSlot<'_, '_>, wi: usize) {
    let (core, out) = (&mut *slot.core, &mut *slot.out);
    let li = core.warps[wi].launch_idx;
    let ls = &ctx.launches[li];
    match core.warps[wi].exec_simple(&ls.launch.kernel, &ls.recon, &exec_ctx(ls)) {
        SimpleOutcome::Done => {
            out.profile.alu_issues += 1;
            out.accs[li].instructions += 1;
            core.warps[wi].ready_at = t + ctx.m.cfg.alu_latency;
        }
        SimpleOutcome::Retired => {
            out.profile.alu_issues += 1;
            out.accs[li].instructions += 1;
            retire_warp_phase(ctx, t, core, out, wi);
        }
        SimpleOutcome::NeedsCore { pc, instr } => match instr {
            Instr::Bar => exec_barrier_phase(ctx, t, core, out, wi, li),
            Instr::Malloc { .. } | Instr::Free { .. } => park_warp(out, t, core, wi),
            Instr::Ld { .. } | Instr::St { .. } | Instr::AtomAdd { .. } => {
                exec_mem_phase(ctx, t, slot, wi, pc, instr);
            }
            _ => unreachable!("exec_simple handles all other instructions"),
        },
    }
}

fn retire_warp_phase(
    ctx: &PhaseCtx<'_, '_, '_, '_>,
    t: u64,
    core: &mut Core,
    out: &mut Outbox,
    wi: usize,
) {
    let (li, wg, win) = {
        let w = &core.warps[wi];
        (w.launch_idx, w.wg, w.warp_in_wg)
    };
    push_timeline(
        ctx,
        out,
        t,
        FlightEvent::Retire {
            core: ctx.core_idx as u16,
            wg: wg as u32,
            warp: win as u16,
        },
    );
    release_barrier_at(core, li, wg, t);
    let wg_done = core
        .warps
        .iter()
        .filter(|w| w.launch_idx == li && w.wg == wg)
        .all(|w| w.done);
    if wg_done {
        let freed_regs = ctx.launches[li].warps_per_wg
            * usize::from(ctx.launches[li].launch.kernel.num_regs())
            * ctx.m.cfg.warp_width;
        let freed_shared: u64 = core
            .wgs
            .iter()
            .filter(|g| g.launch_idx == li && g.wg == wg)
            .map(|g| g.shared.len() as u64)
            .sum();
        core.warps.retain(|w| !(w.launch_idx == li && w.wg == wg));
        core.wgs.retain(|g| !(g.launch_idx == li && g.wg == wg));
        core.last_issued = None;
        core.regs_used = core.regs_used.saturating_sub(freed_regs);
        core.shared_used = core.shared_used.saturating_sub(freed_shared);
        push_ev(out, t, Ev::Retired { li: li as u32 });
    }
}

fn exec_barrier_phase(
    ctx: &PhaseCtx<'_, '_, '_, '_>,
    t: u64,
    core: &mut Core,
    out: &mut Outbox,
    wi: usize,
    li: usize,
) {
    let (wg, win) = {
        let w = &mut core.warps[wi];
        w.at_barrier = true;
        w.advance_pc();
        (w.wg, w.warp_in_wg)
    };
    out.profile.barrier_issues += 1;
    out.accs[li].instructions += 1;
    push_timeline(
        ctx,
        out,
        t,
        FlightEvent::Barrier {
            core: ctx.core_idx as u16,
            wg: wg as u32,
            warp: win as u16,
        },
    );
    release_barrier_at(core, li, wg, t);
}

fn release_barrier_at(core: &mut Core, li: usize, wg: u64, t: u64) {
    let all_arrived = core
        .warps
        .iter()
        .filter(|w| w.launch_idx == li && w.wg == wg && !w.done)
        .all(|w| w.at_barrier);
    let any_waiting = core
        .warps
        .iter()
        .any(|w| w.launch_idx == li && w.wg == wg && w.at_barrier);
    if all_arrived && any_waiting {
        for w in core
            .warps
            .iter_mut()
            .filter(|w| w.launch_idx == li && w.wg == wg && w.at_barrier)
        {
            w.at_barrier = false;
            w.ready_at = t + 1;
        }
    }
}

/// The LSU pipeline for one warp-level memory instruction inside a phase.
/// Shared-memory accesses are entirely core-local and run to completion;
/// global loads/stores run the LSU front end against the (lock-free) VM
/// with snapshot-predicted timing; global atomics park for the drain.
fn exec_mem_phase(
    ctx: &PhaseCtx<'_, '_, '_, '_>,
    t: u64,
    slot: &mut CoreSlot<'_, '_>,
    wi: usize,
    site: Site,
    instr: Instr,
) {
    let CoreSlot {
        core,
        out,
        shard,
        dram_view,
        ..
    } = slot;
    let op = MemOp::decode(instr, site);
    if op.space == MemSpace::Shared {
        exec_shared_phase(ctx, t, core, out, wi, op);
        return;
    }
    if op.atomic {
        // Global read-modify-writes are serialized machine-wide; the
        // drain executes them in canonical order.
        park_warp(out, t, core, wi);
        return;
    }
    let li = core.warps[wi].launch_idx;
    let mut sink = PhaseSink {
        ctx,
        out,
        dram_view,
        li,
        site,
    };
    let (ls, shard) = (&ctx.launches[li], shard.as_deref_mut());
    if let Err(reason) = lsu_global(&mut sink, ctx.m, ctx.core_idx, ls, core, shard, t, wi, op) {
        freeze_abort(out, t, core, wi, li, reason);
    }
}

/// Where the LSU front end's effects land. The advance phase predicts
/// L2/DRAM timing from the quantum-start snapshot and buffers every
/// cross-core effect in the core's outbox ([`PhaseSink`]); the drain runs
/// a parked atomic against the real shared system and records directly
/// ([`DrainSink`]).
trait LsuSink {
    /// Ready cycle of a translation of `va` that missed the L1 TLB at `now`.
    fn xlate_miss(&mut self, va: u64, now: u64) -> u64;
    /// Completion cycle of a data transaction to `pa` that missed the L1
    /// Dcache at `now`.
    fn data_miss(&mut self, pa: u64, now: u64) -> u64;
    /// Records an in-run flight event, when the run keeps a ring.
    fn flight(&mut self, t: u64, ev: FlightEvent);
    /// Records a scheduling event, when the ring is a timeline.
    fn timeline(&mut self, t: u64, ev: FlightEvent);
    /// Widens the site's observed address range.
    fn observe(&mut self, range: (u64, u64));
    /// The launch's counter deltas and the run profile.
    fn counters(&mut self) -> (&mut LaunchAcc, &mut SimProfile);
    /// Records a visible bounds-check stall for the telemetry histogram.
    fn stall(&mut self, stall: u64);
}

/// The advance phase's [`LsuSink`]: snapshot timing, outbox buffering.
struct PhaseSink<'p, 'c, 'a, 'w, 'g, 'f> {
    ctx: &'p PhaseCtx<'a, 'w, 'g, 'f>,
    out: &'c mut Outbox,
    dram_view: &'c mut DramView,
    li: usize,
    site: Site,
}

impl LsuSink for PhaseSink<'_, '_, '_, '_, '_, '_> {
    fn xlate_miss(&mut self, va: u64, now: u64) -> u64 {
        push_ev(self.out, now, Ev::Xlate(va));
        predict_translate(self.ctx.shared, self.dram_view, va, now)
    }

    fn data_miss(&mut self, pa: u64, now: u64) -> u64 {
        push_ev(self.out, now, Ev::Data(pa));
        predict_data(self.ctx.shared, self.dram_view, pa, now)
    }

    fn flight(&mut self, t: u64, ev: FlightEvent) {
        if self.ctx.want_flight {
            push_ev(self.out, t, Ev::Flight(ev));
        }
    }

    fn timeline(&mut self, t: u64, ev: FlightEvent) {
        push_timeline(self.ctx, self.out, t, ev);
    }

    fn observe(&mut self, range: (u64, u64)) {
        widen(&mut self.out.observed, (self.li, self.site), range);
    }

    fn counters(&mut self) -> (&mut LaunchAcc, &mut SimProfile) {
        (&mut self.out.accs[self.li], &mut self.out.profile)
    }

    fn stall(&mut self, stall: u64) {
        self.out.stalls.push(stall);
    }
}

/// The drain's [`LsuSink`] for a parked atomic: the real shared system,
/// direct recording. The launch's counters and observed range are
/// collected here and folded into its state after the front end returns.
struct DrainSink<'d, 't> {
    shared: &'d mut SharedMemorySystem,
    feeds: &'d mut Feeds<'t>,
    profile: &'d mut SimProfile,
    acc: LaunchAcc,
    observed: Option<(u64, u64)>,
}

impl LsuSink for DrainSink<'_, '_> {
    fn xlate_miss(&mut self, va: u64, now: u64) -> u64 {
        self.shared.translate(va, now)
    }

    fn data_miss(&mut self, pa: u64, now: u64) -> u64 {
        self.shared.access_data(pa, now)
    }

    fn flight(&mut self, t: u64, ev: FlightEvent) {
        if let Some(f) = self.feeds.flight.as_mut() {
            f.record(t, ev);
        }
    }

    fn timeline(&mut self, t: u64, ev: FlightEvent) {
        if self.feeds.timeline {
            self.flight(t, ev);
        }
    }

    fn observe(&mut self, range: (u64, u64)) {
        self.observed = Some(range);
    }

    fn counters(&mut self) -> (&mut LaunchAcc, &mut SimProfile) {
        (&mut self.acc, self.profile)
    }

    fn stall(&mut self, stall: u64) {
        if let Some(te) = self.feeds.tele.as_mut() {
            te.reg.observe(te.visible_stall, stall);
        }
    }
}

/// The LSU front end for one global-memory warp instruction of launch
/// `ls`, shared by plain loads/stores in the advance phase and parked
/// atomics at the drain: the AGU's [`WarpLanes`](gpushield_mem::WarpLanes), the
/// translation pre-check, coalescing and per-transaction timing, fault
/// injection and the bounds check, the data path, then the timing
/// commit. Returns the cycle the warp is ready again, or the reason its
/// launch aborts; an aborting warp is left as it was, neither advanced
/// nor counted as issued.
#[allow(clippy::too_many_arguments)]
fn lsu_global(
    sink: &mut impl LsuSink,
    m: Machine<'_, '_, '_, '_>,
    core_idx: usize,
    ls: &LaunchState,
    core: &mut Core,
    shard: Option<&mut (dyn CoreGuard + Send + '_)>,
    t: u64,
    wi: usize,
    op: MemOp,
) -> Result<u64, AbortReason> {
    let Machine { cfg, vm, whole, .. } = m;
    let site = op.site;
    let Core {
        warps,
        l1d,
        l1tlb,
        lsu_busy_until,
        scratch,
        ..
    } = core;

    // ---- AGU: store values, per-lane addresses and their span -----------
    let mut vals: Row = [0; MAX_LANES];
    let ectx = exec_ctx(ls);
    let ptr = gather_lane_vas(&warps[wi], &op, &ectx, &mut vals, &mut scratch.lanes);
    let (lanes, span) = (&scratch.lanes, *scratch.lanes.span());

    // ---- Observed-range recording (before any verdict) ------------------
    if ls.observed.is_some() {
        if let Some(range) = span.range() {
            sink.observe(range);
        }
    }

    // ---- Translate + per-transaction timing -----------------------------
    let translation_fault = vm.first_lane_fault(lanes);
    coalesce_lanes_into(lanes, &mut scratch.txs);
    let start = t.max(*lsu_busy_until);
    let l1_done = start + cfg.timings.l1_hit;
    let mut done_at = l1_done;
    let mut all_l1_hit = true;
    for tx in &scratch.txs {
        let Ok(pa) = vm.translate_bypass(tx.base) else {
            continue;
        };
        let t_ready = if l1tlb.access(tx.base) {
            start
        } else {
            sink.xlate_miss(tx.base, start)
        };
        let tx_done = if l1d.access(pa) {
            l1_done.max(t_ready + 1)
        } else {
            all_l1_hit = false;
            sink.data_miss(pa, l1_done.max(t_ready))
        };
        done_at = done_at.max(tx_done);
    }

    // ---- Fault injection, then the bounds check -------------------------
    let (mut ptr, mut decision) = (ptr, ls.launch.plan.get(site));
    if let Some(fs) = m.fault {
        (ptr, decision) = inject_due_faults(fs, whole, vm, core_idx, t, (ptr, decision), |fe| {
            sink.flight(t, fe)
        });
    }
    let n_txs = scratch.txs.len();
    let mut stall = 0u64;
    let mut verdict = GuardVerdict::Allow;
    if shard.is_some() || whole.is_some() {
        if decision == SiteCheck::Static {
            let acc = sink.counters().0;
            acc.checks_skipped += 1;
            if ls.launch.plan.certified(site) {
                acc.checks_certified += 1;
            }
        } else if let Some(range) = span.range() {
            let access = MemAccess {
                core: core_idx,
                kernel_id: ls.launch.kernel_id,
                is_store: op.is_store,
                space: op.space,
                pointer: ptr,
                site,
                range,
                site_check: decision,
                transactions: n_txs,
                active_lanes: span.active(),
                l1d_all_hit: all_l1_hit,
            };
            let chk = guard_check(shard, whole, &access, vm);
            stall = chk.stall_cycles;
            verdict = chk.verdict;
            let (acc, profile) = sink.counters();
            profile.bcu_checks += 1;
            acc.checks_performed += 1;
            acc.stall_attribution.record(chk.path, chk.stall_cycles);
            let w = &warps[wi];
            sink.flight(
                t,
                FlightEvent::CheckVerdict {
                    kernel_id: ls.launch.kernel_id,
                    wg: w.wg as u32,
                    warp: w.warp_in_wg as u16,
                    block: site.0 .0,
                    idx: site.1 as u32,
                    path: chk.path.code(),
                    verdict: chk.verdict.code(),
                    is_store: op.is_store,
                    lo: range.0,
                    hi: range.1,
                },
            );
        }
    }

    // ---- Outcome --------------------------------------------------------
    let warp = &mut warps[wi];
    match verdict {
        GuardVerdict::Fault => return Err(AbortReason::BoundsViolation),
        GuardVerdict::Squash => {
            sink.counters().0.violations_squashed += 1;
            if let Some(d) = op.dst {
                warp.store_row(d, warp.active_mask(), &[0; MAX_LANES]);
            }
        }
        GuardVerdict::Allow => {
            let done = match translation_fault {
                Some(f) => Err(f),
                None => lane_data_path(vm, warp, lanes, op.dst, &vals, op.atomic),
            };
            done.map_err(AbortReason::MemFault)?;
        }
    }

    // ---- Timing commit --------------------------------------------------
    sink.timeline(
        t,
        FlightEvent::Mem {
            core: core_idx as u16,
            wg: warp.wg as u32,
            warp: warp.warp_in_wg as u16,
            space: mem_space_code(op.space),
            is_store: op.is_store,
            transactions: n_txs.min(255) as u8,
            stall: stall.min(255) as u8,
            block: site.0 .0,
            idx: site.1 as u32,
        },
    );
    // An atomic's lanes take their read-modify-write turns one by one.
    let serial = if op.atomic { span.active() as u64 } else { 0 };
    let n_txs = n_txs as u64;
    *lsu_busy_until = start + n_txs + stall + serial;
    let ready = done_at + stall + serial;
    warp.ready_at = ready;
    warp.advance_pc();
    sink.stall(stall);
    let (acc, profile) = sink.counters();
    profile.mem_issues += 1;
    profile.lsu_transactions += n_txs;
    profile.bcu_stall_cycles += stall;
    acc.instructions += 1;
    acc.mem_instructions += 1;
    acc.transactions += n_txs;
    acc.guard_stall_cycles += stall;
    Ok(ready)
}

/// Shared-memory access: on-chip, core-local, no VM, no bounds checking.
fn exec_shared_phase(
    ctx: &PhaseCtx<'_, '_, '_, '_>,
    t: u64,
    core: &mut Core,
    out: &mut Outbox,
    wi: usize,
    op: MemOp,
) {
    out.profile.shared_issues += 1;
    let li = core.warps[wi].launch_idx;
    let (wg, width_b, dst, is_atomic) = (core.warps[wi].wg, op.width, op.dst, op.atomic);
    let (mut vals, mut addrs): (Row, Row) = ([0; MAX_LANES], [0; MAX_LANES]);
    let ectx = exec_ctx(&ctx.launches[li]);
    agu(&core.warps[wi], &op, &ectx, &mut vals, &mut addrs);
    let store_vals = op.src.map(|_| &vals[..]);
    let start = t.max(core.lsu_busy_until);
    let done_at = start + ctx.m.cfg.timings.l1_hit;
    let wg_idx = core
        .wgs
        .iter()
        .position(|g| g.launch_idx == li && g.wg == wg)
        .expect("warp's workgroup is resident");
    let (wgs, warps) = (&mut core.wgs, &mut core.warps);
    let sh = &mut wgs[wg_idx].shared;
    let warp = &mut warps[wi];
    let n = sh.len() as u64;
    let mask = warp.active_mask();
    for (lane, &va) in addrs[..warp.width].iter().enumerate() {
        if mask >> lane & 1 == 0 {
            continue;
        }
        if n == 0 {
            // Kernel accessed shared memory without declaring any;
            // reads yield zero, writes are dropped.
            if let Some(d) = dst {
                warp.set_reg(d, lane, 0);
            }
            continue;
        }
        // Out-of-bounds shared accesses wrap inside the workgroup's
        // allocation (on-chip scratch is not protected by GPUShield;
        // Table 1 lists shared-memory overflow as possible).
        if is_atomic {
            // Decode always materialises an addend vector for atomics; a
            // missing one is treated as adding zero rather than a panic.
            let mut old_bytes = [0u8; 8];
            for i in 0..width_b {
                old_bytes[i as usize] = sh[((va + i) % n) as usize];
            }
            let old = u64::from_le_bytes(old_bytes);
            let add = store_vals.map_or(0, |vals| vals[lane]);
            let new_bytes = old.wrapping_add(add).to_le_bytes();
            for i in 0..width_b {
                sh[((va + i) % n) as usize] = new_bytes[i as usize];
            }
            if let Some(d) = dst {
                warp.set_reg(d, lane, old);
            }
            continue;
        }
        let mut bytes = [0u8; 8];
        for i in 0..width_b {
            let idx = ((va + i) % n) as usize;
            if let Some(vals) = store_vals {
                sh[idx] = vals[lane].to_le_bytes()[i as usize];
            } else {
                bytes[i as usize] = sh[idx];
            }
        }
        if let Some(d) = dst {
            warp.set_reg(d, lane, u64::from_le_bytes(bytes));
        }
    }
    core.lsu_busy_until = start + 1;
    let warp = &mut core.warps[wi];
    warp.ready_at = done_at;
    warp.advance_pc();
    let (wgid, win) = (warp.wg, warp.warp_in_wg);
    push_timeline(
        ctx,
        out,
        t,
        FlightEvent::Mem {
            core: ctx.core_idx as u16,
            wg: wgid as u32,
            warp: win as u16,
            space: mem_space_code(MemSpace::Shared),
            is_store: store_vals.is_some(),
            transactions: 1,
            stall: 0,
            block: NO_SITE,
            idx: 0,
        },
    );
    let acc = &mut out.accs[li];
    acc.instructions += 1;
    acc.mem_instructions += 1;
}

/// Runs `launches` to completion on the cycle-quantum engine under
/// `opts`. The engine behind [`Gpu::run_with`](super::Gpu::run_with).
pub(super) fn run_engine(
    cfg: &GpuConfig,
    vm: &mut VirtualMemorySpace,
    shared: &mut SharedMemorySystem,
    arena: &mut Arena,
    launches: &[KernelLaunch],
    mut guard: Option<&mut dyn MemGuard>,
    opts: RunOpts<'_>,
) -> Result<RunReport, RunError> {
    let RunOpts {
        mode,
        registry,
        flight,
        fault,
        observed_ranges,
    } = opts;
    let mut ls = build_launch_states(cfg, launches)?;
    if observed_ranges {
        for l in &mut ls {
            l.observed = Some(HashMap::new());
        }
    }
    let n = cfg.num_cores;
    let vm: &VirtualMemorySpace = vm;

    // A forkable guard runs sharded — even single-threaded — so the
    // per-core check sequences are the same for every worker count. A
    // non-forkable guard, or one a fault session corrupts, is shared
    // whole behind a mutex and forces one worker, which keeps its global
    // check order (and the session's access counter) canonical.
    let (forked, whole) = match guard.as_deref_mut() {
        Some(g) if fault.is_none() && g.supports_fork(n) => (
            Some(
                g.fork_cores(n)
                    .expect("supports_fork implies fork_cores succeeds"),
            ),
            None,
        ),
        Some(g) => (None, Some(Mutex::new(g))),
        None => (None, None),
    };
    let fault = fault.map(Mutex::new);
    // More workers than host threads only adds spin-barrier contention;
    // the report is the same at any worker count.
    let workers = if whole.is_some() || fault.is_some() {
        1
    } else {
        cfg.sim_threads
            .min(gpushield_runtime::available_parallelism())
            .clamp(1, n)
    };

    arena.reset(cfg, launches.len());
    let Arena {
        cores,
        outs,
        dram_views,
        wake,
        due,
        used,
        keys,
    } = arena;
    let (wake, due): (&[AtomicU64], &[AtomicUsize]) = (wake, due);
    let mut forked = forked.map(Vec::into_iter);
    let slots: Vec<Mutex<CoreSlot<'_, '_>>> = cores
        .iter_mut()
        .zip(outs.iter_mut())
        .zip(dram_views.iter_mut())
        .zip(wake)
        .map(|(((core, out), dram_view), wake)| {
            Mutex::new(CoreSlot {
                core,
                out,
                shard: forked.as_mut().and_then(Iterator::next),
                dram_view,
                wake,
            })
        })
        .collect();
    drop(forked); // exhausted now; ends its borrow of the guard
    let launches_lk = RwLock::new(ls);
    let shared_lk = RwLock::new(&mut *shared);
    let t0a = AtomicU64::new(0);
    let t1a = AtomicU64::new(0);
    let due_len = AtomicUsize::new(0);
    let claim = AtomicUsize::new(0);
    let m = Machine {
        cfg,
        vm,
        whole: whole.as_ref(),
        fault: fault.as_ref(),
    };
    let want_flight = flight.is_some();
    let want_timeline = flight.as_ref().is_some_and(|f| f.records_timeline());

    let work = |_w: usize| {
        let t0 = t0a.load(Ordering::Relaxed);
        let t1 = t1a.load(Ordering::Relaxed);
        let len = due_len.load(Ordering::Relaxed);
        loop {
            let k = claim.fetch_add(1, Ordering::Relaxed);
            if k >= len {
                break;
            }
            let i = due[k].load(Ordering::Relaxed);
            let mut slot = lock_ok(slots[i].lock());
            let lr = lock_ok(launches_lk.read());
            let sr = lock_ok(shared_lk.read());
            // DRAM only changes at the drain, so the view taken here is
            // the quantum-start state for the whole phase.
            sr.dram().refresh_view(slot.dram_view);
            let ctx = PhaseCtx {
                m,
                launches: &lr,
                shared: &sr,
                core_idx: i,
                want_flight,
                want_timeline,
            };
            advance_core(&ctx, t0, t1, &mut slot);
        }
    };

    let driver = |ctl: &gpushield_runtime::CrewCtl| -> Result<(u64, SimProfile), RunError> {
        let mut cycle: u64 = 0;
        let mut age_seq: u64 = 0;
        let mut rr_cursor: usize = 0;
        let mut profile = SimProfile::default();
        let mut heaps: HashMap<u64, HeapRun> = HashMap::new();
        let mut quanta: u64 = 0;
        let mut busy_totals = vec![0u64; n];
        let mut max_skew: u64 = 0;
        let mut feeds = Feeds {
            tele: registry
                .filter(|reg| reg.enabled())
                .map(|reg| Tele::new(reg, n)),
            flight,
            timeline: want_timeline,
        };
        loop {
            if cycle >= cfg.max_cycles {
                if let Some(f) = feeds.flight.as_mut() {
                    f.record(
                        cycle,
                        FlightEvent::WatchdogTrip {
                            budget: cfg.max_cycles,
                        },
                    );
                }
                return Err(RunError::CycleBudgetExceeded {
                    cycle,
                    budget: cfg.max_cycles,
                });
            }
            {
                let mut lw = lock_ok(launches_lk.write());
                try_dispatch(
                    cfg,
                    &slots,
                    &mut lw,
                    mode,
                    cycle,
                    &mut age_seq,
                    &mut rr_cursor,
                    used,
                    feeds.flight.as_deref_mut().filter(|_| want_timeline),
                );
                if lw.iter().all(|l| l.finished()) {
                    break;
                }
            }
            sample_occupancy(&mut feeds.tele, cycle, &slots, used);
            let t1 = cycle.saturating_add(QUANTUM).min(cfg.max_cycles);
            let len = list_due(wake, due, t1);
            t0a.store(cycle, Ordering::Relaxed);
            t1a.store(t1, Ordering::Relaxed);
            due_len.store(len, Ordering::Relaxed);
            claim.store(0, Ordering::Relaxed);
            ctl.round();
            quanta += 1;
            let issued = drain(
                m,
                &slots,
                &due[..len],
                used,
                &launches_lk,
                &shared_lk,
                &mut heaps,
                &mut profile,
                &mut feeds,
                keys,
                &mut busy_totals,
                &mut max_skew,
            )?;
            if lock_ok(launches_lk.read()).iter().all(|l| l.finished()) {
                break;
            }
            if issued > 0 {
                cycle = t1;
            } else {
                profile.idle_skips += 1;
                // Event skip: jump to the next cycle anything becomes ready.
                // Blocked warps (exhausted heap) never wake; warps at a
                // barrier wake only through peers, which issue first.
                let mut next: Option<u64> = None;
                let mut alloc_blocked = false;
                {
                    let lr = lock_ok(launches_lk.read());
                    for slot in used_slots(&slots, used) {
                        let s = lock_ok(slot.lock());
                        for w in &s.core.warps {
                            if w.done || lr[w.launch_idx].aborted {
                                continue;
                            }
                            if w.blocked {
                                alloc_blocked = true;
                                continue;
                            }
                            if w.at_barrier || w.ready_at == u64::MAX {
                                continue;
                            }
                            next = Some(next.map_or(w.ready_at, |m| m.min(w.ready_at)));
                        }
                    }
                }
                match next {
                    Some(nr) => {
                        // Clamp to the watchdog budget so the error reports
                        // the budget cycle, not a far-future wakeup.
                        let target = nr.max(t1).min(cfg.max_cycles);
                        if let Some(t) = feeds.tele.as_mut() {
                            t.reg.add(t.idle_skip_cycles, target - cycle);
                        }
                        cycle = target;
                    }
                    None => {
                        if alloc_blocked {
                            return Err(RunError::HeapDeadlock { cycle });
                        }
                        return Err(RunError::BarrierDeadlock { cycle });
                    }
                }
            }
        }
        let final_cycles = lock_ok(launches_lk.read())
            .iter()
            .map(|l| l.report.end_cycle)
            .max()
            .unwrap_or(0);
        if let Some(t) = feeds.tele.as_mut() {
            t.reg.add(t.quantum_count, quanta);
            t.reg.set(t.max_skew, max_skew);
            for (id, busy) in t.busy.iter().zip(&busy_totals) {
                t.reg.set(*id, *busy);
            }
        }
        Ok((final_cycles, profile))
    };

    let crew_result = with_crew(workers, work, driver);

    let _ = whole; // end the serialized-guard borrow before merging forks
    let mut l1d = gpushield_mem::CacheStats::default();
    let mut l1tlb = gpushield_mem::CacheStats::default();
    for slot in slots {
        let s = lock_ok(slot.into_inner());
        let cs = s.core.l1d.stats();
        l1d.hits += cs.hits;
        l1d.misses += cs.misses;
        l1d.evictions += cs.evictions;
        let ts = s.core.l1tlb.stats();
        l1tlb.hits += ts.hits;
        l1tlb.misses += ts.misses;
        l1tlb.evictions += ts.evictions;
    }
    if let Some(g) = guard {
        g.merge_forked();
    }
    let (final_cycles, mut profile) = crew_result?;
    let ls = lock_ok(launches_lk.into_inner());
    let _ = shared_lk; // end the shared-system borrow before reading stats
    let dram = shared.dram_stats();
    profile.dram_accesses = dram.requests;
    Ok(RunReport {
        cycles: final_cycles,
        launches: ls.into_iter().map(LaunchState::into_report).collect(),
        l1d,
        l1_tlb: l1tlb,
        l2: shared.l2_stats(),
        l2_tlb: shared.l2_tlb_stats(),
        dram,
        profile,
    })
}

impl LaunchState {
    /// The launch's report, with its observed ranges sorted by site.
    fn into_report(self) -> LaunchReport {
        let mut report = self.report;
        if let Some(obs) = self.observed {
            report.observed_ranges = obs
                .into_iter()
                .map(|(site, (lo, hi))| ObservedRange { site, lo, hi })
                .collect();
            report.observed_ranges.sort_unstable_by_key(|r| r.site);
        }
        report
    }
}

/// Lists in `due`, in ascending order, the cores whose next ready cycle
/// lies before the quantum end `t1` — the only ones that can issue in
/// the quantum — and returns how many there are.
fn list_due(wake: &[AtomicU64], due: &[AtomicUsize], t1: u64) -> usize {
    let mut len = 0;
    for (i, w) in wake.iter().enumerate() {
        if w.load(Ordering::Relaxed) < t1 {
            due[len].store(i, Ordering::Relaxed);
            len += 1;
        }
    }
    len
}

/// The slots of the cores dispatched to in this run: every other core
/// holds no warp.
fn used_slots<'s, 'a, 'g>(
    slots: &'s [Mutex<CoreSlot<'a, 'g>>],
    used: &'s [bool],
) -> impl Iterator<Item = &'s Mutex<CoreSlot<'a, 'g>>> {
    slots.iter().zip(used).filter(|(_, &u)| u).map(|(s, _)| s)
}

fn launch_allowed_on_core(
    cfg: &GpuConfig,
    mode: MultiKernelMode,
    n_launches: usize,
    launch_idx: usize,
    core_idx: usize,
) -> bool {
    match mode {
        MultiKernelMode::IntraCore => true,
        MultiKernelMode::InterCore => {
            let per = cfg.num_cores.div_ceil(n_launches);
            core_idx / per == launch_idx.min(cfg.num_cores / per)
        }
    }
}

/// Round-robin workgroup dispatch at a quantum boundary, run serially by
/// the driver thread. Workgroups spread across cores (at most one new
/// workgroup per core per round), as real dispatchers balance occupancy
/// instead of packing one SM full first.
#[allow(clippy::too_many_arguments)]
fn try_dispatch(
    cfg: &GpuConfig,
    slots: &[Mutex<CoreSlot<'_, '_>>],
    lw: &mut [LaunchState],
    mode: MultiKernelMode,
    cycle: u64,
    age_seq: &mut u64,
    rr_cursor: &mut usize,
    used: &mut [bool],
    mut timeline: Option<&mut FlightRecorder>,
) {
    // Fast path: nothing left to place.
    if lw
        .iter()
        .all(|l| l.aborted || l.next_wg >= u64::from(l.launch.launch.grid))
    {
        return;
    }
    loop {
        let mut any = false;
        for (core_idx, used) in used.iter_mut().enumerate() {
            let nl = lw.len();
            for k in 0..nl {
                let li = (*rr_cursor + k) % nl;
                if lw[li].aborted
                    || lw[li].next_wg >= u64::from(lw[li].launch.launch.grid)
                    || !launch_allowed_on_core(cfg, mode, nl, li, core_idx)
                {
                    continue;
                }
                let tl = timeline.as_deref_mut();
                if dispatch_wg(cfg, slots, lw, cycle, age_seq, tl, core_idx, li) {
                    *used = true;
                    *rr_cursor = (li + 1) % nl;
                    any = true;
                    break;
                }
            }
        }
        if !any {
            break;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch_wg(
    cfg: &GpuConfig,
    slots: &[Mutex<CoreSlot<'_, '_>>],
    lw: &mut [LaunchState],
    cycle: u64,
    age_seq: &mut u64,
    timeline: Option<&mut FlightRecorder>,
    core_idx: usize,
    li: usize,
) -> bool {
    let needed_warps = lw[li].warps_per_wg;
    let (num_regs, shared_bytes) = {
        let k = &lw[li].launch.kernel;
        (k.num_regs(), k.shared_bytes())
    };
    let regs_needed = needed_warps * usize::from(num_regs) * cfg.warp_width;
    let mut slot = lock_ok(slots[core_idx].lock());
    let core = &mut slot.core;
    debug_assert_eq!(core.regs_used, core.regs_in_use(lw));
    debug_assert_eq!(core.shared_used, core.shared_in_use());
    if core.resident_warps() + needed_warps > cfg.max_warps_per_core()
        || core.regs_used + regs_needed > cfg.regs_per_core
        || core.shared_used + shared_bytes > cfg.shared_per_core
    {
        return false;
    }
    let lstate = &mut lw[li];
    let wg = lstate.next_wg;
    lstate.next_wg += 1;
    if let Some(f) = timeline {
        f.record(
            cycle,
            FlightEvent::Dispatch {
                core: core_idx as u16,
                wg: wg as u32,
            },
        );
    }
    if lstate.report.start_cycle == 0 && lstate.report.instructions == 0 {
        lstate.report.start_cycle = cycle;
    }
    let block = lstate.launch.launch.block as usize;
    core.wgs.push(ResidentWg {
        launch_idx: li,
        wg,
        shared: vec![0u8; shared_bytes as usize],
    });
    core.regs_used += regs_needed;
    core.shared_used += shared_bytes;
    for w in 0..needed_warps {
        let lanes = (block - w * cfg.warp_width).min(cfg.warp_width);
        let mut warp = Warp::new(li, wg, w, cfg.warp_width, lanes, num_regs, *age_seq);
        warp.ready_at = cycle;
        *age_seq += 1;
        core.warps.push(warp);
    }
    debug_assert!(core.warps_age_ordered());
    let next_ready = core.next_ready_at.min(cycle);
    slot.set_next_ready(next_ready);
    true
}

/// Samples the occupancy time series at a quantum boundary on
/// stride-bucket crossings. The event skip jumps the cycle counter, so
/// sampling keys on "has the cycle reached the next stride boundary"
/// rather than exact cycle equality — one point per crossed bucket,
/// deterministic in simulated time.
fn sample_occupancy(
    tele: &mut Option<Tele<'_>>,
    cycle: u64,
    slots: &[Mutex<CoreSlot<'_, '_>>],
    used: &[bool],
) {
    let Some(t) = tele.as_mut() else {
        return;
    };
    if cycle < t.next_sample {
        return;
    }
    let stride = t.reg.stride();
    t.next_sample = (cycle / stride + 1) * stride;
    let mut resident = 0u64;
    let mut ready = 0u64;
    for slot in used_slots(slots, used) {
        let s = lock_ok(slot.lock());
        for w in &s.core.warps {
            if w.done {
                continue;
            }
            resident += 1;
            if !w.at_barrier && !w.blocked && w.ready_at <= cycle {
                ready += 1;
            }
        }
    }
    t.reg.sample(t.resident_warps, cycle, resident);
    t.reg.sample(t.ready_warps, cycle, ready);
}

/// The quantum drain, run serially by the driver thread. Pass 1 collects
/// the outbox of every `due` core — the ones that advanced — (counters
/// merge in core order, observed ranges by min/max; events gain their
/// core in the sort key); pass 2 replays the events against the real
/// shared system in canonical `(t, core, seq)` order. Returns the number
/// of instructions issued across the quantum.
#[allow(clippy::too_many_arguments)]
fn drain(
    m: Machine<'_, '_, '_, '_>,
    slots: &[Mutex<CoreSlot<'_, '_>>],
    due: &[AtomicUsize],
    used: &[bool],
    launches_lk: &RwLock<Vec<LaunchState>>,
    shared_lk: &RwLock<&mut SharedMemorySystem>,
    heaps: &mut HashMap<u64, HeapRun>,
    profile: &mut SimProfile,
    feeds: &mut Feeds<'_>,
    keys: &mut Vec<DrainKey>,
    busy_totals: &mut [u64],
    max_skew: &mut u64,
) -> Result<u64, RunError> {
    keys.clear();
    let mut issued_total = 0u64;
    let (mut busy_min, mut busy_max) = (u64::MAX, 0u64);
    if due.len() < slots.len() {
        // A core that did not advance was busy for zero cycles.
        busy_min = 0;
    }
    {
        let mut lw = lock_ok(launches_lk.write());
        for ci in due.iter().map(|c| c.load(Ordering::Relaxed)) {
            let mut s = lock_ok(slots[ci].lock());
            let out = &mut *s.out;
            for q in out.evs.drain(..) {
                keys.push(DrainKey {
                    t: q.t,
                    core: ci as u32,
                    seq: q.seq,
                    ev: q.ev,
                });
            }
            out.seq = 0;
            profile.merge(&out.profile);
            out.profile = SimProfile::default();
            for (li, acc) in out.accs.iter_mut().enumerate() {
                acc.drain_into(&mut lw[li].report);
            }
            for ((li, site), range) in out.observed.drain() {
                if let Some(obs) = lw[li].observed.as_mut() {
                    widen(obs, site, range);
                }
            }
            if let Some(t) = feeds.tele.as_mut() {
                t.reg.add(t.no_issue_slots, out.no_issue);
                for &st in &out.stalls {
                    t.reg.observe(t.visible_stall, st);
                }
            }
            out.no_issue = 0;
            out.stalls.clear();
            issued_total += out.issued;
            busy_totals[ci] += out.busy;
            busy_min = busy_min.min(out.busy);
            busy_max = busy_max.max(out.busy);
            out.issued = 0;
            out.busy = 0;
        }
    }
    if busy_max > busy_min {
        *max_skew = (*max_skew).max(busy_max - busy_min);
    }
    keys.sort_unstable_by_key(|k| (k.t, k.core, k.seq));

    {
        let mut lw = lock_ok(launches_lk.write());
        let mut sw = lock_ok(shared_lk.write());
        let shared: &mut SharedMemorySystem = &mut sw;
        for k in keys.iter() {
            match k.ev {
                Ev::Data(pa) => {
                    shared.access_data(pa, k.t);
                }
                Ev::Xlate(va) => {
                    shared.translate(va, k.t);
                }
                Ev::Flight(fe) => {
                    if let Some(f) = feeds.flight.as_mut() {
                        f.record(k.t, fe);
                    }
                }
                Ev::Retired { li } => {
                    let li = li as usize;
                    let lstate = &mut lw[li];
                    lstate.wgs_retired += 1;
                    if lstate.finished() {
                        lstate.report.end_cycle = k.t;
                        let kid = lstate.launch.kernel_id;
                        if let Some(f) = feeds.flight.as_mut() {
                            f.record(k.t, FlightEvent::KernelComplete { kernel_id: kid });
                        }
                        guard_kernel_end(slots, m.whole, kid);
                    }
                }
                Ev::Abort {
                    li,
                    wg,
                    win,
                    reason,
                } => {
                    let li = li as usize;
                    if !lw[li].aborted {
                        apply_abort(
                            slots,
                            used,
                            &mut lw,
                            feeds,
                            m.whole,
                            li,
                            wg,
                            win as usize,
                            reason,
                            k.t,
                        );
                    }
                }
                Ev::Parked { li, wg, win } => {
                    let pending = drain_parked(
                        m,
                        slots,
                        &mut lw,
                        shared,
                        heaps,
                        profile,
                        feeds,
                        k.t,
                        k.core as usize,
                        li as usize,
                        wg,
                        win as usize,
                    )?;
                    if let Some(req) = pending {
                        if !lw[req.li].aborted {
                            apply_abort(
                                slots, used, &mut lw, feeds, m.whole, req.li, req.wg, req.win,
                                req.reason, k.t,
                            );
                        }
                    }
                }
            }
        }
    }

    Ok(issued_total)
}

/// A launch abort requested from inside a drain handler, applied after
/// the slot lock drops. Carries the guilty warp's identity so the flight
/// recorder can attribute the abort.
struct AbortReq {
    li: usize,
    wg: u64,
    win: usize,
    reason: AbortReason,
}

/// Executes a parked serialized operation at the drain. The warp is
/// re-found by its stable `(launch, wg, warp-in-wg)` identity (indices
/// shift when workgroups retire); a missing warp means its launch aborted
/// earlier in canonical order and the park is moot. Returns a pending
/// abort request to apply after the slot lock drops.
#[allow(clippy::too_many_arguments)]
fn drain_parked(
    m: Machine<'_, '_, '_, '_>,
    slots: &[Mutex<CoreSlot<'_, '_>>],
    lw: &mut [LaunchState],
    shared: &mut SharedMemorySystem,
    heaps: &mut HashMap<u64, HeapRun>,
    profile: &mut SimProfile,
    feeds: &mut Feeds<'_>,
    t: u64,
    ci: usize,
    li: usize,
    wg: u64,
    win: usize,
) -> Result<Option<AbortReq>, RunError> {
    let mut slot = lock_ok(slots[ci].lock());
    let sl = &mut *slot;
    let Some(wi) = sl
        .core
        .warps
        .iter()
        .position(|w| w.launch_idx == li && w.wg == wg && w.warp_in_wg == win && !w.done)
    else {
        return Ok(None);
    };
    let Some(pc) = sl.core.warps[wi].pc() else {
        return Ok(None);
    };
    let instr = lw[li].launch.kernel.block(pc.0).instrs()[pc.1];
    match instr {
        Instr::Malloc { dst, size } => {
            drain_malloc(m.cfg, sl, lw, heaps, profile, t, wi, li, Some(dst), size)?;
            Ok(None)
        }
        Instr::Free { .. } => {
            drain_malloc(
                m.cfg,
                sl,
                lw,
                heaps,
                profile,
                t,
                wi,
                li,
                None,
                Operand::Imm(0),
            )?;
            Ok(None)
        }
        Instr::AtomAdd { .. } => {
            // A global atomic runs the LSU front end at its park's issue
            // cycle against the *real* shared memory system: canonical
            // order makes the read-modify-write sequence and its timing
            // identical for every worker count.
            let mut sink = DrainSink {
                shared,
                feeds,
                profile,
                acc: LaunchAcc::default(),
                observed: None,
            };
            let (op, shard) = (MemOp::decode(instr, pc), sl.shard.as_deref_mut());
            let done = lsu_global(&mut sink, m, ci, &lw[li], sl.core, shard, t, wi, op);
            sink.acc.drain_into(&mut lw[li].report);
            if let (Some(obs), Some(range)) = (lw[li].observed.as_mut(), sink.observed) {
                widen(obs, pc, range);
            }
            let ready = match done {
                Ok(ready) => ready,
                Err(reason) => {
                    return Ok(Some(AbortReq {
                        li,
                        wg,
                        win,
                        reason,
                    }))
                }
            };
            let next_ready = sl.core.next_ready_at.min(ready);
            sl.set_next_ready(next_ready);
            Ok(None)
        }
        _ => unreachable!("only malloc/free/global atomics park"),
    }
}

/// Device-heap `malloc`/`free` at the drain, at the park's issue cycle,
/// against the (driver-owned) global heap cursor map.
#[allow(clippy::too_many_arguments)]
fn drain_malloc(
    cfg: &GpuConfig,
    sl: &mut CoreSlot<'_, '_>,
    lw: &mut [LaunchState],
    heaps: &mut HashMap<u64, HeapRun>,
    profile: &mut SimProfile,
    t: u64,
    wi: usize,
    li: usize,
    dst: Option<VReg>,
    size: Operand,
) -> Result<(), RunError> {
    let heap = match lw[li].launch.heap {
        Some(h) => h,
        None => {
            return Err(RunError::NoHeap {
                kernel: lw[li].launch.kernel.name().to_string(),
            })
        }
    };
    let core = &mut sl.core;
    let mut scratch = std::mem::take(&mut core.scratch);
    {
        let ctx = exec_ctx(&lw[li]);
        let warp = &core.warps[wi];
        let mut sizes: Row = [0; MAX_LANES];
        warp.load_row(size, &ctx, &mut sizes);
        scratch.lane_sizes.clear();
        scratch.lane_sizes.extend(warp.active_lanes(&sizes));
    }
    let entry = heaps.entry(heap.tagged_base.va()).or_default();
    let mut done_at = t;
    let mut exhausted = false;
    scratch.results.clear();
    scratch.results.resize(scratch.lane_sizes.len(), None);
    for (lane, sz) in scratch.lane_sizes.iter().enumerate() {
        let Some(sz) = sz else { continue };
        // The device allocator is a serialized global resource: each
        // lane's request takes its turn (§5.2.1 footnote 2).
        let start = entry.lock_until.max(t);
        entry.lock_until = start + cfg.heap_alloc_cycles;
        done_at = done_at.max(entry.lock_until);
        if dst.is_some() {
            let aligned = sz.div_ceil(16).max(1) * 16;
            if entry.cursor + aligned <= heap.size {
                let ptr = heap.tagged_base.raw() + entry.cursor;
                entry.cursor += aligned;
                scratch.results[lane] = Some(ptr);
            } else if cfg.malloc_blocks_on_exhaustion {
                exhausted = true;
                break;
            } else {
                scratch.results[lane] = Some(0); // CUDA malloc returns NULL
            }
        }
    }
    if exhausted {
        let warp = &mut core.warps[wi];
        warp.blocked = true;
        warp.ready_at = t;
        core.scratch = scratch;
        profile.malloc_issues += 1;
        lw[li].report.instructions += 1;
        return Ok(());
    }
    let warp = &mut core.warps[wi];
    if let Some(dst) = dst {
        for (lane, r) in scratch.results.iter().enumerate() {
            if let Some(v) = r {
                warp.set_reg(dst, lane, *v);
            }
        }
    }
    warp.ready_at = done_at;
    warp.advance_pc();
    core.scratch = scratch;
    let next_ready = core.next_ready_at.min(done_at);
    sl.set_next_ready(next_ready);
    profile.malloc_issues += 1;
    lw[li].report.instructions += 1;
    Ok(())
}

/// Strips an aborting launch from the whole machine at the drain, at the
/// abort's issue cycle. Only the canonically-first abort event per launch
/// gets here.
#[allow(clippy::too_many_arguments)]
fn apply_abort(
    slots: &[Mutex<CoreSlot<'_, '_>>],
    used: &[bool],
    lw: &mut [LaunchState],
    feeds: &mut Feeds<'_>,
    whole: Option<&WholeGuard<'_, '_>>,
    li: usize,
    wg: u64,
    win: usize,
    reason: AbortReason,
    t: u64,
) {
    let kernel_id = {
        let lstate = &mut lw[li];
        lstate.aborted = true;
        lstate.report.abort = Some(reason);
        lstate.report.end_cycle = t;
        lstate.launch.kernel_id
    };
    if let Some(f) = feeds.flight.as_mut() {
        f.record(
            t,
            FlightEvent::KernelAbort {
                kernel_id,
                wg: wg as u32,
                warp: win as u16,
                reason: reason.code(),
            },
        );
    }
    for slot in used_slots(slots, used) {
        let mut s = lock_ok(slot.lock());
        let core = &mut s.core;
        core.warps.retain(|w| w.launch_idx != li);
        core.wgs.retain(|g| g.launch_idx != li);
        core.last_issued = None;
        core.regs_used = core.regs_in_use(lw);
        core.shared_used = core.shared_in_use();
        let next_ready = recompute_next_ready(core);
        s.set_next_ready(next_ready);
    }
    guard_kernel_end(slots, whole, kernel_id);
}

/// RCache flush on kernel end: every shard (core order) plus the whole
/// guard when running unsharded.
fn guard_kernel_end(
    slots: &[Mutex<CoreSlot<'_, '_>>],
    whole: Option<&WholeGuard<'_, '_>>,
    kernel_id: u16,
) {
    for slot in slots {
        let mut s = lock_ok(slot.lock());
        if let Some(sh) = s.shard.as_deref_mut() {
            sh.on_kernel_end(kernel_id);
        }
    }
    if let Some(m) = whole {
        lock_ok(m.lock()).on_kernel_end(kernel_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_entries_stay_small() {
        // Every L1 miss, TLB miss and in-run flight event is buffered,
        // sorted and replayed through these; with one recorder variant
        // they stay at the size of a `FlightEvent` plus the sort key.
        assert_eq!(std::mem::size_of::<Ev>(), 40);
        assert_eq!(std::mem::size_of::<QEv>(), 56);
        assert_eq!(std::mem::size_of::<DrainKey>(), 56);
    }
}
