//! Multi-pass static kernel verifier.
//!
//! The bounds analysis of [`crate::analyze`] answers one question — *can
//! this access leave its region?* — but a kernel can be memory-safe and
//! still wrong: reading registers never written on some path, synchronising
//! under thread-dependent control flow (barrier divergence hangs real
//! GPUs), or racing on shared memory between barriers. This module is a
//! small pass framework that runs a fixed set of such checks over a kernel
//! and returns structured, machine-readable [`Diagnostic`]s.
//!
//! Passes are pure functions of a [`PassContext`] (kernel + launch
//! knowledge + precomputed CFG, dominator trees and the bounds analysis's
//! [`SiteFacts`], whose interval fixpoint runs once per verify). The
//! [`PassManager`] owns the pass list and aggregates results into a
//! [`VerifyReport`] that also carries the per-kernel Type 1/2/3 check
//! breakdown of paper Fig. 16, so one sweep over the workload registry
//! yields both the safety findings and the static-analysis coverage table.
//!
//! Soundness stance, per pass:
//!
//! * **defuse** — may only *under*-report (a register the analysis thinks
//!   is assigned on every path really is); hardware zeroes registers, so
//!   findings are warnings, not errors.
//! * **divergence** — over-approximates thread-dependence (taint), so
//!   every genuinely divergent barrier is reported; uniform branches can
//!   be misclassified tainted but never vice versa.
//! * **race** — over-approximates the set of addresses a thread can touch
//!   (affine-in-tid abstraction with interval coefficients); a reported
//!   absence of diagnostics is a proof, a reported race may be a false
//!   positive.
//! * **elide** — reports sites whose runtime check is provably redundant;
//!   purely informational (severity [`Severity::Info`]).

mod defuse;
mod divergence;
mod elide;
mod race;

pub use defuse::DefBeforeUsePass;
pub use divergence::BarrierDivergencePass;
pub use elide::RedundantCheckPass;
pub use race::SharedRacePass;

use crate::analysis::LaunchKnowledge;
use crate::bat::{classify, site_facts, AnalysisConfig, SiteFacts};
use gpushield_isa::{BlockId, Cfg, Kernel};
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: an optimisation opportunity or a benign observation.
    Info,
    /// Suspicious but defined behaviour (e.g. reading a never-written
    /// register, which hardware zeroes).
    Warning,
    /// A defect: divergent barrier, shared-memory race, or similar.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One structured finding of a verifier pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable identifier of the emitting pass (e.g. `"race"`).
    pub pass: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Kernel the finding is in.
    pub kernel: String,
    /// Basic block, when the finding has a location.
    pub block: Option<BlockId>,
    /// Instruction index within the block, when applicable.
    pub pc: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// `bbN:M`-style location, or `-` when the finding is kernel-wide.
    pub fn location(&self) -> String {
        match (self.block, self.pc) {
            (Some(b), Some(pc)) => format!("{b}:{pc}"),
            (Some(b), None) => format!("{b}"),
            _ => "-".to_string(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} {}: {}",
            self.severity,
            self.kernel,
            self.location(),
            self.pass,
            self.message
        )
    }
}

/// Everything a pass may look at: the kernel, the launch-time knowledge the
/// driver would have, and shared precomputed structure.
pub struct PassContext<'a> {
    /// The kernel under verification.
    pub kernel: &'a Kernel,
    /// Launch-time knowledge (argument sizes, geometry).
    pub know: &'a LaunchKnowledge,
    /// The kernel's CFG.
    pub cfg: &'a Cfg,
    /// Immediate forward dominators (entry/unreachable → `None`).
    pub idoms: &'a [Option<BlockId>],
    /// Immediate post-dominators (`None` = only the virtual exit).
    pub ipdoms: &'a [Option<BlockId>],
    /// The bounds analysis's interval fixpoint and resolved sites, shared
    /// by every pass and the check breakdown.
    pub facts: &'a SiteFacts,
}

/// One verifier pass.
pub trait Pass {
    /// Stable pass identifier used in [`Diagnostic::pass`].
    fn id(&self) -> &'static str;
    /// Runs the pass and returns its findings.
    fn run(&self, ctx: &PassContext<'_>) -> Vec<Diagnostic>;
}

/// Per-kernel check-site classification (the quantities of paper Fig. 16),
/// as produced by the bounds analysis this verifier audits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckBreakdown {
    /// Type 1: statically proven, check elided.
    pub type1: usize,
    /// Type 2: runtime RBT/BCU check.
    pub type2: usize,
    /// Type 3: size-embedded power-of-two check.
    pub type3: usize,
    /// Additional Type 2 sites the redundant-check pass could upgrade to
    /// Type 1 (subset of `type2`).
    pub elidable: usize,
}

/// Aggregated result of verifying one kernel.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Kernel name.
    pub kernel: String,
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// The kernel's Type 1/2/3 check-site breakdown.
    pub breakdown: CheckBreakdown,
}

impl VerifyReport {
    /// The most severe finding, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Findings at `severity` or above.
    pub fn at_least(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity >= severity)
    }
}

/// Runs a pass pipeline over kernels.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// A manager with no passes; add them with [`PassManager::add`].
    pub fn empty() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// The default pipeline: def-before-use, barrier divergence,
    /// shared-memory races, redundant-check elision.
    pub fn with_default_passes() -> Self {
        let mut m = PassManager::empty();
        m.add(Box::new(DefBeforeUsePass));
        m.add(Box::new(BarrierDivergencePass));
        m.add(Box::new(SharedRacePass));
        m.add(Box::new(RedundantCheckPass));
        m
    }

    /// Appends a pass to the pipeline.
    pub fn add(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Registered pass ids, in execution order.
    pub fn pass_ids(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.id()).collect()
    }

    /// Verifies one kernel under `know`, running every registered pass and
    /// computing the Fig. 16 check breakdown.
    pub fn verify(&self, kernel: &Kernel, know: &LaunchKnowledge) -> VerifyReport {
        self.verify_profiled(kernel, know).0
    }

    /// Like [`PassManager::verify`], additionally returning a per-pass
    /// [`PassProfile`] (wall time and diagnostic counts). Wall times are
    /// nondeterministic; keep them out of byte-compared artefacts.
    pub fn verify_profiled(
        &self,
        kernel: &Kernel,
        know: &LaunchKnowledge,
    ) -> (VerifyReport, PassProfile) {
        let cfg = Cfg::build(kernel);
        let idoms = cfg.immediate_dominators();
        let ipdoms = cfg.immediate_post_dominators();
        let facts = site_facts(kernel, know);
        let ctx = PassContext {
            kernel,
            know,
            cfg: &cfg,
            idoms: &idoms,
            ipdoms: &ipdoms,
            facts: &facts,
        };
        let mut diagnostics = Vec::new();
        let mut profile = PassProfile::default();
        for p in &self.passes {
            let start = std::time::Instant::now();
            let found = p.run(&ctx);
            profile.passes.push(PassTiming {
                id: p.id(),
                wall_nanos: start.elapsed().as_nanos() as u64,
                diagnostics: found.len() as u64,
            });
            diagnostics.extend(found);
        }
        // Classify with every static decision enabled — the breakdown is
        // the paper's full Fig. 16 taxonomy, independent of which options
        // a particular driver configuration turns on at launch.
        let bat = classify(
            kernel,
            &facts,
            AnalysisConfig {
                enable_type3: true,
                enable_elision: true,
            },
            Some(&cfg),
        );
        let breakdown = CheckBreakdown {
            // `analyze` folds elided sites into its static count; report
            // them separately so type1 stays the pure interval-proof count.
            type1: bat.sites_static - bat.elided_sites.len(),
            type2: bat.sites_runtime + bat.elided_sites.len(),
            type3: bat.sites_type3,
            elidable: bat.elided_sites.len(),
        };
        (
            VerifyReport {
                kernel: kernel.name().to_string(),
                diagnostics,
                breakdown,
            },
            profile,
        )
    }
}

/// Timing and finding count for one verifier pass execution.
#[derive(Debug, Clone, Copy)]
pub struct PassTiming {
    /// Stable pass identifier.
    pub id: &'static str,
    /// Wall-clock time the pass took, in nanoseconds (nondeterministic).
    pub wall_nanos: u64,
    /// Diagnostics the pass emitted.
    pub diagnostics: u64,
}

/// Per-pass profile for one [`PassManager::verify_profiled`] run.
#[derive(Debug, Clone, Default)]
pub struct PassProfile {
    /// One entry per registered pass, in execution order.
    pub passes: Vec<PassTiming>,
}

impl PassProfile {
    /// Publishes the profile into `reg` under
    /// `compiler.pass.<id>.{wall_nanos,diagnostics}` (accumulating across
    /// kernels) plus a `compiler.verify.kernels` run counter.
    pub fn publish(&self, reg: &mut gpushield_telemetry::Registry) {
        if !reg.enabled() {
            return;
        }
        reg.add_named("compiler.verify.kernels", 1);
        for t in &self.passes {
            reg.add_named(&format!("compiler.pass.{}.wall_nanos", t.id), t.wall_nanos);
            reg.add_named(
                &format!("compiler.pass.{}.diagnostics", t.id),
                t.diagnostics,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ArgInfo;
    use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand};

    fn know(args: Vec<ArgInfo>, grid: u32, block: u32) -> LaunchKnowledge {
        LaunchKnowledge {
            args,
            local_sizes: vec![],
            block,
            grid,
            heap_size: None,
        }
    }

    #[test]
    fn clean_kernel_has_no_findings_and_a_breakdown() {
        let mut b = KernelBuilder::new("iota");
        let out = b.param_buffer("out", false);
        let tid = b.global_thread_id();
        let off = b.shl(tid, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
        b.ret();
        let k = b.finish().unwrap();
        let know = know(vec![ArgInfo::Buffer { size: 256 * 4 }], 8, 32);
        let pm = PassManager::with_default_passes();
        let r = pm.verify(&k, &know);
        assert!(r.diagnostics.is_empty(), "unexpected: {:?}", r.diagnostics);
        assert_eq!(r.breakdown.type1, 1);
        assert_eq!(r.breakdown.type2, 0);
    }

    #[test]
    fn report_severity_helpers() {
        let d = |sev| Diagnostic {
            pass: "t",
            severity: sev,
            kernel: "k".into(),
            block: None,
            pc: None,
            message: "m".into(),
        };
        let r = VerifyReport {
            kernel: "k".into(),
            diagnostics: vec![d(Severity::Info), d(Severity::Warning)],
            breakdown: CheckBreakdown::default(),
        };
        assert_eq!(r.max_severity(), Some(Severity::Warning));
        assert_eq!(r.at_least(Severity::Warning).count(), 1);
    }

    #[test]
    fn diagnostic_renders_location() {
        let d = Diagnostic {
            pass: "race",
            severity: Severity::Error,
            kernel: "k".into(),
            block: Some(gpushield_isa::BlockId(3)),
            pc: Some(7),
            message: "conflict".into(),
        };
        assert_eq!(d.location(), "bb3:7");
        assert!(d.to_string().contains("[error]"));
    }
}
