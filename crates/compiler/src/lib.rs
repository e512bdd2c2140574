//! Compiler-side static bounds analysis for GPUShield (paper §5.3).
//!
//! The analysis plays the role of the paper's LLVM passes: it walks each
//! memory instruction's address expression (the operand tree of Fig. 8),
//! evaluates it in an interval abstract domain seeded with launch-time
//! knowledge (buffer sizes, constant scalars, grid geometry), and decides
//! for every site whether the access is
//!
//! * **provably in bounds** → Type 1, runtime check elided;
//! * **checkable against an embedded size** → Type 3 (Method A/C
//!   addressing, §5.3.3);
//! * **only checkable at runtime** → Type 2 (RBT-indexed BCU check).
//!
//! Guaranteed violations are reported immediately as
//! [`StaticViolation`]s. The output [`BoundsAnalysis`] is the paper's
//! Bounds-Analysis Table: the driver consumes the pointer classes for
//! tagging and the simulator consumes the per-site [`gpushield_isa::CheckPlan`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod absval;
pub mod affine;
mod analysis;
mod bat;
mod interval;
pub mod relational;
pub mod verify;

pub use absval::{AbsVal, Origin};
pub use affine::Aff;
pub use analysis::{ArgInfo, LaunchKnowledge};
pub use bat::{
    analyze, classify, site_facts, AnalysisConfig, BoundsAnalysis, SiteFacts, StaticViolation,
};
pub use interval::Interval;
pub use relational::{discharge, prove_sites, LinExpr, SiteProof};
pub use verify::{
    CheckBreakdown, Diagnostic, Pass, PassContext, PassManager, PassProfile, PassTiming, Severity,
    VerifyReport,
};
