//! Redundant-check reporting: Type 2 sites upgradable to Type 1.
//!
//! The elision analysis itself lives in the bounds analyser
//! ([`crate::analyze`] with [`AnalysisConfig::enable_elision`]): a runtime
//! check is redundant when an identical-region check dominates it on every
//! incoming path with no intervening redefinition of the address
//! registers. This pass only *reports* those sites, so a registry sweep
//! shows where the paper's §5.3 static classification leaves checks on the
//! table. Findings are [`Severity::Info`] — elision is an optimisation
//! opportunity, never a defect. The pass classifies the manager's shared
//! [`crate::SiteFacts`] with Type 3 off, so it adds no fixpoint of its own.

use super::{Diagnostic, Pass, PassContext, Severity};
use crate::bat::{classify, AnalysisConfig};

/// The redundant-check pass (`"elide"`).
pub struct RedundantCheckPass;

impl Pass for RedundantCheckPass {
    fn id(&self) -> &'static str {
        "elide"
    }

    fn run(&self, ctx: &PassContext<'_>) -> Vec<Diagnostic> {
        let bat = classify(
            ctx.kernel,
            ctx.facts,
            AnalysisConfig {
                enable_elision: true,
                ..AnalysisConfig::default()
            },
            Some(ctx.cfg),
        );
        bat.elided_sites
            .iter()
            .map(|&(block, pc)| {
                let region = bat
                    .site_origins
                    .get(&(block, pc))
                    .map(|o| o.to_string())
                    .unwrap_or_else(|| "?".to_string());
                Diagnostic {
                    pass: self.id(),
                    severity: Severity::Info,
                    kernel: ctx.kernel.name().to_string(),
                    block: Some(block),
                    pc: Some(pc),
                    message: format!(
                        "runtime check on {region} is redundant: an identical covering \
                         check dominates every path here; elidable to Type 1"
                    ),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{ArgInfo, LaunchKnowledge};
    use gpushield_isa::{Cfg, KernelBuilder, MemSpace, MemWidth, Operand};

    fn run(kernel: &gpushield_isa::Kernel, know: &LaunchKnowledge) -> Vec<Diagnostic> {
        let cfg = Cfg::build(kernel);
        let idoms = cfg.immediate_dominators();
        let ipdoms = cfg.immediate_post_dominators();
        RedundantCheckPass.run(&PassContext {
            kernel,
            know,
            cfg: &cfg,
            idoms: &idoms,
            ipdoms: &ipdoms,
            facts: &crate::site_facts(kernel, know),
        })
    }

    #[test]
    fn repeated_unprovable_access_reports_the_dominated_site() {
        // Two loads of buf[tid·4] where tid·4 cannot be proven in bounds
        // (buffer too small): both are Type 2, the second is dominated by
        // the first and reported elidable.
        let mut b = KernelBuilder::new("k");
        let buf = b.param_buffer("buf", false);
        let t = b.global_thread_id();
        let off = b.shl(t, Operand::Imm(2));
        let addr = b.base_offset(buf, off);
        let _ = b.ld(MemSpace::Global, MemWidth::W4, addr);
        let _ = b.ld(MemSpace::Global, MemWidth::W4, addr);
        b.ret();
        let k = b.finish().unwrap();
        let know = LaunchKnowledge {
            args: vec![ArgInfo::Buffer { size: 16 }],
            local_sizes: vec![],
            block: 32,
            grid: 4,
            heap_size: None,
        };
        let ds = run(&k, &know);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].severity, Severity::Info);
        assert!(ds[0].message.contains("arg0"));
    }

    #[test]
    fn provable_kernel_reports_nothing() {
        let mut b = KernelBuilder::new("k");
        let buf = b.param_buffer("buf", false);
        let t = b.global_thread_id();
        let off = b.shl(t, Operand::Imm(2));
        b.st(MemSpace::Global, MemWidth::W4, b.base_offset(buf, off), t);
        b.ret();
        let k = b.finish().unwrap();
        let know = LaunchKnowledge {
            args: vec![ArgInfo::Buffer { size: 128 * 4 }],
            local_sizes: vec![],
            block: 32,
            grid: 4,
            heap_size: None,
        };
        assert!(run(&k, &know).is_empty());
    }
}
