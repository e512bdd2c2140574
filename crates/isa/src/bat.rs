//! Binary-attached bounds metadata: the per-site check plan derived from
//! the compiler's Bounds-Analysis Table (paper §5.3, Fig. 9 steps ①–③).
//!
//! The full BAT (with parameter pointer classes and static-violation
//! reports) lives in the compiler crate; this module holds only the part
//! that the *hardware path* consumes: which memory-instruction sites skip
//! runtime checking (Type 1), which check against the RBT (Type 2), and
//! which use the embedded-size fast path (Type 3).

use crate::instr::BlockId;
use std::collections::HashMap;

/// The bounds-check decision for one memory-instruction site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SiteCheck {
    /// Statically proven in bounds → Type 1 pointer, no runtime check.
    Static,
    /// Needs a runtime RBT-indexed check → Type 2 pointer.
    #[default]
    Runtime,
    /// Base+offset addressing with the buffer size embedded in the pointer
    /// → Type 3, checked without an RBT access.
    SizeEmbedded,
}

/// Proof metadata attached to a certificate-elided site: the virtual
/// address window `[lo, hi)` the driver discharged the compiler's
/// `SiteProof` to. Hardware that skips the site's check can count the
/// skip as *certified* (attributable to a proof, not blind trust), and
/// the soundness auditor cross-checks observed addresses against exactly
/// this window. The symbolic certificate (`SiteProof`) lives in the
/// compiler crate; this is its discharged, VA-space residue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteCert {
    /// First virtual address the site may touch (inclusive).
    pub lo: u64,
    /// One past the last virtual address the site may touch (exclusive).
    pub hi: u64,
}

/// Per-site check decisions for one kernel. Sites not present fall back to
/// [`SiteCheck::Runtime`] (checking is opt-out, never opt-in, so an
/// incomplete table fails safe).
#[derive(Debug, Clone, Default)]
pub struct CheckPlan {
    sites: HashMap<(BlockId, usize), SiteCheck>,
    certs: HashMap<(BlockId, usize), SiteCert>,
}

impl CheckPlan {
    /// An empty plan: every site is checked at runtime.
    pub fn all_runtime() -> Self {
        CheckPlan::default()
    }

    /// Records the decision for the instruction at `site`.
    pub fn set(&mut self, site: (BlockId, usize), check: SiteCheck) {
        self.sites.insert(site, check);
    }

    /// The decision for `site`.
    pub fn get(&self, site: (BlockId, usize)) -> SiteCheck {
        self.sites.get(&site).copied().unwrap_or_default()
    }

    /// Number of sites decided as `Static`.
    pub fn static_sites(&self) -> usize {
        self.sites
            .values()
            .filter(|c| **c == SiteCheck::Static)
            .count()
    }

    /// Total recorded sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when no site was recorded.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterates over recorded `(site, decision)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = ((BlockId, usize), SiteCheck)> + '_ {
        self.sites.iter().map(|(k, v)| (*k, *v))
    }

    /// Attaches a discharged proof certificate to `site`.
    pub fn set_cert(&mut self, site: (BlockId, usize), cert: SiteCert) {
        self.certs.insert(site, cert);
    }

    /// The discharged certificate for `site`, if one was attached.
    pub fn cert(&self, site: (BlockId, usize)) -> Option<SiteCert> {
        self.certs.get(&site).copied()
    }

    /// True when `site`'s decision is backed by a discharged certificate.
    pub fn certified(&self, site: (BlockId, usize)) -> bool {
        self.certs.contains_key(&site)
    }

    /// Number of certificate-backed sites.
    pub fn certified_sites(&self) -> usize {
        self.certs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fail_safe_to_runtime() {
        let p = CheckPlan::all_runtime();
        assert_eq!(p.get((BlockId(3), 9)), SiteCheck::Runtime);
        assert!(p.is_empty());
    }

    #[test]
    fn decisions_round_trip() {
        let mut p = CheckPlan::all_runtime();
        p.set((BlockId(0), 1), SiteCheck::Static);
        p.set((BlockId(2), 0), SiteCheck::SizeEmbedded);
        assert_eq!(p.get((BlockId(0), 1)), SiteCheck::Static);
        assert_eq!(p.get((BlockId(2), 0)), SiteCheck::SizeEmbedded);
        assert_eq!(p.static_sites(), 1);
        assert_eq!(p.len(), 2);
        assert_eq!(p.iter().count(), 2);
    }
}
