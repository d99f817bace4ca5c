//! The runtime half: per-site PRNG state plus the injection/recovery
//! ledger.

use std::collections::BTreeMap;

use cider_abi::hash::fnv1a;

use crate::plan::{FaultPlan, FaultSite};
use crate::rng::SplitMix64;

/// One fault that actually fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Where it fired.
    pub site: FaultSite,
    /// 1-based global sequence number across all sites.
    pub seq: u64,
    /// Virtual-clock time of the injection.
    pub at_ns: u64,
}

/// One recovery action taken in response to injected faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// What recovered, e.g. `"launchd/respawn(notifyd)"`.
    pub action: String,
    /// Virtual-clock time of the recovery.
    pub at_ns: u64,
}

#[derive(Debug, Clone)]
struct SiteState {
    rng: SplitMix64,
    injected: u32,
}

/// Holds a [`FaultPlan`] plus everything mutable: PRNG streams, budget
/// counters, and the ledgers. The kernel owns one of these; an
/// inactive layer (empty plan) is guaranteed to never mutate state, so
/// fault-free runs stay bit-identical to a build without the layer.
#[derive(Debug, Clone)]
pub struct FaultLayer {
    plan: FaultPlan,
    states: BTreeMap<FaultSite, SiteState>,
    ledger: Vec<FaultRecord>,
    recoveries: Vec<RecoveryRecord>,
    injected_total: u64,
}

impl Default for FaultLayer {
    fn default() -> Self {
        FaultLayer::inactive()
    }
}

impl FaultLayer {
    /// A layer that never fires (empty plan).
    pub fn inactive() -> FaultLayer {
        FaultLayer::with_plan(FaultPlan::empty())
    }

    /// Arms the layer with a plan; each configured site gets an
    /// independent stream seeded from `plan.seed` and the site name.
    pub fn with_plan(plan: FaultPlan) -> FaultLayer {
        let states = plan
            .sites()
            .map(|(site, _)| {
                let seed = plan.seed ^ fnv1a(site.name().as_bytes());
                (
                    site,
                    SiteState {
                        rng: SplitMix64::new(seed),
                        injected: 0,
                    },
                )
            })
            .collect();
        FaultLayer {
            plan,
            states,
            ledger: Vec::new(),
            recoveries: Vec::new(),
            injected_total: 0,
        }
    }

    /// Whether any site can ever fire.
    pub fn is_active(&self) -> bool {
        !self.plan.is_empty()
    }

    /// The plan this layer was armed with.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Consults the schedule at `site`. Returns the global sequence
    /// number when a fault should be injected, `None` otherwise.
    ///
    /// Unconfigured sites (and the empty plan) take an early-out with
    /// zero side effects; configured sites advance their stream once
    /// per call, so the draw sequence depends only on the deterministic
    /// order of consultations.
    pub fn try_inject(&mut self, site: FaultSite, now_ns: u64) -> Option<u64> {
        let cfg = *self.plan.get(site)?;
        let st = self.states.get_mut(&site)?;
        if st.injected >= cfg.budget {
            return None;
        }
        let draw = st.rng.below(1000);
        if now_ns < cfg.after_ns {
            return None;
        }
        if draw >= cfg.prob_per_mille as u64 {
            return None;
        }
        st.injected += 1;
        self.injected_total += 1;
        let seq = self.injected_total;
        self.ledger.push(FaultRecord {
            site,
            seq,
            at_ns: now_ns,
        });
        Some(seq)
    }

    /// Appends a recovery action to the ledger.
    pub fn record_recovery(&mut self, action: impl Into<String>, now_ns: u64) {
        self.recoveries.push(RecoveryRecord {
            action: action.into(),
            at_ns: now_ns,
        });
    }

    /// Every injection that fired, in order.
    pub fn ledger(&self) -> &[FaultRecord] {
        &self.ledger
    }

    /// Every recovery recorded, in order.
    pub fn recoveries(&self) -> &[RecoveryRecord] {
        &self.recoveries
    }

    /// Total injections across all sites.
    pub fn injected_total(&self) -> u64 {
        self.injected_total
    }

    /// Injections that fired at one site.
    pub fn injected_at(&self, site: FaultSite) -> u32 {
        self.states.get(&site).map(|s| s.injected).unwrap_or(0)
    }

    /// Exports the layer's complete mutable state as stable
    /// `(key, value)` records for whole-device checkpointing: the plan
    /// seed, each armed site's stream position and budget consumption
    /// (in site order), and both ledgers. A restored replay that
    /// reproduces these records has re-drawn the exact same fault
    /// schedule.
    pub fn ckpt_records(&self) -> Vec<(String, String)> {
        let mut out = vec![
            ("plan_seed".to_string(), self.plan.seed.to_string()),
            (
                "injected_total".to_string(),
                self.injected_total.to_string(),
            ),
        ];
        for (site, st) in &self.states {
            out.push((
                format!("site:{}", site.name()),
                format!(
                    "rng_state={:016x} injected={}",
                    st.rng.state(),
                    st.injected
                ),
            ));
        }
        for (i, rec) in self.ledger.iter().enumerate() {
            out.push((
                format!("fault:{i:06}"),
                format!(
                    "site={} seq={} at_ns={}",
                    rec.site.name(),
                    rec.seq,
                    rec.at_ns
                ),
            ));
        }
        for (i, rec) in self.recoveries.iter().enumerate() {
            out.push((
                format!("recovery:{i:06}"),
                format!("action={} at_ns={}", rec.action, rec.at_ns),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SiteConfig;

    #[test]
    fn inactive_layer_never_fires_or_mutates() {
        let mut l = FaultLayer::inactive();
        for _ in 0..100 {
            assert_eq!(l.try_inject(FaultSite::VfsRead, 0), None);
        }
        assert!(!l.is_active());
        assert_eq!(l.injected_total(), 0);
        assert!(l.ledger().is_empty());
    }

    #[test]
    fn certain_site_always_fires_until_budget() {
        let plan = FaultPlan::new(7).site(
            FaultSite::Zalloc,
            SiteConfig::with_probability(1000).budget(3),
        );
        let mut l = FaultLayer::with_plan(plan);
        assert_eq!(l.try_inject(FaultSite::Zalloc, 10), Some(1));
        assert_eq!(l.try_inject(FaultSite::Zalloc, 20), Some(2));
        assert_eq!(l.try_inject(FaultSite::Zalloc, 30), Some(3));
        assert_eq!(l.try_inject(FaultSite::Zalloc, 40), None);
        assert_eq!(l.injected_at(FaultSite::Zalloc), 3);
        assert_eq!(l.ledger().len(), 3);
        assert_eq!(l.ledger()[1].at_ns, 20);
    }

    #[test]
    fn dormant_until_after_ns() {
        let plan = FaultPlan::new(7).site(
            FaultSite::VfsWrite,
            SiteConfig::with_probability(1000).after_ns(1_000),
        );
        let mut l = FaultLayer::with_plan(plan);
        assert_eq!(l.try_inject(FaultSite::VfsWrite, 999), None);
        assert!(l.try_inject(FaultSite::VfsWrite, 1_000).is_some());
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::new(0xC1DE).with(FaultSite::VfsRead, 300);
        let mut a = FaultLayer::with_plan(plan.clone());
        let mut b = FaultLayer::with_plan(plan);
        let fa: Vec<_> = (0..200)
            .map(|i| a.try_inject(FaultSite::VfsRead, i).is_some())
            .collect();
        let fb: Vec<_> = (0..200)
            .map(|i| b.try_inject(FaultSite::VfsRead, i).is_some())
            .collect();
        assert_eq!(fa, fb);
        assert!(fa.iter().any(|f| *f), "p=0.3 over 200 draws");
        assert!(fa.iter().any(|f| !*f));
        assert_eq!(a.ledger(), b.ledger());
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let mut a = FaultLayer::with_plan(
            FaultPlan::new(1).with(FaultSite::VfsRead, 500),
        );
        let mut b = FaultLayer::with_plan(
            FaultPlan::new(2).with(FaultSite::VfsRead, 500),
        );
        let fa: Vec<_> = (0..64)
            .map(|i| a.try_inject(FaultSite::VfsRead, i).is_some())
            .collect();
        let fb: Vec<_> = (0..64)
            .map(|i| b.try_inject(FaultSite::VfsRead, i).is_some())
            .collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn sites_draw_independently() {
        // Arming a second site must not perturb the first one's stream.
        let mut solo = FaultLayer::with_plan(
            FaultPlan::new(5).with(FaultSite::VfsRead, 250),
        );
        let mut duo = FaultLayer::with_plan(
            FaultPlan::new(5)
                .with(FaultSite::VfsRead, 250)
                .with(FaultSite::MachMsgSend, 250),
        );
        for i in 0..100 {
            let s = solo.try_inject(FaultSite::VfsRead, i).is_some();
            duo.try_inject(FaultSite::MachMsgSend, i);
            let d = duo.try_inject(FaultSite::VfsRead, i).is_some();
            assert_eq!(s, d, "draw {i}");
        }
    }

    #[test]
    fn recoveries_are_recorded() {
        let mut l = FaultLayer::with_plan(FaultPlan::matrix(1));
        l.record_recovery("launchd/respawn(notifyd)", 500);
        assert_eq!(l.recoveries().len(), 1);
        assert_eq!(l.recoveries()[0].at_ns, 500);
        assert!(l.recoveries()[0].action.contains("notifyd"));
    }
}
