//! Fault plans: which sites can fail, how often, and when.

use std::collections::BTreeMap;

/// A named injection point in the stack.
///
/// Each variant corresponds to a mechanism the paper's evaluation
/// exercises; the wiring lives in the crate that owns the mechanism
/// (the kernel for VFS/fork, cider-core for Mach IPC, the duct-tape
/// adapter for zalloc, and so on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// `read(2)` on a regular file returns `EIO`.
    VfsRead,
    /// `write(2)` on a regular file returns `EIO`.
    VfsWrite,
    /// `open(O_CREAT)` creating a new file returns `ENOSPC`.
    VfsCreate,
    /// `zalloc` in the duct-tape adapter returns a NULL element,
    /// surfacing as `KERN_RESOURCE_SHORTAGE` from the foreign IPC zone.
    Zalloc,
    /// `mach_port_allocate` fails with `KERN_NO_SPACE` (name space
    /// exhaustion).
    MachPortAllocate,
    /// `mach_msg` send overflows the destination queue
    /// (`MACH_SEND_TOO_LARGE` in this model's simplified convention).
    MachMsgSend,
    /// dyld fails to resolve a dependency in the dylib closure
    /// (`ENOENT` on a library of the 115-image set).
    DyldResolve,
    /// `fork` runs out of memory while copying page tables
    /// (`ENOMEM` before the PTE copy is charged).
    ForkPteCopy,
    /// A GPU fence wait times out; cider-gfx falls back to
    /// force-retiring the queue.
    GpuFenceTimeout,
    /// The input eventpump drops a decoded event before forwarding it
    /// over the Mach port.
    InputEventDrop,
    /// `wakeup` on a wait channel is lost: the sleepers stay blocked
    /// until the next scheduling point flushes the deferred channel
    /// (models the lost/spurious-wakeup races of §5.3's psynch layer).
    SchedWakeup,
    /// A periodic device checkpoint is corrupted in storage (bit flip
    /// or truncation). Restore must detect it via the checkpoint
    /// checksum and fall back to the previous good checkpoint.
    CheckpointCorrupt,
    /// The whole device panics mid-workload (simulated kernel panic).
    /// The fleet's crash boundary catches it and restores the device
    /// from its last periodic checkpoint.
    DeviceCrash,
    /// The device wedges: a runaway virtual-time burn that trips the
    /// fleet's per-unit virtual-time watchdog budget.
    DeviceWedge,
    /// The prelinked dyld shared cache fails its digest check when a
    /// warm `exec(ios)` tries to map it. The loader must invalidate
    /// the cache and fall back to the cold closure walk (which
    /// re-bakes it). Only consulted when warm start is enabled, so
    /// cold-machine runs never draw from its stream.
    SharedCacheCorrupt,
    /// `vm_map_remap` of an out-of-line message region fails
    /// (fragmented target map, wired source pages). IPC v2 degrades
    /// gracefully: the region is copied inline instead of remapped.
    /// Only consulted on the v2 OOL fast path.
    OolRemapFail,
    /// A trap-ring submission finds the ring full. The submitter
    /// degrades by flushing immediately (one extra kernel crossing)
    /// and then retrying the enqueue.
    TrapRingOverflow,
    /// The memorystatus subsystem jetsams a process even though its
    /// band would normally survive the current pressure level (models
    /// the aggressive/spurious kills real jetsam performs under
    /// transient spikes). The app-framework supervisor must relaunch
    /// the victim through its lifecycle state machine.
    JetsamKill,
    /// A bundle resource lookup finds the backing file missing or
    /// unreadable (`ENOENT` on a localized resource). NSBundle-style
    /// loading degrades to the base (unlocalized) resource.
    BundleMissing,
}

impl FaultSite {
    /// Every site, in a stable order (used by reports and tests).
    pub const ALL: [FaultSite; 19] = [
        FaultSite::VfsRead,
        FaultSite::VfsWrite,
        FaultSite::VfsCreate,
        FaultSite::Zalloc,
        FaultSite::MachPortAllocate,
        FaultSite::MachMsgSend,
        FaultSite::DyldResolve,
        FaultSite::ForkPteCopy,
        FaultSite::GpuFenceTimeout,
        FaultSite::InputEventDrop,
        FaultSite::SchedWakeup,
        FaultSite::CheckpointCorrupt,
        FaultSite::DeviceCrash,
        FaultSite::DeviceWedge,
        FaultSite::SharedCacheCorrupt,
        FaultSite::OolRemapFail,
        FaultSite::TrapRingOverflow,
        FaultSite::JetsamKill,
        FaultSite::BundleMissing,
    ];

    /// The device-lifecycle sites consulted by the fleet's healing
    /// harness (host side of the crash boundary), not by the kernel:
    /// they outlive the device state a restore rolls back.
    pub const DEVICE_LIFECYCLE: [FaultSite; 3] = [
        FaultSite::CheckpointCorrupt,
        FaultSite::DeviceCrash,
        FaultSite::DeviceWedge,
    ];

    /// Stable snake_case name, used for trace counters and seeding.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::VfsRead => "vfs_read",
            FaultSite::VfsWrite => "vfs_write",
            FaultSite::VfsCreate => "vfs_create",
            FaultSite::Zalloc => "zalloc",
            FaultSite::MachPortAllocate => "mach_port_allocate",
            FaultSite::MachMsgSend => "mach_msg_send",
            FaultSite::DyldResolve => "dyld_resolve",
            FaultSite::ForkPteCopy => "fork_pte_copy",
            FaultSite::GpuFenceTimeout => "gpu_fence_timeout",
            FaultSite::InputEventDrop => "input_event_drop",
            FaultSite::SchedWakeup => "sched_wakeup",
            FaultSite::CheckpointCorrupt => "checkpoint_corrupt",
            FaultSite::DeviceCrash => "device_crash",
            FaultSite::DeviceWedge => "device_wedge",
            FaultSite::SharedCacheCorrupt => "shared_cache_corrupt",
            FaultSite::OolRemapFail => "ool_remap_fail",
            FaultSite::TrapRingOverflow => "trap_ring_overflow",
            FaultSite::JetsamKill => "jetsam_kill",
            FaultSite::BundleMissing => "bundle_missing",
        }
    }
}

/// Per-site schedule knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteConfig {
    /// Injection probability per consulted draw, in thousandths
    /// (`1000` = always fire).
    pub prob_per_mille: u16,
    /// Maximum number of injections at this site; `u32::MAX` means
    /// unlimited.
    pub budget: u32,
    /// Virtual-clock time before which the site stays dormant.
    pub after_ns: u64,
}

impl SiteConfig {
    /// A site that fires with the given probability, no budget cap,
    /// active from boot.
    pub fn with_probability(prob_per_mille: u16) -> SiteConfig {
        SiteConfig {
            prob_per_mille,
            budget: u32::MAX,
            after_ns: 0,
        }
    }

    /// Caps the number of injections.
    pub fn budget(mut self, budget: u32) -> SiteConfig {
        self.budget = budget;
        self
    }

    /// Keeps the site dormant until the virtual clock passes `ns`.
    pub fn after_ns(mut self, ns: u64) -> SiteConfig {
        self.after_ns = ns;
        self
    }
}

/// A seeded fault schedule: the full description of an experiment's
/// fault matrix. Two runs with equal plans (same seed, same sites, and
/// the same deterministic workload) inject identical fault sequences.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Master seed; each site derives an independent stream from it.
    pub seed: u64,
    sites: BTreeMap<FaultSite, SiteConfig>,
}

impl FaultPlan {
    /// The empty plan: no sites, nothing can fire.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with a seed and no sites yet.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            sites: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a site schedule. Builder-style.
    pub fn site(mut self, site: FaultSite, cfg: SiteConfig) -> FaultPlan {
        self.sites.insert(site, cfg);
        self
    }

    /// Shorthand: adds a site firing with `prob_per_mille`, unlimited
    /// budget, active from boot.
    pub fn with(self, site: FaultSite, prob_per_mille: u16) -> FaultPlan {
        self.site(site, SiteConfig::with_probability(prob_per_mille))
    }

    /// Whether no site can ever fire.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Schedule for one site, if configured.
    pub fn get(&self, site: FaultSite) -> Option<&SiteConfig> {
        self.sites.get(&site)
    }

    /// Iterates configured sites in stable order.
    pub fn sites(&self) -> impl Iterator<Item = (FaultSite, &SiteConfig)> {
        self.sites.iter().map(|(s, c)| (*s, c))
    }

    /// Restricts the plan to `sites`, keeping the seed and each kept
    /// site's schedule. Used by the fleet to split one plan between
    /// the kernel (mechanism sites) and the healing harness
    /// (device-lifecycle sites) without perturbing either's streams.
    #[must_use]
    pub fn only(&self, sites: &[FaultSite]) -> FaultPlan {
        let mut p = FaultPlan::new(self.seed);
        for (site, cfg) in self.sites() {
            if sites.contains(&site) {
                p = p.site(site, *cfg);
            }
        }
        p
    }

    /// The complement of [`FaultPlan::only`]: the plan without `sites`.
    #[must_use]
    pub fn without(&self, sites: &[FaultSite]) -> FaultPlan {
        let mut p = FaultPlan::new(self.seed);
        for (site, cfg) in self.sites() {
            if !sites.contains(&site) {
                p = p.site(site, *cfg);
            }
        }
        p
    }

    /// A moderate all-sites plan used by the fault-matrix test and the
    /// report demo: every mechanism site armed at ~8% per draw.
    /// Device-lifecycle sites (crash, wedge, checkpoint corruption)
    /// stay unarmed — they model whole-device failures and are only
    /// meaningful under the fleet's healing harness; arm them with
    /// [`FaultPlan::lifecycle`].
    pub fn matrix(seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        for site in FaultSite::ALL {
            if FaultSite::DEVICE_LIFECYCLE.contains(&site) {
                continue;
            }
            plan = plan.with(site, 80);
        }
        plan
    }

    /// A device-lifecycle plan for fleet self-healing experiments:
    /// crashes at ~3% per workload unit, wedges at ~1%, checkpoint
    /// corruption at ~5% per checkpoint written.
    pub fn lifecycle(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with(FaultSite::DeviceCrash, 30)
            .with(FaultSite::DeviceWedge, 10)
            .with(FaultSite::CheckpointCorrupt, 50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for site in FaultSite::ALL {
            assert!(seen.insert(site.name()), "dup {:?}", site);
        }
    }

    #[test]
    fn empty_plan_has_no_sites() {
        assert!(FaultPlan::empty().is_empty());
        assert!(FaultPlan::new(99).is_empty());
        assert_eq!(FaultPlan::new(99).get(FaultSite::VfsRead), None);
    }

    #[test]
    fn builder_accumulates_sites() {
        let p = FaultPlan::new(1).with(FaultSite::VfsRead, 500).site(
            FaultSite::DyldResolve,
            SiteConfig::with_probability(1000).budget(1).after_ns(10),
        );
        assert!(!p.is_empty());
        assert_eq!(p.get(FaultSite::VfsRead).unwrap().prob_per_mille, 500);
        let d = p.get(FaultSite::DyldResolve).unwrap();
        assert_eq!(d.budget, 1);
        assert_eq!(d.after_ns, 10);
        assert_eq!(p.sites().count(), 2);
    }

    #[test]
    fn matrix_covers_every_mechanism_site() {
        let p = FaultPlan::matrix(3);
        for site in FaultSite::ALL {
            if FaultSite::DEVICE_LIFECYCLE.contains(&site) {
                assert!(p.get(site).is_none(), "{:?} armed", site);
            } else {
                assert!(p.get(site).is_some(), "{:?} missing", site);
            }
        }
    }

    #[test]
    fn lifecycle_covers_every_lifecycle_site() {
        let p = FaultPlan::lifecycle(3);
        for site in FaultSite::DEVICE_LIFECYCLE {
            assert!(p.get(site).is_some(), "{:?} missing", site);
        }
        assert_eq!(p.sites().count(), FaultSite::DEVICE_LIFECYCLE.len());
    }

    #[test]
    fn only_and_without_partition_a_plan() {
        let p = FaultPlan::matrix(9).with(FaultSite::DeviceCrash, 100);
        let lifecycle = p.only(&FaultSite::DEVICE_LIFECYCLE);
        let kernel = p.without(&FaultSite::DEVICE_LIFECYCLE);
        assert_eq!(lifecycle.sites().count(), 1);
        assert_eq!(
            lifecycle.sites().count() + kernel.sites().count(),
            p.sites().count()
        );
        assert_eq!(lifecycle.seed, p.seed);
        assert_eq!(kernel.seed, p.seed);
    }
}
