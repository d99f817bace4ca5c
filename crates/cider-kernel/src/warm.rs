//! Zygote-style warm-start state: the prelinked dyld shared cache.
//!
//! The paper's fig5 fork/exec rows are dominated by two costs a
//! production fleet amortizes: the 115-dylib closure walk dyld performs
//! on every `exec(ios)`, and the eager duplication of ~23k page-table
//! entries on every `fork`. This module holds the device-wide state
//! that removes the first cost: after one cold closure walk, the loader
//! bakes the fully resolved closure — image list in bind order, per
//! image mapped size, total bytes, a digest over the whole thing — into
//! a [`SharedCacheImage`] owned by the kernel. Every later `exec(ios)`
//! with matching roots maps the baked closure in O(images) without
//! touching the VFS at all.
//!
//! Warm start is **opt-in and off by default**: the pinned fig5 ratios,
//! golden tables and conformance corpus all describe the cold machine,
//! and stay byte-identical unless a test bed explicitly enables warmth.
//!
//! Invalidation rules (DESIGN.md §13):
//! - cache missing → cold walk, then bake;
//! - root dependency set differs from the baked one → cold walk for
//!   this exec, first bake kept;
//! - `FaultSite::SharedCacheCorrupt` fires or the digest check fails →
//!   cache dropped, cold walk re-bakes.

use std::fmt::Write as _;

use cider_abi::hash::fnv1a;

/// One image of the baked closure, in bind order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BakedImage {
    /// VFS path the cold walk resolved the install name to.
    pub path: String,
    /// Bytes dyld mapped for it (page-rounded by the address space).
    pub vmsize: u64,
}

/// The prelinked shared cache: a device-wide, fully resolved dylib
/// closure baked by the first cold launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedCacheImage {
    /// Root dependency set the closure was resolved from (sorted).
    pub roots: Vec<String>,
    /// The whole closure in the cold walk's bind order — replaying it
    /// reproduces the cold walk's mappings, addresses and initializer
    /// schedule exactly.
    pub images: Vec<BakedImage>,
    /// Total bytes across the closure.
    pub total_bytes: u64,
    /// FNV-1a digest over roots and images; checked on every warm map.
    pub digest: u64,
}

impl SharedCacheImage {
    /// Bakes a cache from the closure a cold walk just resolved.
    pub fn bake(
        mut roots: Vec<String>,
        images: Vec<BakedImage>,
        total_bytes: u64,
    ) -> SharedCacheImage {
        roots.sort();
        let digest = Self::digest_of(&roots, &images, total_bytes);
        SharedCacheImage {
            roots,
            images,
            total_bytes,
            digest,
        }
    }

    fn digest_of(
        roots: &[String],
        images: &[BakedImage],
        total_bytes: u64,
    ) -> u64 {
        let mut s = String::new();
        for r in roots {
            let _ = write!(s, "{r};");
        }
        for i in images {
            let _ = write!(s, "{}={};", i.path, i.vmsize);
        }
        let _ = write!(s, "#{total_bytes}");
        fnv1a(s.as_bytes())
    }

    /// True when the stored digest still matches the contents.
    pub fn verify(&self) -> bool {
        self.digest
            == Self::digest_of(&self.roots, &self.images, self.total_bytes)
    }

    /// True when this cache was baked for exactly `roots`.
    pub fn matches_roots(&self, roots: &[&str]) -> bool {
        let mut sorted: Vec<&str> = roots.to_vec();
        sorted.sort_unstable();
        sorted.len() == self.roots.len()
            && sorted.iter().zip(&self.roots).all(|(a, b)| *a == b)
    }
}

/// Counters for the warm-start machinery. All monotonic, all part of
/// the `kernel/warm` checkpoint section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Cold closure walks that ended in a bake.
    pub cold_bakes: u64,
    /// `exec(ios)` launches served from the cache.
    pub warm_execs: u64,
    /// Caches dropped (corruption fault or digest mismatch).
    pub invalidations: u64,
    /// Forks taken copy-on-write instead of eagerly.
    pub cow_forks: u64,
    /// First-write faults that materialized a page.
    pub cow_faults: u64,
    /// PTEs whose copy was deferred at fork time.
    pub cow_deferred_ptes: u64,
}

/// Device-wide warm-start state owned by the kernel.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    enabled: bool,
    cache: Option<SharedCacheImage>,
    /// Warm-start counters.
    pub stats: WarmStats,
}

impl WarmStart {
    /// Disabled, empty — the cold machine the goldens describe.
    pub fn new() -> WarmStart {
        WarmStart::default()
    }

    /// Whether warm start is on for this device.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns warm start on or off. Turning it off keeps the baked
    /// cache (a later re-enable reuses it); the cold paths simply stop
    /// consulting it.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The baked cache, if any.
    pub fn cache(&self) -> Option<&SharedCacheImage> {
        self.cache.as_ref()
    }

    /// Installs a freshly baked cache.
    pub fn install(&mut self, image: SharedCacheImage) {
        self.stats.cold_bakes += 1;
        self.cache = Some(image);
    }

    /// Drops the cache (corruption fault or digest mismatch).
    pub fn invalidate(&mut self) {
        if self.cache.take().is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// One-line deterministic record for the `kernel/warm` checkpoint
    /// section.
    pub fn ckpt_record(&self) -> String {
        let s = &self.stats;
        let cache = match &self.cache {
            Some(c) => format!(
                "{}i/{}B/{:016x}",
                c.images.len(),
                c.total_bytes,
                c.digest
            ),
            None => "none".to_string(),
        };
        format!(
            "enabled={} cache={cache} bakes={} warm={} inval={} \
             cow_forks={} cow_faults={} cow_deferred={}",
            self.enabled,
            s.cold_bakes,
            s.warm_execs,
            s.invalidations,
            s.cow_forks,
            s.cow_faults,
            s.cow_deferred_ptes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> SharedCacheImage {
        SharedCacheImage::bake(
            vec!["libb".into(), "liba".into()],
            vec![
                BakedImage {
                    path: "/usr/lib/liba".into(),
                    vmsize: 4096,
                },
                BakedImage {
                    path: "/usr/lib/libb".into(),
                    vmsize: 8192,
                },
            ],
            12288,
        )
    }

    #[test]
    fn bake_sorts_roots_and_digest_verifies() {
        let c = cache();
        assert_eq!(c.roots, vec!["liba".to_string(), "libb".to_string()]);
        assert!(c.verify());
        assert!(c.matches_roots(&["libb", "liba"]));
        assert!(!c.matches_roots(&["liba"]));
        assert!(!c.matches_roots(&["liba", "libc"]));
    }

    #[test]
    fn tampering_breaks_the_digest() {
        let mut c = cache();
        c.images[0].vmsize += 1;
        assert!(!c.verify());
        let mut c = cache();
        c.total_bytes ^= 1;
        assert!(!c.verify());
    }

    #[test]
    fn warm_start_defaults_off_and_counts_lifecycle() {
        let mut w = WarmStart::new();
        assert!(!w.is_enabled());
        assert!(w.cache().is_none());
        assert!(w.ckpt_record().contains("enabled=false cache=none"));
        w.set_enabled(true);
        w.install(cache());
        assert_eq!(w.stats.cold_bakes, 1);
        w.invalidate();
        w.invalidate(); // second is a no-op
        assert_eq!(w.stats.invalidations, 1);
        assert!(w.cache().is_none());
    }

    #[test]
    fn ckpt_record_is_deterministic() {
        let mut w = WarmStart::new();
        w.set_enabled(true);
        w.install(cache());
        let a = w.ckpt_record();
        let b = w.clone().ckpt_record();
        assert_eq!(a, b);
        assert!(a.contains("cache=2i/12288B/"));
    }
}
