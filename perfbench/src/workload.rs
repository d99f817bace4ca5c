//! The benchmark's workloads: which fleet each one derives from the
//! master seed, and why it is shaped the way it is.

use cider_fault::{splitmix64, FaultPlan};
use cider_fleet::{DeviceSpec, FleetSpec, HealConfig, PersonaMix, Workload};

/// Seed of the lifecycle fault plan the healed workload arms (crashes,
/// wedges and corrupt checkpoints, re-seeded per device by the fleet).
const LIFECYCLE_FAULT_SEED: u64 = 11;

/// One named benchmark workload.
pub struct BenchWorkload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What every device runs.
    pub workload: Workload,
    /// Devices per round: one `FleetSpec` of the master seed (round 0)
    /// or a seed derived from it.
    pub devices: u32,
    /// iOS/Android population of a round.
    pub mix: PersonaMix,
    /// Why the mix is what it is. Do not change the mix without
    /// reading this.
    pub mix_reason: &'static str,
    /// Whether devices run under `run_device_healed`.
    pub healed: bool,
    /// Devices the traced run of *another* workload traces of this one,
    /// so that each layer is always measured on the workload that
    /// exercises it.
    pub trace_slice: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [BenchWorkload; 4] = [
    BenchWorkload {
        name: "syscall_mix",
        workload: Workload::LmbenchMix { ops: 96 },
        devices: 256,
        mix: PersonaMix::EVEN,
        mix_reason: "half the devices take the domestic Linux trap path \
                     and half the translated XNU path, as in the fleet \
                     traffic of BENCH_fleet.json",
        healed: false,
        trace_slice: 16,
    },
    BenchWorkload {
        name: "launch_ios_cold",
        workload: Workload::LaunchStorm { launches: 64 },
        devices: 64,
        mix: PersonaMix::ALL_IOS,
        mix_reason: "fork+exec(ios) is the paper's Mach-O launch path: \
                     only iOS devices load a Mach-O binary and walk the \
                     dyld closure",
        healed: false,
        trace_slice: 1,
    },
    BenchWorkload {
        name: "ipc_storm",
        workload: Workload::IpcStorm { msgs: 4096 },
        devices: 8,
        mix: PersonaMix::ALL_IOS,
        mix_reason: "Mach IPC exists only for iOS tasks: every IPC unit \
                     fails on CiderAndroid (0 of 2000 completed), so an \
                     EVEN mix would measure failures, not IPC",
        healed: false,
        trace_slice: 1,
    },
    BenchWorkload {
        name: "app_lifecycle_healed",
        // Three cycles, not two: the first periodic checkpoint falls due
        // at unit 2, so only from the third unit on can a restore resume
        // from anything but the unit-0 baseline and replay work.
        workload: Workload::AppLifecycle { cycles: 3 },
        devices: 1000,
        mix: PersonaMix::ALL_IOS,
        mix_reason: "the UIKit lifecycle, bundles and jetsam bands are the \
                     iOS app model; a run of at least 1000 devices gives \
                     the per-device p99 ten samples beyond it",
        healed: true,
        trace_slice: 100,
    },
];

impl BenchWorkload {
    /// Looks a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<&'static BenchWorkload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The self-healing configuration of healed devices.
    pub fn heal_config(&self) -> HealConfig {
        HealConfig::default()
    }

    /// The fleet of round `round`. Round 0 uses the master seed itself;
    /// later rounds derive theirs from it, so the same seed always
    /// yields the same sequence of rounds.
    fn fleet(&self, seed: u64, round: u64) -> FleetSpec {
        let round_seed = if round == 0 {
            seed
        } else {
            let mut s = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            splitmix64(&mut s)
        };
        let spec = FleetSpec::new(self.devices, round_seed, self.workload)
            .mix(self.mix);
        if self.healed {
            spec.fault_plan(FaultPlan::lifecycle(LIFECYCLE_FAULT_SEED))
                .heal(self.heal_config())
        } else {
            spec
        }
    }

    /// The device specs of round `round`, the only input the program
    /// receives, in persona-interleaved order.
    pub fn round(&self, seed: u64, round: u64) -> Vec<DeviceSpec> {
        interleaved(self.fleet(seed, round).device_specs())
    }

    /// Workload units one device attempts.
    pub fn units_per_device(&self) -> u64 {
        u64::from(self.workload.units())
    }
}

/// Orders a round so that any prefix keeps the persona mix: the
/// personas' device lists are interleaved in proportion.
fn interleaved(specs: Vec<DeviceSpec>) -> Vec<DeviceSpec> {
    let (ios, android): (Vec<_>, Vec<_>) =
        specs.into_iter().partition(|s| s.config.runs_ios_binary());
    let n = ios.len() + android.len();
    let mut out = Vec::with_capacity(n);
    let (mut i, mut a) = (ios.into_iter(), android.into_iter());
    let (mut taken_ios, ios_total) = (0, n - a.len());
    for k in 1..=n {
        // Take iOS while it is behind its share of the first k devices.
        if taken_ios * n < k * ios_total {
            out.extend(i.next());
            taken_ios += 1;
        } else {
            out.extend(a.next());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_prefix_of_a_round_keeps_the_mix() {
        let w = BenchWorkload::by_name("syscall_mix").unwrap();
        let round = w.round(42, 0);
        let mut ids: Vec<u32> = round.iter().map(|s| s.device_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..w.devices).collect::<Vec<_>>());
        for k in 1..=round.len() {
            let ios = round[..k]
                .iter()
                .filter(|s| s.config.runs_ios_binary())
                .count();
            assert!(ios.abs_diff(k - ios) <= 1, "prefix {k}: {ios} iOS");
        }
        assert_eq!(round, w.round(42, 0));
        assert_ne!(round, w.round(42, 1));
    }
}
