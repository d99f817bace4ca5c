//! Fleet determinism: the contract that makes parallel simulation
//! trustworthy.
//!
//! Two layers are pinned here. Per device: running a device through
//! the fleet driver is byte-identical (by trace fingerprint) to
//! running the same derived spec directly through [`run_device`] —
//! the pool adds nothing and removes nothing. Fleet-level: a whole
//! mixed-persona fleet under fault injection renders byte-identical
//! aggregated JSON across repeat runs and across host-thread counts,
//! because aggregation happens in device-id order and host wall-clock
//! never enters the report.

use cider_fault::FaultPlan;
use cider_fleet::{
    run_device, run_fleet, FleetReport, FleetSpec, PersonaMix, Workload,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// fleet(N=1) is exactly one direct `run_device` call: the same
    /// fingerprint, clock, and unit count, whatever the seed and
    /// workload.
    #[test]
    fn single_device_fleet_matches_direct_run(
        seed in 0u64..1_000_000,
        ops in 1u32..8,
        ios in any::<bool>(),
    ) {
        let mix = if ios {
            PersonaMix::ALL_IOS
        } else {
            PersonaMix::ALL_ANDROID
        };
        let spec =
            FleetSpec::new(1, seed, Workload::LmbenchMix { ops })
                .mix(mix);
        let fleet = run_fleet(&spec);
        let direct = run_device(&spec.device_specs()[0]);
        prop_assert_eq!(
            fleet.results[0].trace_fingerprint,
            direct.trace_fingerprint
        );
        prop_assert_eq!(fleet.results[0].virtual_ns, direct.virtual_ns);
        prop_assert_eq!(
            fleet.results[0].units_completed,
            direct.units_completed
        );
    }
}

fn faulted_fleet(threads: usize) -> FleetSpec {
    FleetSpec::new(64, 42, Workload::LmbenchMix { ops: 4 })
        .mix(PersonaMix::EVEN)
        .fault_plan(FaultPlan::matrix(23))
        .host_threads(threads)
}

#[test]
fn fleet_json_is_identical_across_runs_and_thread_counts() {
    let first = FleetReport::from_run(&run_fleet(&faulted_fleet(1)));
    let again = FleetReport::from_run(&run_fleet(&faulted_fleet(1)));
    let wide = FleetReport::from_run(&run_fleet(&faulted_fleet(8)));
    assert_eq!(first.to_json(), again.to_json(), "repeat run diverged");
    assert_eq!(first.to_json(), wide.to_json(), "thread count leaked");
    // The faults were real, not vacuous.
    assert!(first.groups["all"].faults_total > 0);
}

/// CoW first-write fault charges land on the faulting thread's virtual
/// clock; if one were lost or double-charged depending on host
/// scheduling, the warm-storm report would differ between 1 and 8
/// worker threads. The fault matrix rides along so cache invalidations
/// (shared_cache_corrupt) are part of the replayed schedule too.
#[test]
fn warm_storm_fleet_is_host_thread_invariant() {
    let spec = |threads: usize| {
        FleetSpec::new(24, 11, Workload::LaunchStormWarm { launches: 6 })
            .mix(PersonaMix::EVEN)
            .fault_plan(FaultPlan::matrix(47))
            .host_threads(threads)
    };
    let one = FleetReport::from_run(&run_fleet(&spec(1)));
    let wide = FleetReport::from_run(&run_fleet(&spec(8)));
    assert_eq!(
        one.to_json(),
        wide.to_json(),
        "CoW fault charges desynced virtual time across host threads"
    );
    assert!(one.groups["all"].launches_per_vsec_milli.is_some());
    assert!(one.groups["all"].faults_total > 0, "matrix never fired");
}

/// The IPC storm drives the v2 cost policy — typed rights, OOL remap,
/// batched ring flushes — on every device. Each port delivers its
/// messages in FIFO order within one device, so the report must be
/// byte-identical across 1 and 8 host threads; the fault matrix rides along so injected Mach errors
/// (port allocation, send, OOL remap refusal, ring overflow) are part
/// of the replayed schedule too.
#[test]
fn ipc_storm_fleet_is_host_thread_invariant() {
    let spec = |threads: usize| {
        FleetSpec::new(24, 11, Workload::IpcStorm { msgs: 6 })
            .mix(PersonaMix::EVEN)
            .fault_plan(FaultPlan::matrix(47))
            .host_threads(threads)
    };
    let one = FleetReport::from_run(&run_fleet(&spec(1)));
    let wide = FleetReport::from_run(&run_fleet(&spec(8)));
    assert_eq!(
        one.to_json(),
        wide.to_json(),
        "IPC v2 delivery order desynced across host threads"
    );
    assert!(one.groups["all"].latencies.contains_key("ipc/unit"));
    assert!(one.groups["all"].faults_total > 0, "matrix never fired");
}

#[test]
fn launch_storm_fleet_reports_per_persona_throughput() {
    let spec = FleetSpec::new(16, 7, Workload::LaunchStorm { launches: 4 })
        .mix(PersonaMix::EVEN)
        .host_threads(4);
    let report = FleetReport::from_run(&run_fleet(&spec));
    for group in ["all", "cider_ios", "cider_android"] {
        let g = &report.groups[group];
        assert!(
            g.launches_per_vsec_milli.is_some(),
            "{group} missing throughput"
        );
        assert!(g.latencies.contains_key("launch/latency"));
    }
}
