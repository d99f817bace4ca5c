//! Parallel multi-device fleet simulation.
//!
//! Cider's evaluation (ASPLOS 2014, §6) measures one device at a time;
//! a production deployment serves fleets. This crate runs N fully
//! isolated simulated devices — each with its own seed, virtual clock,
//! persona (iOS or Android binary ecosystem), workload, and optional
//! fault plan — across a pool of host worker threads, then folds the
//! per-device metrics, latency histograms, and fault/recovery ledgers
//! into fleet-level percentile reports (p50/p95/p99 per counter,
//! launch-storm throughput, per-persona breakdowns).
//!
//! The design splits cleanly into:
//!
//! * [`spec`] — [`FleetSpec`]: the whole experiment as one value, plus
//!   the deterministic derivation of per-device [`DeviceSpec`]s;
//! * [`device`] — [`run_device`]: boot one test bed, drive one
//!   workload, fingerprint the trace;
//! * [`driver`] — [`run_fleet`]: the work-stealing host-thread pool
//!   over the device list;
//! * [`report`] — [`FleetReport`]: deterministic aggregation and the
//!   `BENCH_fleet.json` emitter.
//!
//! # Determinism
//!
//! Parallelism lives only in the *host* threads; each simulated device
//! is a sealed deterministic simulator. Two invariants follow:
//!
//! 1. **Per-device**: the same device seed and config produce a
//!    byte-identical trace regardless of which host thread ran the
//!    device, how many threads the pool had, or what its neighbours
//!    did. Nothing a device touches is shared.
//! 2. **Fleet-level**: results are aggregated in device-id order after
//!    the pool drains, never in completion order, so the aggregated
//!    report (and its JSON rendering) is byte-identical across thread
//!    counts and repeat runs.
//!
//! Host wall-clock time is deliberately excluded from the report; it is
//! observable through the [`cider_trace`] sink the driver accepts
//! ([`driver::run_fleet_with_sink`]) so fleet runs can be watched with
//! the existing Chrome-trace exporter without perturbing determinism.

#![warn(missing_docs)]

pub mod device;
pub mod driver;
pub mod heal;
pub mod report;
pub mod spec;

pub use device::{
    run_device, run_device_with, DeviceOutcome, DeviceResult, DeviceSim,
};
pub use driver::{run_fleet, run_fleet_with_sink, FleetRun};
pub use heal::{run_device_healed, HealConfig, HealStats};
pub use report::{bench_matrix, FleetReport, HealSummary, Percentiles};
pub use spec::{DeviceSpec, FleetSpec, PersonaMix, Workload};

#[cfg(test)]
mod send_assertions {
    //! The acceptance bar of the Send-ability refactor: whole simulated
    //! devices must cross host-thread boundaries.

    fn assert_send<T: Send>() {}

    #[test]
    fn kernel_and_bed_are_send() {
        assert_send::<cider_kernel::kernel::Kernel>();
        assert_send::<cider_bench::config::TestBed>();
        assert_send::<crate::DeviceResult>();
    }
}
