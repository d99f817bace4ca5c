//! The host-thread pool that farms devices out.
//!
//! [`run_fleet`] derives the per-device specs, spreads them over
//! `spec.host_threads` scoped worker threads with a work-stealing
//! index (an atomic next-device counter — idle workers steal whatever
//! device is next, so an expensive device never serialises the fleet
//! behind it). Each worker owns the devices it runs and returns their
//! results; the driver merges those lists **in device-id order** once
//! the pool drains. The counter is the only state the workers share,
//! and completion order never leaks into the output, which is what
//! makes the aggregated report byte-identical across thread counts.
//!
//! Host wall-clock time is observability, not data: it goes only to
//! the optional [`TraceSink`] ([`run_fleet_with_sink`]), never into
//! [`FleetRun`] or the JSON report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cider_trace::{EventKind, TraceContext, TraceSink};

use crate::device::{run_device_with, DeviceResult};
use crate::heal::run_device_healed;
use crate::spec::FleetSpec;

/// The raw outcome of a fleet run: every device's result, in
/// device-id order, plus the spec that produced them.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The experiment that was run.
    pub spec: FleetSpec,
    /// One result per device, indexed by device id.
    pub results: Vec<DeviceResult>,
}

impl FleetRun {
    /// FNV-1a digest over the per-device fingerprints in id order:
    /// one number that must survive any host-thread count.
    pub fn fleet_fingerprint(&self) -> u64 {
        let mut h = cider_abi::hash::Fnv1a::new();
        for r in &self.results {
            h.write_u64(u64::from(r.device_id));
            h.write_u64(r.trace_fingerprint);
        }
        h.0
    }
}

/// Runs the fleet described by `spec` with no host-side tracing.
pub fn run_fleet(spec: &FleetSpec) -> FleetRun {
    run_fleet_with_sink(spec, &mut TraceSink::disabled())
}

/// Runs the fleet, reporting host-side progress to `sink`:
/// a `fleet/devices_completed` counter, a `fleet/device_wall_ns`
/// histogram of per-device host wall-clock, and one `Mark` event per
/// finished device (visible through the Chrome-trace exporter),
/// recorded after the pool drains, in device-id order.
///
/// The sink sees *host* observability only — nothing recorded here
/// feeds back into any device or into the aggregated report.
pub fn run_fleet_with_sink(
    spec: &FleetSpec,
    sink: &mut TraceSink,
) -> FleetRun {
    let specs = spec.device_specs();
    let threads = spec.host_threads.max(1).min(specs.len().max(1));
    let next = AtomicUsize::new(0);

    // Each worker claims devices off the shared counter and returns
    // what it ran; sorting the merged list by index restores device-id
    // order and discards completion order.
    let worker = || {
        let mut ran = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(device) = specs.get(idx) else {
                break ran;
            };
            let started = Instant::now();
            let result = match &spec.heal {
                Some(config) => run_device_healed(device, config),
                None => run_device_with(device, spec.watchdog_budget_ns),
            };
            ran.push((idx, result, started.elapsed().as_nanos() as u64));
        }
    };
    let mut done: Vec<(usize, DeviceResult, u64)> =
        std::thread::scope(|scope| {
            let workers: Vec<_> =
                (0..threads).map(|_| scope.spawn(worker)).collect();
            workers
                .into_iter()
                .flat_map(|w| {
                    w.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
                })
                .collect()
        });
    done.sort_unstable_by_key(|&(idx, ..)| idx);

    let results = done
        .into_iter()
        .map(|(idx, result, wall_ns)| {
            let device_id = specs[idx].device_id;
            sink.incr("fleet/devices_completed");
            sink.observe("fleet/device_wall_ns", wall_ns);
            sink.record(
                TraceContext {
                    ts_ns: result.virtual_ns,
                    pid: 0,
                    tid: device_id,
                    foreign: result.config.runs_ios_binary(),
                },
                EventKind::Mark {
                    label: format!("fleet/device_{device_id}_done").into(),
                },
            );
            result
        })
        .collect();

    FleetRun {
        spec: spec.clone(),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    fn fingerprints(run: &FleetRun) -> Vec<u64> {
        run.results.iter().map(|r| r.trace_fingerprint).collect()
    }

    #[test]
    fn results_come_back_in_device_id_order() {
        let spec = FleetSpec::new(6, 3, Workload::LmbenchMix { ops: 4 })
            .host_threads(3);
        let run = run_fleet(&spec);
        let ids: Vec<u32> = run.results.iter().map(|r| r.device_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let base = FleetSpec::new(8, 77, Workload::LmbenchMix { ops: 6 });
        let one = run_fleet(&base.clone().host_threads(1));
        let four = run_fleet(&base.host_threads(4));
        assert_eq!(fingerprints(&one), fingerprints(&four));
        assert_eq!(one.fleet_fingerprint(), four.fleet_fingerprint());
    }

    #[test]
    fn healed_faulted_fleet_is_thread_invariant() {
        let base = FleetSpec::new(8, 21, Workload::LmbenchMix { ops: 8 })
            .fault_plan(cider_fault::FaultPlan::lifecycle(9))
            .heal(crate::heal::HealConfig::default());
        let one = run_fleet(&base.clone().host_threads(1));
        let four = run_fleet(&base.host_threads(4));
        assert_eq!(one.fleet_fingerprint(), four.fleet_fingerprint());
        for (a, b) in one.results.iter().zip(&four.results) {
            assert_eq!(a.heal, b.heal);
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn plain_watchdog_budget_wedges_devices_instead_of_hanging() {
        let spec = FleetSpec::new(3, 5, Workload::LmbenchMix { ops: 4 })
            .watchdog_budget_ns(1)
            .host_threads(2);
        let run = run_fleet(&spec);
        for r in &run.results {
            assert!(matches!(
                r.outcome,
                crate::device::DeviceOutcome::Wedged { .. }
            ));
        }
    }

    #[test]
    fn sink_sees_fleet_progress() {
        let mut sink = TraceSink::enabled_default();
        let spec = FleetSpec::new(5, 5, Workload::LaunchStorm { launches: 2 })
            .host_threads(2);
        let run = run_fleet_with_sink(&spec, &mut sink);
        assert_eq!(run.results.len(), 5);
        assert_eq!(sink.counter("fleet/devices_completed"), 5);
        let snap = sink.snapshot().unwrap();
        assert_eq!(
            snap.metrics
                .histograms_with_prefix("fleet/")
                .iter()
                .map(|(name, h)| (name.to_string(), h.count()))
                .collect::<Vec<_>>(),
            vec![("fleet/device_wall_ns".to_string(), 5)]
        );
        // Marks follow device-id order, whatever order workers finished.
        let marks: Vec<String> = snap
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Mark { label } => Some(label.to_string()),
                _ => None,
            })
            .collect();
        let want: Vec<String> =
            (0..5).map(|id| format!("fleet/device_{id}_done")).collect();
        assert_eq!(marks, want);
    }
}
