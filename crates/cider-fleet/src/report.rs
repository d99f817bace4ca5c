//! Deterministic fleet-level aggregation and the `BENCH_fleet.json`
//! emitter.
//!
//! A [`FleetReport`] reduces a [`FleetRun`] to per-group percentile
//! tables: the "all" group covers every device, and one group per
//! configuration slug (`cider_ios`, `cider_android`) covers each
//! persona. Counter percentiles are nearest-rank over the sorted
//! per-device values; latency percentiles come from merging the
//! per-device log₂ histograms and asking the merged histogram for its
//! quantiles. Everything is aggregated in device-id order from
//! `BTreeMap`s, so [`FleetReport::to_json`] is byte-stable across
//! repeat runs and host-thread counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cider_trace::Histogram;

use crate::device::DeviceResult;
use crate::driver::{run_fleet, FleetRun};
use crate::spec::{FleetSpec, PersonaMix, Workload};

/// Nearest-rank p50/p95/p99 of one per-device distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl Percentiles {
    /// Nearest-rank percentiles of `values` (need not be sorted).
    /// Returns `None` for an empty slice.
    pub fn of(values: &[u64]) -> Option<Percentiles> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = |q: f64| -> u64 {
            // Nearest-rank: ceil(q * n), 1-based, clamped into range.
            let n = sorted.len();
            let r = (q * n as f64).ceil() as usize;
            sorted[r.clamp(1, n) - 1]
        };
        Some(Percentiles {
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
        })
    }

    /// The same three quantiles read off a merged histogram.
    pub fn of_histogram(h: &Histogram) -> Option<Percentiles> {
        Some(Percentiles {
            p50: h.quantile(0.50)?,
            p95: h.quantile(0.95)?,
            p99: h.quantile(0.99)?,
        })
    }
}

/// Aggregates for one device group (the whole fleet or one persona).
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Devices in the group.
    pub devices: u64,
    /// Workload units completed across the group.
    pub units_total: u64,
    /// Faults injected across the group.
    pub faults_total: u64,
    /// Recoveries taken across the group.
    pub recoveries_total: u64,
    /// Per-device scalar distributions (virtual_ns, units, faults,
    /// recoveries, events), keyed by counter name.
    pub counters: BTreeMap<String, Percentiles>,
    /// Quantiles of the merged per-device latency histograms, keyed
    /// by histogram name (`op/...`, `launch/...`).
    pub latencies: BTreeMap<String, Percentiles>,
    /// Launch-storm throughput percentiles, launches per virtual
    /// second ×1000 (fixed-point so the report stays integral and
    /// byte-stable). `None` unless the workload was a launch storm.
    pub launches_per_vsec_milli: Option<Percentiles>,
}

impl GroupReport {
    fn from_devices(devices: &[&DeviceResult]) -> GroupReport {
        let mut counters = BTreeMap::new();
        let mut scalar = |name: &str, f: &dyn Fn(&DeviceResult) -> u64| {
            let values: Vec<u64> = devices.iter().map(|d| f(d)).collect();
            if let Some(p) = Percentiles::of(&values) {
                counters.insert(name.to_string(), p);
            }
        };
        scalar("device/virtual_ns", &|d| d.virtual_ns);
        scalar("device/units_completed", &|d| d.units_completed);
        scalar("device/faults_injected", &|d| d.faults_injected);
        scalar("device/recoveries", &|d| d.recoveries);
        scalar("device/events_retained", &|d| d.events_retained);

        // Merge each named workload histogram across the group, then
        // take quantiles of the merged population.
        let mut merged: BTreeMap<String, Histogram> = BTreeMap::new();
        for d in devices {
            for (name, h) in &d.workload_metrics.histograms {
                merged.entry(name.clone()).or_default().merge(h);
            }
        }
        let latencies = merged
            .iter()
            .filter_map(|(name, h)| {
                Percentiles::of_histogram(h).map(|p| (name.clone(), p))
            })
            .collect();

        let throughputs: Vec<u64> = devices
            .iter()
            .filter_map(|d| d.launches_per_vsec)
            .map(|v| (v * 1000.0).round() as u64)
            .collect();

        GroupReport {
            devices: devices.len() as u64,
            units_total: devices.iter().map(|d| d.units_completed).sum(),
            faults_total: devices.iter().map(|d| d.faults_injected).sum(),
            recoveries_total: devices.iter().map(|d| d.recoveries).sum(),
            counters,
            latencies,
            launches_per_vsec_milli: Percentiles::of(&throughputs),
        }
    }
}

/// Fleet-wide self-healing aggregates; present only when the run was
/// healed ([`crate::spec::FleetSpec::heal`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealSummary {
    /// Injected crashes caught across the fleet.
    pub crashes: u64,
    /// Wedges caught across the fleet (injected or watchdog).
    pub wedges: u64,
    /// Checkpoint frames rejected during restores.
    pub corrupt_detected: u64,
    /// Restores performed across the fleet.
    pub restores: u64,
    /// Workload units re-executed by restores.
    pub replayed_units: u64,
    /// Checkpoint frames written across the fleet.
    pub checkpoints_taken: u64,
    /// Devices that needed ≥ 1 restore and still completed.
    pub recovered_devices: u64,
    /// Devices that exhausted their retries and reported
    /// [`crate::device::DeviceOutcome::Wedged`].
    pub wedged_devices: u64,
}

impl HealSummary {
    fn from_devices(devices: &[&DeviceResult]) -> HealSummary {
        let mut s = HealSummary::default();
        for d in devices {
            let Some(stats) = &d.heal else { continue };
            s.crashes += stats.crashes;
            s.wedges += stats.wedges;
            s.corrupt_detected += stats.corrupt_detected;
            s.restores += stats.restores;
            s.replayed_units += stats.replayed_units;
            s.checkpoints_taken += stats.checkpoints_taken;
            let completed =
                d.outcome == crate::device::DeviceOutcome::Completed;
            if completed && stats.restores > 0 {
                s.recovered_devices += 1;
            }
            if !completed {
                s.wedged_devices += 1;
            }
        }
        s
    }
}

/// The fleet-level percentile report: deterministic aggregation of a
/// [`FleetRun`], renderable as stable JSON.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Devices in the fleet.
    pub devices: u32,
    /// Master seed.
    pub seed: u64,
    /// Workload slug (`lmbench_mix`, `launch_storm`, `conform_ops`).
    pub workload: String,
    /// Workload units per device.
    pub units_per_device: u32,
    /// Persona-mix slug (`even`, `all_ios`, ...).
    pub mix: String,
    /// Fault-plan seed, if the fleet armed one.
    pub fault_seed: Option<u64>,
    /// Fleet-wide recovery totals; `Some` only for healed runs.
    pub healing: Option<HealSummary>,
    /// Devices wedged by the plain-run per-unit watchdog; `Some` only
    /// when a watchdog budget was armed without healing.
    pub watchdog_wedged: Option<u64>,
    /// FNV-1a digest over per-device fingerprints in id order.
    pub fleet_fingerprint: u64,
    /// Per-group aggregates: always `all`, plus one group per
    /// configuration slug present in the fleet.
    pub groups: BTreeMap<String, GroupReport>,
}

impl FleetReport {
    /// Aggregates a finished run. Device-id order in, sorted maps
    /// out: the rendering is independent of completion order.
    pub fn from_run(run: &FleetRun) -> FleetReport {
        let all: Vec<&DeviceResult> = run.results.iter().collect();
        let mut groups = BTreeMap::new();
        groups.insert("all".to_string(), GroupReport::from_devices(&all));
        let mut by_config: BTreeMap<&str, Vec<&DeviceResult>> =
            BTreeMap::new();
        for d in &run.results {
            by_config.entry(d.config.slug()).or_default().push(d);
        }
        for (slug, devices) in by_config {
            groups
                .insert(slug.to_string(), GroupReport::from_devices(&devices));
        }
        FleetReport {
            devices: run.spec.devices,
            seed: run.spec.seed,
            workload: run.spec.workload.slug().to_string(),
            units_per_device: run.spec.workload.units(),
            mix: run.spec.mix.slug(),
            fault_seed: run.spec.fault_plan.as_ref().map(|p| p.seed),
            healing: run
                .spec
                .heal
                .as_ref()
                .map(|_| HealSummary::from_devices(&all)),
            watchdog_wedged: match (
                &run.spec.heal,
                run.spec.watchdog_budget_ns,
            ) {
                (None, Some(_)) => Some(
                    all.iter()
                        .filter(|d| {
                            d.outcome
                                != crate::device::DeviceOutcome::Completed
                        })
                        .count() as u64,
                ),
                _ => None,
            },
            fleet_fingerprint: run.fleet_fingerprint(),
            groups,
        }
    }

    /// Renders the report as stable, human-diffable JSON. Key order
    /// is fixed (struct order + BTreeMap order) and every value is
    /// integral, so two equal reports are byte-identical.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"devices\": {},", self.devices);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(
            out,
            "  \"units_per_device\": {},",
            self.units_per_device
        );
        let _ = writeln!(out, "  \"mix\": \"{}\",", self.mix);
        match self.fault_seed {
            Some(seed) => {
                let _ = writeln!(out, "  \"fault_seed\": {seed},");
            }
            None => out.push_str("  \"fault_seed\": null,\n"),
        }
        if let Some(w) = self.watchdog_wedged {
            let _ = writeln!(out, "  \"watchdog_wedged_devices\": {w},");
        }
        if let Some(h) = &self.healing {
            out.push_str("  \"healing\": {\n");
            let _ = writeln!(out, "    \"crashes\": {},", h.crashes);
            let _ = writeln!(out, "    \"wedges\": {},", h.wedges);
            let _ = writeln!(
                out,
                "    \"corrupt_detected\": {},",
                h.corrupt_detected
            );
            let _ = writeln!(out, "    \"restores\": {},", h.restores);
            let _ =
                writeln!(out, "    \"replayed_units\": {},", h.replayed_units);
            let _ = writeln!(
                out,
                "    \"checkpoints_taken\": {},",
                h.checkpoints_taken
            );
            let _ = writeln!(
                out,
                "    \"recovered_devices\": {},",
                h.recovered_devices
            );
            let _ =
                writeln!(out, "    \"wedged_devices\": {}", h.wedged_devices);
            out.push_str("  },\n");
        }
        let _ = writeln!(
            out,
            "  \"fleet_fingerprint\": \"{:016x}\",",
            self.fleet_fingerprint
        );
        out.push_str("  \"groups\": {\n");
        let n_groups = self.groups.len();
        for (gi, (name, g)) in self.groups.iter().enumerate() {
            let _ = writeln!(out, "    \"{name}\": {{");
            let _ = writeln!(out, "      \"devices\": {},", g.devices);
            let _ = writeln!(out, "      \"units_total\": {},", g.units_total);
            let _ =
                writeln!(out, "      \"faults_total\": {},", g.faults_total);
            let _ = writeln!(
                out,
                "      \"recoveries_total\": {},",
                g.recoveries_total
            );
            Self::json_percentile_map(&mut out, "counters", &g.counters, true);
            Self::json_percentile_map(
                &mut out,
                "latency_ns",
                &g.latencies,
                true,
            );
            match &g.launches_per_vsec_milli {
                Some(p) => {
                    let _ = writeln!(
                        out,
                        "      \"launches_per_vsec_milli\": \
                         {{\"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                        p.p50, p.p95, p.p99
                    );
                }
                None => {
                    out.push_str("      \"launches_per_vsec_milli\": null\n")
                }
            }
            if gi + 1 == n_groups {
                out.push_str("    }\n");
            } else {
                out.push_str("    },\n");
            }
        }
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }

    fn json_percentile_map(
        out: &mut String,
        key: &str,
        map: &BTreeMap<String, Percentiles>,
        trailing_comma: bool,
    ) {
        let _ = writeln!(out, "      \"{key}\": {{");
        let n = map.len();
        for (i, (name, p)) in map.iter().enumerate() {
            let comma = if i + 1 == n { "" } else { "," };
            let _ = writeln!(
                out,
                "        \"{name}\": {{\"p50\": {}, \"p95\": {}, \
                 \"p99\": {}}}{comma}",
                p.p50, p.p95, p.p99
            );
        }
        let comma = if trailing_comma { "," } else { "" };
        let _ = writeln!(out, "      }}{comma}");
    }
}

/// Renders the canonical checked-in `BENCH_fleet.json` matrix on
/// `threads` host threads: the headline workloads across the three
/// persona mixes, 64 devices per cell, faults off so the latency
/// numbers are the clean baseline.
pub fn bench_matrix(threads: usize) -> String {
    let mixes = [
        PersonaMix::ALL_IOS,
        PersonaMix::ALL_ANDROID,
        PersonaMix::EVEN,
    ];
    let workloads = [
        Workload::LmbenchMix { ops: 16 },
        Workload::LaunchStorm { launches: 8 },
        Workload::LaunchStormWarm { launches: 8 },
        // Appended last so the earlier cells of the committed
        // BENCH_fleet.json stay byte-identical.
        Workload::IpcStorm { msgs: 8 },
        Workload::AppLifecycle { cycles: 4 },
    ];
    let mut cells = Vec::new();
    for workload in workloads {
        for mix in mixes {
            let spec = FleetSpec::new(64, 42, workload)
                .mix(mix)
                .host_threads(threads);
            let json = FleetReport::from_run(&run_fleet(&spec)).to_json();
            // Indent each cell two levels to nest under the array.
            let indented: String = json
                .trim_end()
                .lines()
                .map(|l| format!("    {l}\n"))
                .collect();
            cells.push(indented.trim_end().to_string());
        }
    }
    format!("{{\n  \"fleet_bench\": [\n{}\n  ]\n}}\n", cells.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_fleet;
    use crate::spec::{FleetSpec, PersonaMix, Workload};

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<u64> = (1..=100).collect();
        let p = Percentiles::of(&values).unwrap();
        assert_eq!(p.p50, 50);
        assert_eq!(p.p95, 95);
        assert_eq!(p.p99, 99);
        assert_eq!(
            Percentiles::of(&[7]),
            Some(Percentiles {
                p50: 7,
                p95: 7,
                p99: 7
            })
        );
        assert_eq!(Percentiles::of(&[]), None);
    }

    #[test]
    fn report_groups_by_persona_and_is_stable() {
        let spec = FleetSpec::new(8, 21, Workload::LmbenchMix { ops: 5 })
            .mix(PersonaMix::EVEN)
            .host_threads(2);
        let run = run_fleet(&spec);
        let report = FleetReport::from_run(&run);
        assert_eq!(report.groups.len(), 3);
        assert_eq!(report.groups["cider_ios"].devices, 4);
        assert_eq!(report.groups["cider_android"].devices, 4);
        assert_eq!(report.groups["all"].devices, 8);
        // Identical runs render identical bytes.
        let again = FleetReport::from_run(&run_fleet(&spec));
        assert_eq!(report.to_json(), again.to_json());
    }

    #[test]
    fn healed_faulted_fleet_reports_recoveries_and_is_stable() {
        let spec = FleetSpec::new(8, 21, Workload::LmbenchMix { ops: 8 })
            .fault_plan(cider_fault::FaultPlan::lifecycle(9))
            .heal(crate::heal::HealConfig::default())
            .host_threads(2);
        let report = FleetReport::from_run(&run_fleet(&spec));
        let healing = report.healing.clone().unwrap();
        // The healing block renders between fault_seed and the
        // fingerprint, and re-running yields identical bytes.
        let json = report.to_json();
        assert!(json.contains("\"healing\": {"));
        let again = FleetReport::from_run(&run_fleet(&spec));
        assert_eq!(json, again.to_json());
        // Every device wrote at least a baseline checkpoint.
        assert!(healing.checkpoints_taken >= 8);
        // Faults seen fleet-wide imply restores recorded fleet-wide.
        assert_eq!(
            healing.restores >= 1,
            healing.crashes + healing.wedges >= 1
        );
    }

    #[test]
    fn plain_report_has_no_healing_block() {
        let spec = FleetSpec::new(2, 4, Workload::LmbenchMix { ops: 2 });
        let report = FleetReport::from_run(&run_fleet(&spec));
        assert!(report.healing.is_none());
        assert!(report.watchdog_wedged.is_none());
        let json = report.to_json();
        assert!(!json.contains("healing"));
        assert!(!json.contains("watchdog_wedged_devices"));
    }

    #[test]
    fn plain_watchdog_run_reports_wedged_device_count() {
        // An impossible 1 ns per-unit budget wedges every device; the
        // plain (unhealed) report must surface that count instead of
        // silently showing zero completed units.
        let spec = FleetSpec::new(4, 9, Workload::LmbenchMix { ops: 3 })
            .watchdog_budget_ns(1);
        let report = FleetReport::from_run(&run_fleet(&spec));
        assert_eq!(report.watchdog_wedged, Some(4));
        assert!(report.to_json().contains("\"watchdog_wedged_devices\": 4,"));
        // A generous budget reports the field with zero wedges.
        let calm = FleetSpec::new(4, 9, Workload::LmbenchMix { ops: 3 })
            .watchdog_budget_ns(u64::MAX / 2);
        let calm_report = FleetReport::from_run(&run_fleet(&calm));
        assert_eq!(calm_report.watchdog_wedged, Some(0));
    }

    #[test]
    fn launch_storm_reports_throughput_percentiles() {
        let spec = FleetSpec::new(4, 2, Workload::LaunchStorm { launches: 3 });
        let report = FleetReport::from_run(&run_fleet(&spec));
        let all = &report.groups["all"];
        assert!(all.launches_per_vsec_milli.is_some());
        assert_eq!(all.units_total, 12);
        assert!(all.latencies.contains_key("launch/latency"));
    }
}
