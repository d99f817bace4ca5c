//! One device: boot, workload, trace fingerprint.
//!
//! [`DeviceSim`] is a device broken into *steps*: boot once, run one
//! workload unit at a time, and capture or fingerprint the state at
//! any unit boundary. [`run_device`] drives a sim to completion in one
//! call — the unit the driver farms out for plain (non-healing) runs —
//! while the healing driver (`crate::heal`) interleaves steps with
//! checkpoints and crash boundaries.
//!
//! Everything observable — the virtual clock, every counter, every
//! histogram, every retained trace event, and the fault/recovery
//! ledger — reduces to a 64-bit FNV-1a fingerprint. The fingerprint is
//! the determinism oracle: two runs of the same [`DeviceSpec`] must
//! agree on it bit for bit, whichever host thread ran them. Healing
//! state (outcome, recovery ledger) folds into the fingerprint only
//! when present, so plain fault-free runs keep their historical
//! fingerprints.

use cider_abi::hash::Fnv1a;
use cider_abi::ids::{Pid, Tid};
use cider_bench::apps;
use cider_bench::config::TestBed;
use cider_bench::fig5::{run_micro, Micro};
use cider_bench::lmbench;
use cider_bench::SystemConfig;
use cider_ckpt::StateImage;
use cider_conform::{execute, generate, Coverage};
use cider_core::RingOp;
use cider_fault::{FaultLayer, SplitMix64};
use cider_frameworks::scenarios;
use cider_kernel::clock::WatchdogExpired;
use cider_trace::{Metrics, MetricsSnapshot};
use cider_xnu::ipc::UserMessage;
use cider_xnu::KernReturn;

use crate::heal::HealStats;
use crate::spec::{DeviceSpec, Workload};

/// The operations the lmbench-mix workload draws from: the cheap,
/// always-possible Figure 5 rows. Process-heavy rows (fork+exec,
/// fork+sh) belong to the launch-storm workload instead.
pub const LMBENCH_MENU: [Micro; 8] = [
    Micro::NullSyscall,
    Micro::Read,
    Micro::Write,
    Micro::OpenClose,
    Micro::SignalHandler,
    Micro::Pipe,
    Micro::AfUnix,
    Micro::ForkExit,
];

/// How a device's run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceOutcome {
    /// Every workload unit ran.
    Completed,
    /// The virtual-time watchdog expired (or healing retries ran out)
    /// at the given unit; the device reports partial results instead
    /// of hanging its host-thread pool slot.
    Wedged {
        /// The unit that was being attempted when the device wedged.
        at_unit: u64,
    },
}

/// Everything a device run produced, detached from the bed.
#[derive(Debug, Clone)]
pub struct DeviceResult {
    /// Fleet position.
    pub device_id: u32,
    /// The seed the device ran under.
    pub seed: u64,
    /// The configuration it booted.
    pub config: SystemConfig,
    /// Final virtual-clock reading, ns since boot.
    pub virtual_ns: u64,
    /// Workload units completed (ops, launches, or programs).
    pub units_completed: u64,
    /// Launch-storm throughput, launches per virtual second
    /// (`None` for other workloads).
    pub launches_per_vsec: Option<f64>,
    /// The device kernel's own trace metrics (syscall histograms,
    /// mechanism counters).
    pub kernel_metrics: MetricsSnapshot,
    /// Fleet-side workload metrics: per-operation virtual latency
    /// histograms under `op/` and `launch/`.
    pub workload_metrics: MetricsSnapshot,
    /// Faults the device's plan actually injected.
    pub faults_injected: u64,
    /// Recovery actions its supervisors took.
    pub recoveries: u64,
    /// Trace events retained in the device's ring.
    pub events_retained: u64,
    /// How the run ended.
    pub outcome: DeviceOutcome,
    /// Self-healing statistics, present only for healed runs.
    pub heal: Option<HealStats>,
    /// FNV-1a digest of the full observable trace.
    pub trace_fingerprint: u64,
}

fn fingerprint_metrics(h: &mut Fnv1a, snap: &MetricsSnapshot) {
    for (name, v) in &snap.counters {
        h.write_str(name);
        h.write_u64(*v);
    }
    for (name, hist) in &snap.histograms {
        h.write_str(name);
        h.write_u64(hist.count());
        h.write_u64(hist.sum());
        h.write_u64(hist.min().unwrap_or(0));
        h.write_u64(hist.max().unwrap_or(0));
        for &b in hist.buckets() {
            h.write_u64(b);
        }
    }
}

/// One device broken into unit-sized steps.
///
/// The sim is a pure function of its spec: booting twice and stepping
/// the same number of units reproduces byte-identical state (that
/// replayability is exactly what `cider-ckpt`'s replay-verified
/// restore leans on). Nothing here reads host time or shared state.
pub struct DeviceSim {
    spec: DeviceSpec,
    bed: TestBed,
    pid: Pid,
    tid: Tid,
    workload: Metrics,
    units: u64,
    cursor: u64,
    total: u64,
    rng: SplitMix64,
    storm_start: u64,
    extra: Fnv1a,
    coverage: Coverage,
}

impl DeviceSim {
    /// Boots the device: traced test bed, measured process, armed
    /// fault plan. Faults arm after the measured process boots: they
    /// target the device's workload, not the harness, so every device
    /// produces a ledger instead of dying in setup.
    pub fn boot(spec: &DeviceSpec) -> DeviceSim {
        let mut bed = TestBed::builder(spec.config).traced().build();
        let (pid, tid) = bed.spawn_measured().expect("bench binary installed");
        if let Some(plan) = &spec.fault_plan {
            bed.sys.kernel.faults = FaultLayer::with_plan(plan.clone());
        }
        let storm_start = bed.sys.kernel.clock.now_ns();
        DeviceSim {
            spec: spec.clone(),
            bed,
            pid,
            tid,
            workload: Metrics::new(),
            units: 0,
            cursor: 0,
            total: u64::from(spec.workload.units()),
            rng: SplitMix64::new(spec.seed),
            storm_start,
            extra: Fnv1a::new(),
            coverage: Coverage::new(Vec::<String>::new()),
        }
    }

    /// Workload units attempted so far (the checkpoint cursor).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Whether every workload unit has been attempted.
    pub fn done(&self) -> bool {
        self.cursor >= self.total
    }

    /// The device kernel's virtual clock, ns since boot.
    pub fn now_ns(&self) -> u64 {
        self.bed.sys.kernel.clock.now_ns()
    }

    /// Arms the kernel clock's watchdog at `now + budget_ns`: if the
    /// next step burns more virtual time than the budget, the clock
    /// panics with [`WatchdogExpired`] (catch it with a crash
    /// boundary).
    pub fn arm_watchdog(&mut self, budget_ns: u64) {
        let limit = self.now_ns().saturating_add(budget_ns);
        self.bed.sys.kernel.clock.arm_watchdog(limit);
    }

    /// Disarms the watchdog (between steps, so checkpoints always see
    /// the disarmed value).
    pub fn disarm_watchdog(&mut self) {
        self.bed.sys.kernel.clock.disarm_watchdog();
    }

    /// Runs one workload unit and advances the cursor. Call only when
    /// `!self.done()`.
    pub fn step(&mut self) {
        match self.spec.workload {
            Workload::LmbenchMix { .. } => {
                let micro = LMBENCH_MENU
                    [self.rng.below(LMBENCH_MENU.len() as u64) as usize];
                if let Some(ns) =
                    run_micro(&mut self.bed, self.pid, self.tid, micro)
                {
                    let name = format!("op/{}", micro.name());
                    self.workload.observe(&name, ns as u64);
                    self.workload.observe("op/all", ns as u64);
                    self.units += 1;
                }
            }
            Workload::LaunchStorm { .. } => {
                let ios = self.spec.config.runs_ios_binary();
                if let Ok(d) =
                    lmbench::fork_exec_lat(&mut self.bed, self.tid, ios)
                {
                    self.workload.observe("launch/latency", d.ns);
                    self.units += 1;
                }
            }
            Workload::LaunchStormWarm { .. } => {
                // Warm start is device policy, toggled deterministically
                // before every unit so checkpoint replay re-derives the
                // same state: the first launch bakes the shared cache,
                // every later launch forks CoW and maps it O(1).
                self.bed.sys.kernel.warm.set_enabled(true);
                let ios = self.spec.config.runs_ios_binary();
                if let Ok(d) =
                    lmbench::fork_exec_lat(&mut self.bed, self.tid, ios)
                {
                    self.workload.observe("launch/latency", d.ns);
                    self.units += 1;
                }
            }
            Workload::IpcStorm { .. } => {
                // IPC v2 is device policy, toggled deterministically
                // before every unit (mirroring the warm-start toggle)
                // so checkpoint replay re-derives the same state.
                self.bed.sys.enable_ipc_v2();
                let t0 = self.now_ns();
                if let Ok(n) =
                    ipc_storm_unit(&mut self.bed, self.tid, self.cursor)
                {
                    self.workload.observe("ipc/unit", self.now_ns() - t0);
                    self.workload.add("ipc/messages", n);
                    self.units += 1;
                }
            }
            Workload::ConformOps { .. } => {
                // The conform engine boots its own differential beds;
                // the observations fold into the fingerprint so
                // divergence regressions show up as fleet-level
                // determinism breaks.
                let program =
                    generate(self.spec.seed, self.cursor, &self.coverage);
                let outcome = execute(&program, self.spec.fault_plan.as_ref());
                for config in cider_conform::ConfigId::ALL {
                    self.extra
                        .write_str(&outcome.observation(config).to_line());
                }
                self.units += 1;
            }
            Workload::AppLifecycle { .. } => {
                // The scenario bundle is (re)installed before every
                // unit — idempotent overlay writes, mirroring the
                // policy-toggle idiom — so checkpoint replay
                // re-derives the same VFS state wherever it resumes.
                let spec = apps::app_spec(&mut self.bed);
                let on_render = apps::render_trap(self.spec.config);
                let t0 = self.now_ns();
                if let Ok(out) = scenarios::full_cycle(
                    &mut self.bed.sys,
                    &spec,
                    8,
                    self.spec.seed ^ self.cursor,
                    on_render,
                ) {
                    self.workload.observe("app/cycle", self.now_ns() - t0);
                    self.workload.add("app/transitions", out.transitions);
                    self.workload.add("app/audio_missed", out.audio_missed);
                    self.units += 1;
                }
            }
        }
        self.cursor += 1;
    }

    /// Captures the device's full observable state as a byte-stable
    /// [`StateImage`]: every kernel section (clock, counters, procs,
    /// threads, VFS, IPC buffers, scheduler, fault streams) plus the
    /// fleet-side workload sections (cursor, workload RNG, metrics,
    /// gfx counters). Two sims that booted the same spec and stepped
    /// the same units capture identical images.
    pub fn capture(&self) -> StateImage {
        let mut img = cider_ckpt::capture_kernel(&self.bed.sys.kernel);
        img.push_section(
            "fleet/cursor",
            vec![
                ("cursor".to_string(), self.cursor.to_string()),
                ("units".to_string(), self.units.to_string()),
                ("storm_start".to_string(), self.storm_start.to_string()),
                (
                    "rng_state".to_string(),
                    format!("{:016x}", self.rng.state()),
                ),
                ("extra".to_string(), format!("{:016x}", self.extra.0)),
            ],
        );
        img.push_section("fleet/workload", self.workload_records());
        img.push_section("fleet/gfx", self.gfx_records());
        img
    }

    fn workload_records(&self) -> Vec<(String, String)> {
        let snap = self.workload.snapshot();
        let mut out = Vec::new();
        for (name, v) in &snap.counters {
            out.push((format!("counter:{name}"), v.to_string()));
        }
        for (name, hist) in &snap.histograms {
            let mut digest = Fnv1a::new();
            for &b in hist.buckets() {
                digest.write_u64(b);
            }
            out.push((
                format!("hist:{name}"),
                format!(
                    "count={} sum={} min={} max={} buckets={:016x}",
                    hist.count(),
                    hist.sum(),
                    hist.min().unwrap_or(0),
                    hist.max().unwrap_or(0),
                    digest.0,
                ),
            ));
        }
        out
    }

    fn gfx_records(&self) -> Vec<(String, String)> {
        let gfx = self.bed.gfx();
        vec![
            ("gpu_busy_ns".to_string(), gfx.gpu.gpu_busy_ns.to_string()),
            ("retired".to_string(), gfx.gpu.retired.to_string()),
            ("bug_stalls".to_string(), gfx.gpu.bug_stalls.to_string()),
            (
                "fence_timeouts".to_string(),
                gfx.gpu.fence_timeouts.to_string(),
            ),
            ("pending".to_string(), gfx.gpu.pending().to_string()),
        ]
    }

    /// Finishes the run: finalises workload aggregates, fingerprints
    /// everything observable, and detaches a [`DeviceResult`].
    pub fn finish(
        mut self,
        outcome: DeviceOutcome,
        heal: Option<HealStats>,
    ) -> DeviceResult {
        let mut launches_per_vsec = None;
        if matches!(
            self.spec.workload,
            Workload::LaunchStorm { .. } | Workload::LaunchStormWarm { .. }
        ) {
            let span = self.now_ns() - self.storm_start;
            self.workload.add("launch/completed", self.units);
            self.workload.observe("launch/storm_span", span);
            if span > 0 {
                launches_per_vsec =
                    Some(self.units as f64 * 1e9 / span as f64);
            }
        }

        let snap = self.bed.trace_snapshot().expect("bed was built traced");
        let faults = &self.bed.sys.kernel.faults;

        let mut h = Fnv1a::new();
        h.write_u64(u64::from(self.spec.device_id));
        h.write_u64(self.spec.seed);
        h.write_str(self.spec.config.slug());
        h.write_u64(self.bed.sys.kernel.clock.now_ns());
        fingerprint_metrics(&mut h, &snap.metrics);
        fingerprint_metrics(&mut h, &self.workload.snapshot());
        h.write_u64(snap.dropped);
        for ev in &snap.events {
            h.write_str(&format!("{ev:?}"));
        }
        for rec in faults.ledger() {
            h.write_str(&format!("{rec:?}"));
        }
        for rec in faults.recoveries() {
            h.write_str(&format!("{rec:?}"));
        }
        h.write_u64(self.extra.0);
        // Healing and wedge state fold in only when present, so plain
        // completed runs keep their historical fingerprints.
        if outcome != DeviceOutcome::Completed {
            h.write_str(&format!("outcome={outcome:?}"));
        }
        if let Some(stats) = &heal {
            stats.fold_into(&mut h);
        }

        let harness_recoveries =
            heal.as_ref().map_or(0, |s| s.ledger.len() as u64);
        DeviceResult {
            device_id: self.spec.device_id,
            seed: self.spec.seed,
            config: self.spec.config,
            virtual_ns: self.bed.sys.kernel.clock.now_ns(),
            units_completed: self.units,
            launches_per_vsec,
            kernel_metrics: snap.metrics,
            workload_metrics: self.workload.snapshot(),
            faults_injected: faults.injected_total(),
            recoveries: faults.recoveries().len() as u64 + harness_recoveries,
            events_retained: snap.events.len() as u64,
            outcome,
            heal,
            trace_fingerprint: h.0,
        }
    }
}

/// One IPC-storm unit: allocate a port, round-trip one out-of-line
/// message (two pages, so v2 remaps instead of copying), then push a
/// small ring batch through one batched flush trap and drain the port.
/// Returns the messages delivered. Under an armed fault plan any
/// injected Mach error simply fails the unit; the device carries on.
fn ipc_storm_unit(
    bed: &mut TestBed,
    tid: Tid,
    cursor: u64,
) -> Result<u64, KernReturn> {
    // Stay below the default port queue limit of 5.
    const RING_BATCH: u64 = 4;
    let recv = bed.sys.mach_port_allocate(tid)?;
    let send = bed.sys.mach_make_send(tid, recv)?;
    let mut delivered = 0u64;

    let blob: Vec<u8> = (0..2 * 4096u64)
        .map(|i| (i.wrapping_add(cursor)) as u8)
        .collect();
    let mut msg = UserMessage::simple(send, 0x600, &b"ool"[..]);
    msg.ool.push(blob.into());
    bed.sys.mach_msg_send(tid, msg)?;
    bed.sys.mach_msg_receive(tid, recv)?;
    delivered += 1;

    for i in 0..RING_BATCH {
        let body = vec![b's'; 1 + ((cursor + i) % 24) as usize];
        let msg = UserMessage::simple(send, 0x700 + i as i32, body);
        bed.sys.ring_submit(tid, RingOp::Send(msg))?;
    }
    bed.sys.ring_flush(tid)?;
    for _ in 0..RING_BATCH {
        bed.sys.mach_msg_receive(tid, recv)?;
        delivered += 1;
    }
    Ok(delivered)
}

/// Runs one device to completion with no watchdog. Pure function of
/// the spec: no host state, no wall clock, no shared mutability.
pub fn run_device(spec: &DeviceSpec) -> DeviceResult {
    run_device_with(spec, None)
}

/// Runs one device, optionally arming a per-unit virtual-time watchdog
/// budget. A unit that burns more than `watchdog_budget_ns` of virtual
/// time trips the clock's watchdog; the crash boundary here catches it
/// and reports [`DeviceOutcome::Wedged`] with partial results instead
/// of hanging the host-thread pool.
pub fn run_device_with(
    spec: &DeviceSpec,
    watchdog_budget_ns: Option<u64>,
) -> DeviceResult {
    let mut sim = DeviceSim::boot(spec);
    let mut outcome = DeviceOutcome::Completed;
    match watchdog_budget_ns {
        None => {
            while !sim.done() {
                sim.step();
            }
        }
        Some(budget) => {
            crate::heal::silence_expected_unwinds();
            while !sim.done() {
                let at_unit = sim.cursor();
                sim.arm_watchdog(budget);
                let step = std::panic::catch_unwind(
                    std::panic::AssertUnwindSafe(|| sim.step()),
                );
                match step {
                    Ok(()) => sim.disarm_watchdog(),
                    Err(payload) => {
                        if payload.is::<WatchdogExpired>() {
                            outcome = DeviceOutcome::Wedged { at_unit };
                            break;
                        }
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    }
    sim.finish(outcome, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_fault::FaultPlan;

    fn spec(seed: u64) -> DeviceSpec {
        DeviceSpec {
            device_id: 0,
            seed,
            config: SystemConfig::CiderIos,
            workload: Workload::LmbenchMix { ops: 12 },
            fault_plan: None,
        }
    }

    #[test]
    fn same_spec_same_fingerprint() {
        let a = run_device(&spec(5));
        let b = run_device(&spec(5));
        assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
        assert_eq!(a.virtual_ns, b.virtual_ns);
        assert_eq!(a.units_completed, b.units_completed);
        assert_eq!(a.outcome, DeviceOutcome::Completed);
    }

    #[test]
    fn different_seed_different_fingerprint() {
        let a = run_device(&spec(5));
        let b = run_device(&spec(6));
        assert_ne!(a.trace_fingerprint, b.trace_fingerprint);
    }

    #[test]
    fn launch_storm_reports_throughput() {
        let r = run_device(&DeviceSpec {
            device_id: 1,
            seed: 9,
            config: SystemConfig::CiderAndroid,
            workload: Workload::LaunchStorm { launches: 4 },
            fault_plan: None,
        });
        assert_eq!(r.units_completed, 4);
        let per_sec = r.launches_per_vsec.unwrap();
        assert!(per_sec > 0.0, "{per_sec}");
        assert_eq!(r.workload_metrics.counter("launch/completed"), 4);
    }

    #[test]
    fn warm_storm_beats_cold_storm_on_ios_devices() {
        let storm = |workload| {
            run_device(&DeviceSpec {
                device_id: 3,
                seed: 9,
                config: SystemConfig::CiderIos,
                workload,
                fault_plan: None,
            })
        };
        let cold = storm(Workload::LaunchStorm { launches: 8 });
        let warm = storm(Workload::LaunchStormWarm { launches: 8 });
        assert_eq!(warm.units_completed, 8);
        let cold_tp = cold.launches_per_vsec.unwrap();
        let warm_tp = warm.launches_per_vsec.unwrap();
        // The first warm launch pays the cold bake, so the device-level
        // win is amortised across the storm rather than the per-launch
        // 3x of fig5; it must still be a clear throughput win.
        assert!(warm_tp > cold_tp * 2.0, "warm {warm_tp} vs cold {cold_tp}");
        // Replaying the warm storm is still byte-deterministic.
        let again = storm(Workload::LaunchStormWarm { launches: 8 });
        assert_eq!(warm.trace_fingerprint, again.trace_fingerprint);
        assert_eq!(warm.virtual_ns, again.virtual_ns);
    }

    #[test]
    fn ipc_storm_delivers_and_replays_byte_identically() {
        let storm = || {
            run_device(&DeviceSpec {
                device_id: 4,
                seed: 13,
                config: SystemConfig::CiderIos,
                workload: Workload::IpcStorm { msgs: 6 },
                fault_plan: None,
            })
        };
        let a = storm();
        assert_eq!(a.units_completed, 6);
        // One OOL round-trip plus a ring batch of four per unit.
        assert_eq!(a.workload_metrics.counter("ipc/messages"), 30);
        // The OOL blobs crossed by page remap, not byte copy.
        assert!(a.kernel_metrics.counter("ipc/ool_bytes_remapped") > 0);
        assert!(a.kernel_metrics.counter("ipc/ring_flush") > 0);
        let b = storm();
        assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
        assert_eq!(a.virtual_ns, b.virtual_ns);
    }

    #[test]
    fn faulted_device_still_completes_and_counts_injections() {
        let r = run_device(&DeviceSpec {
            device_id: 2,
            seed: 11,
            config: SystemConfig::CiderIos,
            workload: Workload::LmbenchMix { ops: 30 },
            fault_plan: Some(FaultPlan::matrix(11)),
        });
        assert!(r.faults_injected > 0);
        assert!(r.units_completed > 0);
    }

    #[test]
    fn stepwise_sim_matches_one_shot_run() {
        let s = spec(21);
        let mut sim = DeviceSim::boot(&s);
        while !sim.done() {
            sim.step();
        }
        let stepped = sim.finish(DeviceOutcome::Completed, None);
        let oneshot = run_device(&s);
        assert_eq!(stepped.trace_fingerprint, oneshot.trace_fingerprint);
        assert_eq!(stepped.virtual_ns, oneshot.virtual_ns);
    }

    #[test]
    fn capture_is_stable_and_cursor_sensitive() {
        let s = spec(33);
        let mut a = DeviceSim::boot(&s);
        let mut b = DeviceSim::boot(&s);
        assert_eq!(a.capture().to_bytes(), b.capture().to_bytes());
        a.step();
        b.step();
        let img_a = a.capture();
        assert_eq!(img_a.to_bytes(), b.capture().to_bytes());
        a.step();
        assert_ne!(a.capture().to_bytes(), img_a.to_bytes());
        for name in ["fleet/cursor", "fleet/workload", "fleet/gfx"] {
            assert!(img_a.section(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn generous_watchdog_budget_changes_nothing() {
        let s = spec(5);
        let plain = run_device(&s);
        let guarded = run_device_with(&s, Some(u64::MAX / 2));
        assert_eq!(plain.trace_fingerprint, guarded.trace_fingerprint);
        assert_eq!(guarded.outcome, DeviceOutcome::Completed);
    }

    #[test]
    fn tiny_watchdog_budget_wedges_instead_of_hanging() {
        let r = run_device_with(&spec(5), Some(1));
        assert_eq!(r.outcome, DeviceOutcome::Wedged { at_unit: 0 });
        assert_eq!(r.units_completed, 0);
        // The wedge is part of the observable outcome, so the
        // fingerprint must differ from a completed run.
        assert_ne!(
            r.trace_fingerprint,
            run_device(&spec(5)).trace_fingerprint
        );
    }
}
