//! The traced run: per-layer host time, from the benchmark's side.
//!
//! Each traced device first runs untraced through the fleet's entry
//! point (`run_device` or `run_device_healed`), timed as a whole. Then
//! the program's own path (`DeviceSim::boot`, `step`, `finish`, or
//! `run_device_healed`) runs with a span around every call, which gives
//! the fleet-level spans and the per-unit virtual-ns deltas; the two
//! runs must agree bit for bit. Then a *replica*: a fresh `TestBed` of
//! the same spec whose units call, one by one, the public functions a
//! `DeviceSim::step` calls (`run_micro`, `CiderSystem::trap`,
//! `Kernel::sys_fork`, `sys_exec_fixup`, the Mach IPC methods,
//! `full_cycle`, ...), each inside its own span. Every replica unit
//! must advance the virtual clock by exactly the delta its `step` did,
//! which proves the spans wrap the same work.
//!
//! Spans are kept in memory as durations per name; a span name is the
//! metric it feeds.

use std::collections::BTreeMap;
use std::time::Instant;

use cider_abi::ids::{Pid, Tid};
use cider_bench::apps;
use cider_bench::fig5::{run_micro, Micro};
use cider_bench::lmbench::{trap_number, Call};
use cider_bench::TestBed;
use cider_ckpt::{Checkpoint, CkptHeader, SpacingPolicy};
use cider_core::{CiderState, RingOp};
use cider_fault::{FaultLayer, FaultSite, SplitMix64};
use cider_fleet::device::LMBENCH_MENU;
use cider_fleet::{
    run_device, run_device_healed, DeviceOutcome, DeviceResult, DeviceSim,
    DeviceSpec, Workload,
};
use cider_frameworks::scenarios;
use cider_kernel::dispatch::SyscallArgs;
use cider_xnu::ipc::UserMessage;

use crate::workload::BenchWorkload;

/// Span names: each is the per-layer metric it feeds.
pub mod span {
    /// `DeviceSim::boot`.
    pub const BOOT: &str = "fleet.boot_us";
    /// One `DeviceSim::step`.
    pub const STEP: &str = "fleet.step_us";
    /// `DeviceSim::finish`.
    pub const FINISH: &str = "fleet.finish_us";
    /// One `run_device_healed` call.
    pub const HEALED_DEVICE: &str = "heal.device_us";
    /// `TestBed::trace_snapshot`.
    pub const SNAPSHOT: &str = "trace.snapshot_us";
    /// One null-syscall `CiderSystem::trap` from an iOS binary.
    pub const TRAP_IOS: &str = "kernel.trap_ns.ios";
    /// One null-syscall `CiderSystem::trap` from a Linux binary.
    pub const TRAP_ANDROID: &str = "kernel.trap_ns.android";
    /// `Kernel::sys_fork`.
    pub const FORK: &str = "kernel.fork_us";
    /// `Kernel::sys_exit` (fork+exit children).
    pub const EXIT: &str = "kernel.exit_us";
    /// `Kernel::run_entry`.
    pub const RUN_ENTRY: &str = "kernel.run_entry_us";
    /// `Kernel::sys_waitpid`.
    pub const WAITPID: &str = "kernel.waitpid_us";
    /// `cider_core::exec::sys_exec_fixup`.
    pub const EXEC: &str = "core.exec_us";
    /// `CiderSystem::mach_port_allocate`.
    pub const PORT_ALLOCATE: &str = "ipc.port_allocate_ns";
    /// `CiderSystem::mach_make_send`.
    pub const MAKE_SEND: &str = "ipc.make_send_ns";
    /// `CiderSystem::mach_msg_send` of the out-of-line message.
    pub const SEND_OOL: &str = "ipc.send_ool_ns";
    /// `CiderSystem::mach_msg_receive`.
    pub const RECEIVE: &str = "ipc.receive_ns";
    /// `CiderSystem::ring_submit`.
    pub const RING_SUBMIT: &str = "ipc.ring_submit_ns";
    /// `CiderSystem::ring_flush`.
    pub const RING_FLUSH: &str = "ipc.ring_flush_ns";
    /// `cider_bench::apps::app_spec`.
    pub const APP_SPEC: &str = "frameworks.app_spec_us";
    /// `cider_frameworks::scenarios::full_cycle`.
    pub const FULL_CYCLE: &str = "frameworks.full_cycle_us";
    /// `DeviceSim::capture`.
    pub const CAPTURE: &str = "ckpt.capture_us";
    /// `Checkpoint::to_bytes`.
    pub const ENCODE: &str = "ckpt.encode_us";
    /// `Checkpoint::from_bytes`.
    pub const DECODE: &str = "ckpt.decode_us";

    /// The span of one whole lmbench-mix operation (`run_micro`).
    pub fn op(micro: super::Micro) -> &'static str {
        use super::Micro;
        match micro {
            Micro::NullSyscall => "bench.op_us.null_syscall",
            Micro::Read => "bench.op_us.read",
            Micro::Write => "bench.op_us.write",
            Micro::OpenClose => "bench.op_us.open_close",
            Micro::SignalHandler => "bench.op_us.signal_handler",
            Micro::Pipe => "bench.op_us.pipe",
            Micro::AfUnix => "bench.op_us.af_unix",
            Micro::ForkExit => "bench.op_us.fork_exit",
            other => unreachable!("{other:?} is not on the lmbench menu"),
        }
    }
}

/// Span durations, in host ns, by span name.
#[derive(Default)]
pub struct Spans {
    durations: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// Closes the span `name` opened at `start`.
    pub fn record(&mut self, name: &'static str, start: Instant) {
        let ns = start.elapsed().as_nanos() as f64;
        self.durations.entry(name).or_default().push(ns);
    }

    /// Every duration of `name` (empty when it never ran).
    pub fn get(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of the durations of `name`, in ns.
    pub fn total(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    /// Every span name with its total, in ns.
    pub fn totals(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.durations.iter().map(|(&n, d)| (n, d.iter().sum()))
    }
}

/// What the traced devices of one workload produced.
#[derive(Default)]
pub struct LayerRun {
    /// Span durations.
    pub spans: Spans,
    /// Sums of the program's own counters over every traced device
    /// (`DeviceResult::kernel_metrics`).
    pub counters: BTreeMap<String, u64>,
    /// Traced devices.
    pub devices: u64,
    /// Units attempted.
    pub attempted: u64,
    /// Units completed.
    pub completed: u64,
    /// Trace events the devices retained.
    pub events: u64,
    /// Host ns of the program's own path (boot + steps + finish, or
    /// the `run_device_healed` call), spans included.
    pub device_ns: f64,
    /// Host ns of the same devices through the fleet's entry point,
    /// without spans.
    pub untraced_ns: f64,
    /// Checkpoint frames the healed runs wrote.
    pub checkpoints: u64,
    /// Restores the healed runs performed.
    pub restores: u64,
    /// Units the healed runs replayed during restores.
    pub replayed: u64,
    /// Units the healed runs completed.
    pub healed_completed: u64,
    /// Size of each encoded checkpoint frame, in bytes.
    pub frame_bytes: Vec<f64>,
    /// Port names left in the measured task's IPC space per device.
    pub live_names: Vec<f64>,
}

impl LayerRun {
    /// Sum of one program counter over the traced devices.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Traced ÷ untraced throughput of the same devices, run back to
    /// back: the cost of the spans on the program's own path.
    pub fn span_overhead(&self) -> f64 {
        self.untraced_ns / self.device_ns
    }

    fn absorb(&mut self, result: &DeviceResult) {
        for (name, v) in &result.kernel_metrics.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        self.devices += 1;
        self.completed += result.units_completed;
        self.events += result.events_retained;
    }
}

/// Traces one device of `w` into `run`.
///
/// # Errors
///
/// A traced run that differs from the untraced one, a replica unit
/// whose virtual-ns delta differs from the `step` it repeats, or a
/// checkpoint frame that does not decode.
pub fn trace_device(
    w: &BenchWorkload,
    spec: &DeviceSpec,
    run: &mut LayerRun,
) -> Result<(), String> {
    // The heal loop boots its sim without the lifecycle fault sites,
    // which it draws itself; the replica must boot the same kernel.
    let sim_spec = if w.healed {
        DeviceSpec {
            fault_plan: spec
                .fault_plan
                .as_ref()
                .map(|p| p.without(&FaultSite::DEVICE_LIFECYCLE)),
            ..spec.clone()
        }
    } else {
        spec.clone()
    };

    // The fleet's own entry point, untraced: the reference for the
    // output check and the base of the span overhead.
    let start = Instant::now();
    let untraced = if w.healed {
        run_device_healed(spec, &w.heal_config())
    } else {
        run_device(spec)
    };
    run.untraced_ns += start.elapsed().as_nanos() as f64;

    let healed = if w.healed {
        let start = Instant::now();
        let healed = run_device_healed(spec, &w.heal_config());
        run.spans.record(span::HEALED_DEVICE, start);
        run.device_ns += start.elapsed().as_nanos() as f64;
        let stats = healed.heal.as_ref().ok_or("healed run without stats")?;
        run.checkpoints += stats.checkpoints_taken;
        run.restores += stats.restores;
        run.replayed += stats.replayed_units;
        run.healed_completed += healed.units_completed;
        Some(healed)
    } else {
        None
    };

    let device_start = Instant::now();
    let mut deltas = Vec::new();
    let start = Instant::now();
    let mut sim = DeviceSim::boot(&sim_spec);
    run.spans.record(span::BOOT, start);
    let mut policy = w.healed.then(|| {
        let cfg = w.heal_config();
        SpacingPolicy::exponential(cfg.ckpt_base, cfg.ckpt_cap)
    });
    if policy.is_some() {
        frame(&sim, &sim_spec, run)?;
    }
    while !sim.done() {
        let v0 = sim.now_ns();
        let start = Instant::now();
        sim.step();
        run.spans.record(span::STEP, start);
        deltas.push(sim.now_ns() - v0);
        if let Some(policy) = policy.as_mut() {
            if policy.due(sim.cursor()) {
                frame(&sim, &sim_spec, run)?;
                policy.taken(sim.cursor());
            }
        }
    }
    let start = Instant::now();
    let result = sim.finish(DeviceOutcome::Completed, None);
    run.spans.record(span::FINISH, start);
    if !w.healed {
        run.device_ns += device_start.elapsed().as_nanos() as f64;
    }
    let traced = healed.as_ref().unwrap_or(&result);
    if (traced.trace_fingerprint, traced.virtual_ns)
        != (untraced.trace_fingerprint, untraced.virtual_ns)
    {
        return Err(format!(
            "device {}: traced run gave fingerprint {:#018x} at {} vns, \
             cider_fleet gives {:#018x} at {} vns",
            spec.device_id,
            traced.trace_fingerprint,
            traced.virtual_ns,
            untraced.trace_fingerprint,
            untraced.virtual_ns
        ));
    }
    run.absorb(&result);
    run.attempted += w.units_per_device();

    replay(spec, &sim_spec, &deltas, run)
}

/// Captures, encodes and decodes one checkpoint frame, as the heal
/// loop's writes (capture + encode) and restores (decode) do.
fn frame(
    sim: &DeviceSim,
    spec: &DeviceSpec,
    run: &mut LayerRun,
) -> Result<(), String> {
    let start = Instant::now();
    let image = sim.capture();
    run.spans.record(span::CAPTURE, start);
    let ckpt = Checkpoint::new(
        CkptHeader {
            device_id: spec.device_id,
            seed: spec.seed,
            config: spec.config.slug().to_string(),
            workload: spec.workload.slug().to_string(),
            cursor: sim.cursor(),
            virtual_ns: sim.now_ns(),
        },
        image,
    );
    let start = Instant::now();
    let bytes = ckpt.to_bytes();
    run.spans.record(span::ENCODE, start);
    let start = Instant::now();
    let decoded = Checkpoint::from_bytes(&bytes);
    run.spans.record(span::DECODE, start);
    let decoded =
        decoded.map_err(|e| format!("frame does not decode: {e}"))?;
    if decoded.image != ckpt.image {
        return Err("decoded frame differs from the captured image".into());
    }
    run.frame_bytes.push(bytes.len() as f64);
    Ok(())
}

/// Repeats the device's units on a fresh bed, one layer call per span,
/// and checks each unit's virtual delta against `deltas`.
fn replay(
    spec: &DeviceSpec,
    sim_spec: &DeviceSpec,
    deltas: &[u64],
    run: &mut LayerRun,
) -> Result<(), String> {
    let mut bed = TestBed::builder(spec.config).traced().build();
    let (pid, tid) = bed
        .spawn_measured()
        .map_err(|e| format!("spawn_measured: {e:?}"))?;
    if let Some(plan) = &sim_spec.fault_plan {
        bed.sys.kernel.faults = FaultLayer::with_plan(plan.clone());
    }
    let mut rng = SplitMix64::new(spec.seed);
    let spans = &mut run.spans;
    for (cursor, &want) in (0u64..).zip(deltas) {
        let v0 = bed.sys.kernel.clock.now_ns();
        match spec.workload {
            Workload::LmbenchMix { .. } => {
                lmbench_unit(&mut bed, pid, tid, &mut rng, spans);
            }
            Workload::LaunchStorm { .. } => launch_unit(&mut bed, tid, spans),
            Workload::IpcStorm { .. } => {
                ipc_unit(&mut bed, tid, cursor, spans);
            }
            Workload::AppLifecycle { .. } => {
                app_unit(&mut bed, spec.seed ^ cursor, spans);
            }
            other => return Err(format!("no replica for {other:?}")),
        }
        let got = bed.sys.kernel.clock.now_ns() - v0;
        if got != want {
            return Err(format!(
                "device {} unit {cursor}: replica advanced {got} vns, \
                 DeviceSim::step advanced {want}",
                spec.device_id
            ));
        }
    }
    let start = Instant::now();
    let snapshot = bed.trace_snapshot();
    spans.record(span::SNAPSHOT, start);
    snapshot.ok_or("replica bed was built untraced")?;
    if matches!(spec.workload, Workload::IpcStorm { .. }) {
        let state = bed
            .sys
            .kernel
            .extensions
            .get_mut::<CiderState>()
            .ok_or("no CiderState on an iOS bed")?;
        let space = state.task_space(pid);
        run.live_names
            .push(state.machipc.space_names(space).len() as f64);
    }
    Ok(())
}

/// One lmbench-mix unit. Null syscall and fork+exit are opened up to
/// their kernel calls (the loops of `lmbench::null_syscall` and
/// `fork_exit_lat`); every other operation is one `run_micro` span.
fn lmbench_unit(
    bed: &mut TestBed,
    pid: Pid,
    tid: Tid,
    rng: &mut SplitMix64,
    spans: &mut Spans,
) {
    let micro = LMBENCH_MENU[rng.below(LMBENCH_MENU.len() as u64) as usize];
    let op_start = Instant::now();
    match micro {
        Micro::NullSyscall => {
            let ios = bed.config.runs_ios_binary();
            let nr = trap_number(ios, Call::Getpid);
            let name = if ios {
                span::TRAP_IOS
            } else {
                span::TRAP_ANDROID
            };
            for _ in 0..64 {
                let start = Instant::now();
                bed.sys.trap(tid, nr, &SyscallArgs::none());
                spans.record(name, start);
            }
        }
        Micro::ForkExit => {
            let k = &mut bed.sys.kernel;
            for _ in 0..4 {
                let start = Instant::now();
                let forked = k.sys_fork(tid);
                spans.record(span::FORK, start);
                let Ok((child_pid, child_tid)) = forked else {
                    break;
                };
                let start = Instant::now();
                let exited = k.sys_exit(child_tid, 0);
                spans.record(span::EXIT, start);
                if exited.is_err() {
                    break;
                }
                let start = Instant::now();
                let reaped = k.sys_waitpid(tid, child_pid);
                spans.record(span::WAITPID, start);
                if reaped.is_err() {
                    break;
                }
            }
        }
        _ => {
            run_micro(bed, pid, tid, micro);
        }
    }
    spans.record(span::op(micro), op_start);
}

/// One launch-storm unit: the three fork+exec+run+wait launches of
/// `lmbench::fork_exec_lat`.
fn launch_unit(bed: &mut TestBed, tid: Tid, spans: &mut Spans) {
    let hello = bed.hello_path(bed.config.runs_ios_binary());
    let k = &mut bed.sys.kernel;
    for _ in 0..3 {
        let start = Instant::now();
        let forked = k.sys_fork(tid);
        spans.record(span::FORK, start);
        let Ok((child_pid, child_tid)) = forked else {
            return;
        };
        let start = Instant::now();
        let execed =
            cider_core::exec::sys_exec_fixup(k, child_tid, hello, &[hello]);
        spans.record(span::EXEC, start);
        if execed.is_err() {
            return;
        }
        let start = Instant::now();
        let ran = k.run_entry(child_tid);
        spans.record(span::RUN_ENTRY, start);
        if ran.is_err() {
            return;
        }
        let start = Instant::now();
        let reaped = k.sys_waitpid(tid, child_pid);
        spans.record(span::WAITPID, start);
        if reaped.is_err() {
            return;
        }
    }
}

/// One IPC-storm unit, call for call as the fleet's `ipc_storm_unit`:
/// port, send right, an 8 KiB out-of-line round trip, then a ring
/// batch of four sends through one flush, drained by four receives.
fn ipc_unit(bed: &mut TestBed, tid: Tid, cursor: u64, spans: &mut Spans) {
    const RING_BATCH: u64 = 4;
    bed.sys.enable_ipc_v2();
    let start = Instant::now();
    let recv = bed.sys.mach_port_allocate(tid);
    spans.record(span::PORT_ALLOCATE, start);
    let Ok(recv) = recv else { return };
    let start = Instant::now();
    let send = bed.sys.mach_make_send(tid, recv);
    spans.record(span::MAKE_SEND, start);
    let Ok(send) = send else { return };

    let blob: Vec<u8> = (0..2 * 4096u64)
        .map(|i| (i.wrapping_add(cursor)) as u8)
        .collect();
    let mut msg = UserMessage::simple(send, 0x600, &b"ool"[..]);
    msg.ool.push(blob.into());
    let start = Instant::now();
    let sent = bed.sys.mach_msg_send(tid, msg);
    spans.record(span::SEND_OOL, start);
    if sent.is_err() {
        return;
    }
    let start = Instant::now();
    let got = bed.sys.mach_msg_receive(tid, recv);
    spans.record(span::RECEIVE, start);
    if got.is_err() {
        return;
    }

    for i in 0..RING_BATCH {
        let body = vec![b's'; 1 + ((cursor + i) % 24) as usize];
        let msg = UserMessage::simple(send, 0x700 + i as i32, body);
        let start = Instant::now();
        let queued = bed.sys.ring_submit(tid, RingOp::Send(msg));
        spans.record(span::RING_SUBMIT, start);
        if queued.is_err() {
            return;
        }
    }
    let start = Instant::now();
    let flushed = bed.sys.ring_flush(tid);
    spans.record(span::RING_FLUSH, start);
    if flushed.is_err() {
        return;
    }
    for _ in 0..RING_BATCH {
        let start = Instant::now();
        let got = bed.sys.mach_msg_receive(tid, recv);
        spans.record(span::RECEIVE, start);
        if got.is_err() {
            return;
        }
    }
}

/// One app-lifecycle unit: install the scenario bundle, then one full
/// launch → background → jetsam → relaunch cycle with an 8-period
/// audio burst.
fn app_unit(bed: &mut TestBed, seed: u64, spans: &mut Spans) {
    let start = Instant::now();
    let app = apps::app_spec(bed);
    spans.record(span::APP_SPEC, start);
    let on_render = apps::render_trap(bed.config);
    let start = Instant::now();
    let _outcome =
        scenarios::full_cycle(&mut bed.sys, &app, 8, seed, on_render);
    spans.record(span::FULL_CYCLE, start);
}
