//! Host wall-clock benchmark of the Cider fleet.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! One process, one host thread. `--trace 0` runs devices of the
//! workload's fleet rounds for `--seconds` of device time with no spans,
//! each spec stepped and through `cider_fleet::run_device` (or
//! `run_device_healed`), checks the two agree, and prints the
//! end-to-end metrics. `--trace 1` prints the per-layer metrics instead
//! (see `traced.rs`). Every metric is printed as a `#` line with its
//! sample count; the last line is one JSON object. `--setup-only` is
//! how the benchmark times its own set-up in fresh processes. See
//! `README.md` for the workloads, metrics and the layer → end-to-end
//! map.

mod calib;
mod stats;
mod timed;
mod traced;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use calib::{calibrate, REFERENCE_MS};
use cider_fleet::{run_device, run_device_healed};

use stats::{median, peak_rss_mib, percentile, MIN_P99_SAMPLES};
use traced::{span, trace_device, LayerRun};
use workload::{BenchWorkload, WORKLOADS};

/// The master seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// Set-ups `setup_s` takes the median of, each in its own process.
const SETUP_REPEATS: usize = 9;

struct Args {
    workload: &'static BenchWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(BenchWorkload::by_name(&value).ok_or(format!(
                        "unknown workload {value:?}; one of {:?}",
                        WORKLOADS.map(|w| w.name)
                    ))?);
            }
            "--seed" => {
                seed = value.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds =
                    value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!(
                        "--seconds {seconds} not in (0, 600]"
                    ));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

/// The set-up a run does before its first timed device: derive the
/// first round's specs and run one untimed warm-up device.
fn setup(w: &BenchWorkload, seed: u64) {
    let spec = &w.round(seed, 0)[0];
    if w.healed {
        run_device_healed(spec, &w.heal_config());
    } else {
        run_device(spec);
    }
}

/// `setup_s` samples: each is one fresh process of this binary, from
/// spawn to exit, doing exactly [`setup`], scaled to the reference host
/// by calibrations before and after it. Fresh processes, so that work
/// moved into process start or one-time initialisation shows.
fn measure_setup(w: &BenchWorkload, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("exe: {e}"))?;
    let mut before = calibrate();
    (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            let status = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .arg("--setup-only")
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("spawn set-up: {e}"))?;
            if !status.success() {
                return Err(format!("set-up process failed: {status}"));
            }
            let secs = start.elapsed().as_secs_f64();
            let after = calibrate();
            let scale = REFERENCE_MS * 2.0 / (before + after);
            before = after;
            Ok(secs * scale)
        })
        .collect()
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

impl Metric {
    fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Prints each metric as a `#` line, then the result object. A run
/// that fails its output check never gets here: it exits non-zero.
fn report(attempted: u64, failed: u64, metrics: &[Metric]) -> ExitCode {
    let mut json = Vec::new();
    for m in metrics {
        println!("# {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    ExitCode::SUCCESS
}

fn describe(w: &BenchWorkload, seed: u64) {
    println!(
        "# workload {}: {:?} x {} devices a round, mix {}, {} \
         (seed {seed})",
        w.name,
        w.workload,
        w.devices,
        w.mix.slug(),
        if w.healed {
            "run_device_healed"
        } else {
            "DeviceSim boot/step/finish"
        },
    );
    println!("# mix reason: {}", w.mix_reason);
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload;
    let setup_s = measure_setup(w, args.seed)?;
    setup(w, args.seed);
    let run = timed::run(w, args.seed, args.seconds)?;
    println!(
        "# output check: {} devices, each run instrumented and through \
         cider_fleet::{}: identical",
        run.devices,
        if w.healed {
            "run_device_healed"
        } else {
            "run_device"
        },
    );
    let (unit, device, v_unit) = (
        run.unit_us.samples(),
        run.device_ms.samples(),
        run.v_unit_ns.samples(),
    );
    let (n, d) = (unit.len(), device.len());
    if run.unit_us.seen() > n {
        println!("# unit samples: a uniform {n} of {}", run.unit_us.seen());
    }
    println!(
        "# host calibration: median {} ms against {REFERENCE_MS} ms on \
         the reference host (n={}); unscaled units_per_s = {} 1/s",
        median(&run.calibration_ms)?,
        run.calibration_ms.len(),
        run.raw_units_per_s()
    );
    println!(
        "# failed_ratio = {} (n={} units attempted)",
        run.failed() as f64 / run.attempted as f64,
        run.attempted
    );
    // Deterministic model outputs: printed so that a change to charged
    // costs shows, but not in the result object, because they read the
    // same on every run.
    for q in [50.0, 99.0] {
        println!(
            "# v_unit_ns_p{q} = {} vns (n={})",
            percentile(v_unit, q)?,
            v_unit.len()
        );
    }
    println!("# device_ms_p50 = {} ms (n={d})", median(device)?);
    if d >= MIN_P99_SAMPLES {
        println!("# device_ms_p99 = {} ms (n={d})", percentile(device, 99.0)?);
    }
    let metrics = [
        Metric::new(
            "units_per_s",
            run.units_per_s(),
            "1/s",
            run.completed as usize,
        ),
        Metric::new("unit_us_p50", median(unit)?, "us", n),
        Metric::new("unit_us_p99", percentile(unit, 99.0)?, "us", n),
        Metric::new("setup_s", median(&setup_s)?, "s", setup_s.len()),
        Metric::new("peak_rss_mb", peak_rss_mib()?, "MiB", 1),
    ];
    Ok(report(run.attempted, run.failed(), &metrics))
}

/// Traces devices of `w` from the rounds of `seed` until `seconds` have
/// passed or `max_devices` are done.
fn trace_workload(
    w: &BenchWorkload,
    seed: u64,
    seconds: f64,
    max_devices: usize,
) -> Result<LayerRun, String> {
    let start = Instant::now();
    let mut run = LayerRun::default();
    for round in 0.. {
        for spec in w.round(seed, round) {
            if run.devices as usize >= max_devices
                || (run.devices > 0
                    && start.elapsed().as_secs_f64() >= seconds)
            {
                return Ok(run);
            }
            trace_device(w, &spec, &mut run)?;
        }
    }
    unreachable!("rounds are endless")
}

/// `--trace 1`: the traced run and its per-layer metrics.
fn per_layer(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload;
    setup(w, args.seed);
    let own = trace_workload(w, args.seed, args.seconds, usize::MAX)?;
    let mut others = Vec::new();
    for other in WORKLOADS.iter().filter(|o| o.name != w.name) {
        let run =
            trace_workload(other, args.seed, f64::MAX, other.trace_slice)?;
        others.push((other.name, run));
    }
    let owner = |name: &str| {
        if name == w.name {
            &own
        } else {
            &others.iter().find(|(n, _)| *n == name).expect("known").1
        }
    };

    println!(
        "# traced {} devices ({} units); other workloads' layers from \
         {} of their devices",
        own.devices,
        own.completed,
        others
            .iter()
            .map(|(n, r)| format!("{} {n}", r.devices))
            .collect::<Vec<_>>()
            .join(", ")
    );
    // Whole steps and whole healed devices are containers, not layers.
    let mut shares: Vec<_> = own
        .spans
        .totals()
        .filter(|(name, _)| ![span::STEP, span::HEALED_DEVICE].contains(name))
        .map(|(name, total)| (total / own.device_ns, name))
        .collect();
    shares.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (share, name) in &shares {
        println!("# share of device time: {name} {:.1} %", share * 100.0);
    }

    let mut m = Vec::new();
    let med = |run: &LayerRun, name: &'static str, scale: f64| {
        median(run.spans.get(name)).map(|v| v / scale)
    };
    let n = |run: &LayerRun, name: &str| run.spans.get(name).len();
    for (name, scale) in [(span::BOOT, 1e3), (span::FINISH, 1e3)] {
        m.push(Metric::new(
            name,
            med(&own, name, scale)?,
            "us",
            n(&own, name),
        ));
    }
    let device = own.devices as usize;
    m.push(Metric::new(
        "fleet.finish_share",
        own.spans.total(span::FINISH) / own.device_ns,
        "ratio",
        device,
    ));
    let per_unit = |run: &LayerRun, count: f64| count / run.completed as f64;
    m.push(Metric::new(
        "trace.events_per_unit",
        per_unit(&own, own.events as f64),
        "count",
        device,
    ));
    m.push(Metric::new(
        span::SNAPSHOT,
        med(&own, span::SNAPSHOT, 1e3)?,
        "us",
        n(&own, span::SNAPSHOT),
    ));

    let sys = owner("syscall_mix");
    m.push(Metric::new(
        "kernel.traps_per_unit",
        per_unit(sys, sys.counter("kernel/traps") as f64),
        "count",
        sys.devices as usize,
    ));
    for name in [span::TRAP_IOS, span::TRAP_ANDROID] {
        m.push(Metric::new(name, med(sys, name, 1.0)?, "ns", n(sys, name)));
    }
    for micro in cider_fleet::device::LMBENCH_MENU {
        let name = span::op(micro);
        m.push(Metric::new(name, med(sys, name, 1e3)?, "us", n(sys, name)));
    }

    let launch = owner("launch_ios_cold");
    for name in [span::FORK, span::RUN_ENTRY, span::WAITPID, span::EXEC] {
        m.push(Metric::new(
            name,
            med(launch, name, 1e3)?,
            "us",
            n(launch, name),
        ));
    }
    let forks = launch.counter("kernel/forks") as f64;
    m.push(Metric::new(
        "mm.forked_ptes_per_fork",
        launch.counter("mm/forked_ptes") as f64 / forks,
        "count",
        forks as usize,
    ));
    let execs = n(launch, span::EXEC);
    m.push(Metric::new(
        "core.exec_share",
        launch.spans.total(span::EXEC) / launch.device_ns,
        "ratio",
        execs,
    ));
    for (name, counter, scale, unit) in [
        ("dyld.images_per_exec", "dyld/images", 1.0, "count"),
        ("dyld.fs_opens_per_exec", "dyld/fs_opens", 1.0, "count"),
        (
            "dyld.mapped_mb_per_exec",
            "dyld/mapped_bytes",
            1048576.0,
            "MiB",
        ),
    ] {
        let v = launch.counter(counter) as f64 / scale / execs as f64;
        m.push(Metric::new(name, v, unit, execs));
    }

    let ipc = owner("ipc_storm");
    for name in [
        span::PORT_ALLOCATE,
        span::MAKE_SEND,
        span::SEND_OOL,
        span::RECEIVE,
        span::RING_SUBMIT,
        span::RING_FLUSH,
    ] {
        m.push(Metric::new(name, med(ipc, name, 1.0)?, "ns", n(ipc, name)));
    }
    m.push(Metric::new(
        "ipc.live_names",
        median(&ipc.live_names)?,
        "count",
        ipc.live_names.len(),
    ));
    for (name, counter, unit) in [
        (
            "ipc.ool_bytes_remapped_per_unit",
            "ipc/ool_bytes_remapped",
            "B",
        ),
        ("ipc.ring_flush_per_unit", "ipc/ring_flush", "count"),
    ] {
        let v = per_unit(ipc, ipc.counter(counter) as f64);
        m.push(Metric::new(name, v, unit, ipc.devices as usize));
    }

    let app = owner("app_lifecycle_healed");
    for name in [span::APP_SPEC, span::FULL_CYCLE] {
        m.push(Metric::new(name, med(app, name, 1e3)?, "us", n(app, name)));
    }
    for (name, counter) in [
        ("app.transitions_per_unit", "app/lifecycle_transition"),
        ("app.jetsam_kills_per_unit", "app/jetsam_kill"),
        ("sched.ctx_switch_per_unit", "sched/ctx_switch"),
    ] {
        let v = per_unit(app, app.counter(counter) as f64);
        m.push(Metric::new(name, v, "count", app.devices as usize));
    }
    for name in [span::CAPTURE, span::ENCODE, span::DECODE] {
        m.push(Metric::new(name, med(app, name, 1e3)?, "us", n(app, name)));
    }
    m.push(Metric::new(
        "ckpt.frame_kb",
        median(&app.frame_bytes)? / 1024.0,
        "KiB",
        app.frame_bytes.len(),
    ));
    let healed = app.devices as f64;
    for (name, v, unit) in [
        (
            "heal.checkpoints_per_device",
            app.checkpoints as f64 / healed,
            "count",
        ),
        (
            "heal.restores_per_device",
            app.restores as f64 / healed,
            "count",
        ),
        (
            "heal.replayed_units_ratio",
            app.replayed as f64 / app.healed_completed as f64,
            "ratio",
        ),
    ] {
        m.push(Metric::new(name, v, unit, app.devices as usize));
    }

    m.push(Metric::new(
        "bench.span_overhead",
        own.span_overhead(),
        "ratio",
        device,
    ));
    Ok(report(own.attempted, own.attempted - own.completed, &m))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    describe(args.workload, args.seed);
    let outcome = if args.setup_only {
        setup(args.workload, args.seed);
        Ok(ExitCode::SUCCESS)
    } else if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::FAILURE
    })
}
