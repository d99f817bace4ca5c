//! Prints the full evaluation: Figure 5, Figure 6, and the ablations.
//!
//! ```text
//! cargo run --release --bin cider-report [-- --raw] [-- --trace] [-- --fleet]
//! cargo run --release --bin cider-report -- --regen
//! ```
//!
//! With `--regen`, nothing is printed but progress: every checked-in
//! artifact of [`cider_suite::artifacts::ARTIFACTS`] is rendered twice
//! and rewritten in place, and the run fails if the two renderings
//! differ or a rendering loses a claim it exists to show. An unknown
//! flag prints usage and exits 2.
//!
//! With `--raw`, the tables additionally list the raw virtual-time
//! values (ns for Figure 5 latencies, ops/s for Figure 6 throughput)
//! behind the normalized cells.
//!
//! With `--trace`, Figure 5 runs with the cider-trace subsystem enabled
//! (bit-identical virtual-time results — tracing never charges the
//! clock). Per configuration the report prints the syscall latency
//! histograms and mechanism counters, and writes a Chrome
//! `trace_event` JSON file plus flamegraph folded stacks under
//! `target/trace/`. Load the `.trace.json` in `chrome://tracing` or
//! Perfetto; feed the `.folded` file to `flamegraph.pl`.
//!
//! With `--conform`, the report ends with the differential ABI
//! conformance matrix from `cider-conform` (default seed and program
//! count): per-personality agreement across outcome, VFS state,
//! fd-table shape, cwd, and Mach port topology.
//!
//! With `--apps`, the report includes the app-framework scenario table
//! from `cider-bench::apps`: launch-to-foreground,
//! background-jetsam-relaunch, and realtime-audio across the four
//! configurations (normalized like Figure 5; audio misses are raw
//! counts).
//!
//! With `--fleet`, the report ends with fleet-level percentile tables
//! from `cider-fleet`: a 64-device mixed-persona fleet per workload
//! (lmbench mix and launch storm), p50/p95/p99 per group. Host-side
//! fleet progress (`fleet/devices_completed`, per-device wall-clock)
//! is traced and exported as Chrome `trace_event` JSON under
//! `target/trace/fleet.trace.json`.

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use cider_bench::config::SystemConfig;
use cider_bench::report::Table;
use cider_suite::artifacts;
use cider_trace::{chrome, flame, TraceSnapshot};

fn print_raw(table: &Table) {
    println!("### raw values ({})", table.unit);
    print!("{:<28}", "test");
    for c in SystemConfig::ALL {
        print!("{:>18}", c.label());
    }
    println!();
    for row in &table.rows {
        print!("{:<28}", row.name);
        for v in row.values {
            match v {
                Some(v) if v >= 1000.0 => print!("{v:>18.0}"),
                Some(v) => print!("{v:>18.2}"),
                None => print!("{:>18}", "n/a"),
            }
        }
        println!();
    }
    println!();
}

fn dump_trace(config: SystemConfig, snap: &TraceSnapshot, dir: &Path) {
    println!("### trace: {}", config.label());
    println!(
        "{} events retained, {} dropped",
        snap.events.len(),
        snap.dropped
    );
    let syscalls = snap.metrics.histograms.iter().filter(|(name, _)| {
        name.starts_with("syscall/") || name.starts_with("diplomat/")
    });
    for (name, h) in syscalls {
        println!("  {name:<40} {h}");
    }
    for prefix in [
        "kernel/",
        "signal/",
        "mach/",
        "dyld/",
        "persona/",
        "gpu/",
        "fault/",
        "recovery/",
    ] {
        for (name, v) in &snap.metrics.counters {
            if name.starts_with(prefix) {
                println!("  {name:<40} {v}");
            }
        }
    }
    let ledger: Vec<_> = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind.category(), "fault" | "recovery"))
        .collect();
    if !ledger.is_empty() {
        println!("  fault/recovery ledger:");
        for e in &ledger {
            println!(
                "    {:>14} ns  {:<9} {}",
                e.ctx.ts_ns,
                e.kind.category(),
                e.kind.name()
            );
        }
    }

    let base = dir.join(format!("fig5_{}", config.slug()));
    let json = base.with_extension("trace.json");
    let folded = base.with_extension("folded");
    match fs::write(&json, chrome::export(snap)) {
        Ok(()) => println!("  wrote {}", json.display()),
        Err(e) => println!("  write {} failed: {e}", json.display()),
    }
    match fs::write(&folded, flame::export(snap)) {
        Ok(()) => println!("  wrote {}", folded.display()),
        Err(e) => println!("  write {} failed: {e}", folded.display()),
    }
    println!();
}

fn print_fleet_group(name: &str, g: &cider_fleet::report::GroupReport) {
    println!(
        "  {name}: {} devices, {} units, {} faults, {} recoveries",
        g.devices, g.units_total, g.faults_total, g.recoveries_total
    );
    for (counter, p) in &g.counters {
        println!(
            "    {counter:<28} p50 {:>12}  p95 {:>12}  p99 {:>12}",
            p.p50, p.p95, p.p99
        );
    }
    for (latency, p) in &g.latencies {
        println!(
            "    {latency:<28} p50 {:>9} ns  p95 {:>9} ns  p99 {:>9} ns",
            p.p50, p.p95, p.p99
        );
    }
    if let Some(p) = &g.launches_per_vsec_milli {
        println!(
            "    {:<28} p50 {:>9.3}  p95 {:>9.3}  p99 {:>9.3}",
            "launches/vsec",
            p.p50 as f64 / 1000.0,
            p.p95 as f64 / 1000.0,
            p.p99 as f64 / 1000.0
        );
    }
}

fn print_fleet(dir: &Path) {
    use cider_fleet::{
        driver::run_fleet_with_sink, FleetReport, FleetSpec, Workload,
    };
    let mut sink = cider_trace::TraceSink::enabled_default();
    for workload in [
        Workload::LmbenchMix { ops: 16 },
        Workload::LaunchStorm { launches: 8 },
    ] {
        let spec = FleetSpec::new(64, 42, workload).host_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        );
        let run = run_fleet_with_sink(&spec, &mut sink);
        let report = FleetReport::from_run(&run);
        println!(
            "### fleet: {} x{} devices (mix {}), fingerprint {:016x}",
            report.workload,
            report.devices,
            report.mix,
            report.fleet_fingerprint
        );
        for (name, group) in &report.groups {
            print_fleet_group(name, group);
        }
        println!();
    }
    if let Some(snap) = sink.snapshot() {
        println!(
            "fleet host progress: {} devices completed",
            snap.metrics.counter("fleet/devices_completed")
        );
        let path = dir.join("fleet.trace.json");
        match fs::write(&path, chrome::export(&snap)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => println!("write {} failed: {e}", path.display()),
        }
    }
}

const FLAGS: [&str; 6] = [
    "--raw",
    "--trace",
    "--conform",
    "--fleet",
    "--apps",
    "--regen",
];

fn regen_artifacts() -> ExitCode {
    let start = Instant::now();
    for artifact in artifacts::ARTIFACTS {
        let t = Instant::now();
        if let Err(e) = artifact.regen(artifacts::root()) {
            eprintln!("cider-report: regen {}: {e}", artifact.path);
            return ExitCode::FAILURE;
        }
        let ms = t.elapsed().as_millis();
        println!("regen {:<36} {ms:>7} ms", artifact.path);
    }
    println!("regen total {} ms", start.elapsed().as_millis());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| !FLAGS.contains(&a.as_str())) {
        eprintln!(
            "cider-report: unknown flag {bad:?}\nusage: cider-report \
             [--raw] [--trace] [--conform] [--apps] [--fleet]\n       \
             cider-report --regen"
        );
        return ExitCode::from(2);
    }
    let flag = |name: &str| args.iter().any(|a| a == name);
    if flag("--regen") {
        return regen_artifacts();
    }
    let (raw, trace) = (flag("--raw"), flag("--trace"));
    println!("Cider reproduction — full evaluation (virtual time)\n");
    let fig5 = if trace {
        let (fig5, snapshots) = cider_bench::fig5::run_traced();
        println!("{fig5}");
        let dir = Path::new("target").join("trace");
        if let Err(e) = fs::create_dir_all(&dir) {
            println!("cannot create {}: {e}", dir.display());
        }
        for (config, snap) in &snapshots {
            dump_trace(*config, snap, &dir);
        }
        fig5
    } else {
        let fig5 = cider_bench::fig5::run();
        println!("{fig5}");
        fig5
    };
    if raw {
        print_raw(&fig5);
    }
    let fig6 = cider_bench::fig6::run();
    println!("{fig6}");
    if raw {
        print_raw(&fig6);
    }
    if flag("--apps") {
        let table = cider_bench::apps::run();
        println!("{table}");
        if raw {
            print_raw(&table);
        }
    }
    println!("## Ablations");
    match cider_bench::ablations::run_all() {
        Ok(ablations) => {
            for a in ablations {
                println!(
                    "{:<48} baseline {:>14.1} -> variant {:>14.1} ({:.2}x) [{}]",
                    a.name,
                    a.baseline,
                    a.variant,
                    a.ratio(),
                    a.metric
                );
            }
        }
        Err(e) => println!("ablations failed: {e}"),
    }
    if flag("--conform") {
        use cider_conform::engine::{run_engine, EngineConfig};
        let cfg = EngineConfig::default();
        println!("\n## Conformance (cider-conform)");
        print!("{}", run_engine(&cfg).render(cfg.seed));
    }
    if flag("--fleet") {
        println!("\n## Fleet simulation (cider-fleet)");
        let dir = Path::new("target").join("trace");
        if let Err(e) = fs::create_dir_all(&dir) {
            println!("cannot create {}: {e}", dir.display());
        }
        print_fleet(&dir);
    }
    ExitCode::SUCCESS
}
