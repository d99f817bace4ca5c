//! Fleet simulation driver.
//!
//! ```text
//! cargo run --release -p cider-fleet --bin cider-fleet -- \
//!     [--devices N] [--seed S] [--threads T] \
//!     [--workload lmbench|launch_storm|launch_storm_warm|ipc_storm|conform|app_lifecycle] \
//!     [--units N] \
//!     [--mix even|ios|android] [--fault-seed S] \
//!     [--lifecycle-seed S] [--heal] [--watchdog-ns N] \
//!     [--json PATH]
//! ```
//!
//! Runs one fleet and prints (or writes, with `--json`) its percentile
//! report. The report JSON never contains host wall-clock or thread
//! counts: two runs of the same spec are byte-identical whatever
//! `--threads` says. `cider-report --regen` pins that for the specs in
//! `tests/golden/pins.txt` and renders `BENCH_fleet.json` with
//! [`cider_fleet::bench_matrix`].

use std::fs;
use std::process::ExitCode;

use cider_fault::FaultPlan;
use cider_fleet::{
    run_fleet, FleetReport, FleetSpec, HealConfig, PersonaMix, Workload,
};

struct Options {
    devices: u32,
    seed: u64,
    threads: usize,
    workload: String,
    units: u32,
    mix: PersonaMix,
    fault_seed: Option<u64>,
    lifecycle_seed: Option<u64>,
    heal: bool,
    watchdog_ns: Option<u64>,
    json: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        devices: 64,
        seed: 42,
        threads: 1,
        workload: "lmbench".to_string(),
        units: 16,
        mix: PersonaMix::EVEN,
        fault_seed: None,
        lifecycle_seed: None,
        heal: false,
        watchdog_ns: None,
        json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--devices" => {
                opts.devices = value("--devices")?
                    .parse()
                    .map_err(|e| format!("--devices: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--workload" => opts.workload = value("--workload")?,
            "--units" => {
                opts.units = value("--units")?
                    .parse()
                    .map_err(|e| format!("--units: {e}"))?;
            }
            "--mix" => {
                opts.mix = match value("--mix")?.as_str() {
                    "even" => PersonaMix::EVEN,
                    "ios" => PersonaMix::ALL_IOS,
                    "android" => PersonaMix::ALL_ANDROID,
                    other => return Err(format!("unknown mix {other:?}")),
                };
            }
            "--fault-seed" => {
                opts.fault_seed = Some(
                    value("--fault-seed")?
                        .parse()
                        .map_err(|e| format!("--fault-seed: {e}"))?,
                );
            }
            "--lifecycle-seed" => {
                opts.lifecycle_seed = Some(
                    value("--lifecycle-seed")?
                        .parse()
                        .map_err(|e| format!("--lifecycle-seed: {e}"))?,
                );
            }
            "--heal" => opts.heal = true,
            "--watchdog-ns" => {
                opts.watchdog_ns = Some(
                    value("--watchdog-ns")?
                        .parse()
                        .map_err(|e| format!("--watchdog-ns: {e}"))?,
                );
            }
            "--json" => opts.json = Some(value("--json")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

fn workload_for(name: &str, units: u32) -> Result<Workload, String> {
    match name {
        "lmbench" => Ok(Workload::LmbenchMix { ops: units }),
        "launch_storm" => Ok(Workload::LaunchStorm { launches: units }),
        "launch_storm_warm" => {
            Ok(Workload::LaunchStormWarm { launches: units })
        }
        "ipc_storm" => Ok(Workload::IpcStorm { msgs: units }),
        "conform" => Ok(Workload::ConformOps { programs: units }),
        "app_lifecycle" => Ok(Workload::AppLifecycle { cycles: units }),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn run_one(opts: &Options) -> Result<String, String> {
    if opts.lifecycle_seed.is_some() && !opts.heal {
        return Err(
            "--lifecycle-seed injects device crashes/wedges/checkpoint \
             corruption; it requires --heal"
                .to_string(),
        );
    }
    let workload = workload_for(&opts.workload, opts.units)?;
    let mut spec = FleetSpec::new(opts.devices, opts.seed, workload)
        .mix(opts.mix)
        .host_threads(opts.threads);
    let plan = match (opts.fault_seed, opts.lifecycle_seed) {
        (Some(f), Some(l)) => {
            // Mechanism faults in the kernel plus lifecycle faults in
            // the healing harness, merged into one plan; the harness
            // splits them back apart by site.
            let mut p = FaultPlan::matrix(f);
            for (site, cfg) in FaultPlan::lifecycle(l).sites() {
                p = p.site(site, *cfg);
            }
            Some(p)
        }
        (Some(f), None) => Some(FaultPlan::matrix(f)),
        (None, Some(l)) => Some(FaultPlan::lifecycle(l)),
        (None, None) => None,
    };
    if let Some(plan) = plan {
        spec = spec.fault_plan(plan);
    }
    if opts.heal {
        let mut config = HealConfig::default();
        if let Some(budget) = opts.watchdog_ns {
            config.watchdog_budget_ns = budget;
        }
        spec = spec.heal(config);
    } else if let Some(budget) = opts.watchdog_ns {
        spec = spec.watchdog_budget_ns(budget);
    }
    let run = run_fleet(&spec);
    Ok(FleetReport::from_run(&run).to_json())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("cider-fleet: {e}");
            return ExitCode::FAILURE;
        }
    };

    let json = match run_one(&opts) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("cider-fleet: {e}");
            return ExitCode::FAILURE;
        }
    };

    match &opts.json {
        Some(path) => match fs::write(path, &json) {
            Ok(()) => {
                println!("wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cider-fleet: write {path}: {e}");
                ExitCode::FAILURE
            }
        },
        None => {
            print!("{json}");
            ExitCode::SUCCESS
        }
    }
}
