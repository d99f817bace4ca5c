//! The registry of checked-in artifacts: every file the reproduction's
//! evidence rests on, each with the function that renders it.
//!
//! `cider-report --regen` renders every entry twice, fails if the two
//! renderings differ, and writes the result in place. Fleet entries
//! render once on 1 host thread and once on 8. Run on a clean checkout
//! and followed by `git diff --exit-code`, that one step catches drift
//! across commits, repeat runs and host-thread counts alike.
//!
//! The claims an artifact exists to show are asserted in its render
//! function, so a regeneration that loses one fails instead of being
//! written.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use cider_abi::hash::fnv1a;
use cider_bench::report::Table;
use cider_conform::corpus;
use cider_conform::engine::{run_engine, EngineConfig, EngineReport};
use cider_fault::FaultPlan;
use cider_fleet::{run_fleet, FleetReport, FleetSpec, HealConfig, Workload};

/// What rendering an artifact produces.
#[derive(Debug, PartialEq, Eq)]
pub enum Body {
    /// The contents of one file.
    File(String),
    /// Every file of a directory the artifact owns outright, by name.
    Dir(BTreeMap<String, String>),
}

/// One checked-in artifact.
pub struct Artifact {
    /// Path relative to the repository root: a file, or a directory
    /// whose files the artifact owns.
    pub path: &'static str,
    render: Render,
}

/// Renders an artifact on the given number of host threads.
type Render = fn(host_threads: usize) -> Result<Body, String>;

/// Every checked-in artifact.
pub const ARTIFACTS: &[Artifact] = &[
    art("tests/golden/fig5.txt", fig5),
    art("tests/golden/fig6.txt", fig6),
    art("tests/golden/fig_apps.txt", fig_apps),
    art("tests/corpus", conform_corpus),
    art("tests/regress/div_ipc_ring.conform", div_ipc_ring),
    art("BENCH_dispatch.json", bench_dispatch),
    art("BENCH_fleet.json", bench_fleet),
    art("tests/golden/pins.txt", pins),
];

const fn art(path: &'static str, render: Render) -> Artifact {
    Artifact { path, render }
}

/// The repository root the artifact paths are relative to.
pub fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

impl Artifact {
    /// Whether `rel`, a path relative to the repository root, is this
    /// artifact or a file in it.
    pub fn owns(&self, rel: &str) -> bool {
        rel.strip_prefix(self.path)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
    }

    /// Renders on 1 and on 8 host threads, checks the two renderings
    /// agree, and writes the result under `root`. A directory artifact
    /// also deletes every file of it the rendering did not produce.
    ///
    /// # Errors
    ///
    /// A failed claim, differing renderings, or an I/O error.
    pub fn regen(&self, root: &Path) -> Result<(), String> {
        let body = (self.render)(1)?;
        if (self.render)(8)? != body {
            return Err("renderings on 1 and 8 host threads differ".into());
        }
        let path = root.join(self.path);
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        match body {
            Body::File(text) => fs::write(&path, text).map_err(io),
            Body::Dir(files) => {
                fs::create_dir_all(&path).map_err(io)?;
                for old in fs::read_dir(&path).map_err(io)? {
                    let old = old.map_err(io)?;
                    let name = old.file_name().to_string_lossy().into_owned();
                    if !files.contains_key(&name) {
                        fs::remove_file(old.path()).map_err(io)?;
                    }
                }
                for (name, text) in files {
                    fs::write(path.join(name), text).map_err(io)?;
                }
                Ok(())
            }
        }
    }
}

fn ensure(ok: bool, claim: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("claim failed: {claim}"))
    }
}

fn table_with_row(table: Table, row: &str) -> Result<Body, String> {
    let has_row = table.rows.iter().any(|r| r.name == row);
    ensure(has_row, &format!("the table has a `{row}` row"))?;
    Ok(Body::File(table.to_string()))
}

fn fig5(_: usize) -> Result<Body, String> {
    table_with_row(cider_bench::fig5::run(), "fork+exec(ios) warm")
}

fn fig6(_: usize) -> Result<Body, String> {
    Ok(Body::File(cider_bench::fig6::run().to_string()))
}

fn fig_apps(_: usize) -> Result<Body, String> {
    table_with_row(cider_bench::apps::run(), "jetsam kill to relaunch")
}

/// A conformance run's corpus as `<name>.conform` files.
fn corpus_files(report: &EngineReport) -> BTreeMap<String, String> {
    report
        .corpus
        .iter()
        .map(|e| (format!("{}.conform", e.name), e.serialize()))
        .collect()
}

fn conform_corpus(_: usize) -> Result<Body, String> {
    let report = run_engine(&EngineConfig::default());
    Ok(Body::Dir(corpus_files(&report)))
}

fn div_ipc_ring(_: usize) -> Result<Body, String> {
    Ok(Body::File(corpus::div_ipc_ring().serialize()))
}

fn bench_dispatch(_: usize) -> Result<Body, String> {
    let costs = cider_bench::dispatch::measure();
    for storm in &costs.storms {
        if storm.config == cider_bench::SystemConfig::CiderIos {
            ensure(storm.warm_speedup() >= 3.0, "cider_ios warm launch ≥3×")?;
        }
    }
    for v2 in &costs.ipc_v2 {
        ensure(
            v2.mach_msg_ns * 2 <= v2.v1_mach_msg_ns,
            "v2 mach_msg at least halves the v1 round trip",
        )?;
        ensure(
            v2.ring_batch_per_msg_ns < v2.mach_msg_ns,
            "a flushed ring batch beats the per-message trap",
        )?;
    }
    Ok(Body::File(costs.to_json()))
}

fn bench_fleet(host_threads: usize) -> Result<Body, String> {
    let json = cider_fleet::bench_matrix(host_threads);
    for workload in ["launch_storm_warm", "ipc_storm"] {
        let cell = format!("\"workload\": \"{workload}\"");
        ensure(json.contains(&cell), &format!("a {workload} cell"))?;
    }
    Ok(Body::File(json))
}

/// The conformance seeds whose reports and corpora are pinned.
const CONFORM_SEEDS: [u64; 3] = [7, 19, 31];

/// The seeds pinned for each fleet spec.
const FLEET_SEEDS: [u64; 3] = [11, 23, 47];

/// One `label fnv1a-hex` line per output that is too large to check
/// in: each equals the FNV-1a of what the `cider-conform` or
/// `cider-fleet` command named in the comments prints.
fn pins(host_threads: usize) -> Result<Body, String> {
    let mut out = String::new();
    let mut pin = |label: String, text: &str| {
        let _ = writeln!(out, "{label} {:016x}", fnv1a(text.as_bytes()));
    };
    // `cider-conform --seed S --programs 200 [--write-corpus DIR]`;
    // the corpus digest covers its files concatenated in name order.
    for seed in CONFORM_SEEDS {
        let cfg = EngineConfig {
            seed,
            ..EngineConfig::default()
        };
        let report = run_engine(&cfg);
        let files = corpus_files(&report);
        pin(format!("conform/seed-{seed}/report"), &report.render(seed));
        pin(
            format!("conform/seed-{seed}/corpus"),
            &files.into_values().collect::<String>(),
        );
    }
    for seed in FLEET_SEEDS {
        let lmbench = FleetSpec::new(64, 42, Workload::LmbenchMix { ops: 8 });
        let apps = Workload::AppLifecycle { cycles: 2 };
        let specs = [
            // `cider-fleet --devices 64 --seed 42 --mix even --units 8`
            // with `--fault-seed S`, then `--lifecycle-seed S --heal`.
            ("fault", lmbench.clone().fault_plan(FaultPlan::matrix(seed))),
            (
                "heal",
                lmbench
                    .fault_plan(FaultPlan::lifecycle(seed))
                    .heal(HealConfig::default()),
            ),
            // `cider-fleet --devices 32 --seed S --mix even
            // --workload app_lifecycle --units 2`
            ("app-lifecycle", FleetSpec::new(32, seed, apps)),
        ];
        for (kind, spec) in specs {
            let run = run_fleet(&spec.host_threads(host_threads));
            let json = FleetReport::from_run(&run).to_json();
            pin(format!("fleet/{kind}-seed-{seed}"), &json);
        }
    }
    // `cider-conform --bisect tests/regress/div_ipc_ring.conform`
    let bisect = corpus::div_ipc_ring().bisect_report(4);
    ensure(
        bisect.contains("diverge at op#"),
        "div_ipc_ring bisects to a divergent op",
    )?;
    pin("bisect/div_ipc_ring".into(), &bisect);
    Ok(Body::File(out))
}
