//! cider-conform — differential ABI conformance engine.
//!
//! ```text
//! cider-conform [--seed N] [--programs N] [--no-faults]
//!               [--write-corpus DIR] [--max-coverage N]
//! cider-conform --replay DIR
//! cider-conform --bisect FILE [--interval N]
//! ```
//!
//! Generation mode runs the engine and prints the per-personality
//! conformance matrix; with `--write-corpus` the shrunk regression
//! corpus is written as `<name>.conform` files (deterministic: the
//! same seed always produces byte-identical files). Replay mode
//! re-executes every `.conform` file in a directory and exits
//! non-zero on the first observation mismatch. Bisect mode time-travel
//! bisects one corpus entry: it finds the first divergent op and
//! virtual timestamp per configuration pair via sparse checkpoints
//! plus binary search, and prints the state delta at that instant.

use std::process::ExitCode;

use cider_conform::engine::{run_engine, EngineConfig};
use cider_conform::CorpusEntry;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = EngineConfig::default();
    let mut write_corpus: Option<String> = None;
    let mut replay: Option<String> = None;
    let mut bisect_file: Option<String> = None;
    let mut interval: usize = 4;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.seed = v,
                None => return usage("--seed needs an integer"),
            },
            "--programs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.programs = v,
                None => return usage("--programs needs an integer"),
            },
            "--max-coverage" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.max_coverage_entries = v,
                None => return usage("--max-coverage needs an integer"),
            },
            "--no-faults" => cfg.with_faults = false,
            "--write-corpus" => match it.next() {
                Some(v) => write_corpus = Some(v.clone()),
                None => return usage("--write-corpus needs a directory"),
            },
            "--replay" => match it.next() {
                Some(v) => replay = Some(v.clone()),
                None => return usage("--replay needs a directory"),
            },
            "--bisect" => match it.next() {
                Some(v) => bisect_file = Some(v.clone()),
                None => return usage("--bisect needs a .conform file"),
            },
            "--interval" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => interval = v,
                None => return usage("--interval needs an integer"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument: {other}")),
        }
    }

    if let Some(path) = bisect_file {
        return bisect_entry(&path, interval);
    }
    if let Some(dir) = replay {
        return replay_dir(&dir);
    }

    let report = run_engine(&cfg);
    print!("{}", report.render(cfg.seed));

    if let Some(dir) = write_corpus {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cider-conform: cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for entry in &report.corpus {
            let path = format!("{dir}/{}.conform", entry.name);
            if let Err(e) = std::fs::write(&path, entry.serialize()) {
                eprintln!("cider-conform: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("wrote {} corpus entries to {dir}/", report.corpus.len());
    }
    ExitCode::SUCCESS
}

fn bisect_entry(path: &str, interval: usize) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cider-conform: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let entry = match CorpusEntry::parse(&text) {
        Ok(e) => e,
        Err(m) => {
            eprintln!("cider-conform: parse {path}: {m}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", entry.bisect_report(interval));
    ExitCode::SUCCESS
}

fn replay_dir(dir: &str) -> ExitCode {
    let mut paths: Vec<_> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "conform"))
            .collect(),
        Err(e) => {
            eprintln!("cider-conform: cannot read {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    paths.sort();
    if paths.is_empty() {
        eprintln!("cider-conform: no .conform files in {dir}");
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {} (read: {e})", path.display());
                failures += 1;
                continue;
            }
        };
        match CorpusEntry::parse(&text).map(|e| (e.replay(), e)) {
            Ok((Ok(()), e)) => {
                println!("PASS {} ({} ops)", e.name, e.program.ops.len())
            }
            Ok((Err(m), _)) => {
                eprintln!("FAIL {}\n{m}", path.display());
                failures += 1;
            }
            Err(m) => {
                eprintln!("FAIL {} (parse: {m})", path.display());
                failures += 1;
            }
        }
    }
    println!("replayed {} entries, {failures} failure(s)", paths.len());
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("cider-conform: {err}");
    }
    eprintln!(
        "usage: cider-conform [--seed N] [--programs N] [--no-faults] \
         [--write-corpus DIR] [--max-coverage N]\n       \
         cider-conform --replay DIR\n       \
         cider-conform --bisect FILE [--interval N]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
