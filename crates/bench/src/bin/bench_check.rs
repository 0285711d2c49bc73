//! Baseline checker for `BENCH_*.json` artifacts.
//!
//! Every bench binary writes its artifacts to `target/bench/`; the
//! committed baselines sit at the repo root, one per bench and mode
//! (`BENCH_<x>.json` for full, `BENCH_<x>.smoke.json` for smoke). Every
//! field is deterministic, so comparisons are exact (EXPERIMENTS.md,
//! "Baseline checking"). Two modes:
//!
//! * `--all` — parse and schema-check every `BENCH_*.json` at the root
//!   and in `target/bench/`, and exact-compare each fresh artifact with
//!   the committed one of the same `bench` id and `"mode"`, whatever
//!   its file name. No fresh artifact at all fails, and so does a
//!   fresh artifact with no such baseline. This is the tier-1 wiring: a
//!   parse failure means a writer regressed, a diff means a contract
//!   drifted.
//! * `<baseline> <fresh>` — exact comparison of two artifacts;
//!   cross-mode comparisons (smoke vs full) are refused.
//!
//! ```text
//! cargo run --release -p adsim-bench --bin bench_check -- --all
//! cargo run --release -p adsim-bench --bin bench_check -- \
//!     BENCH_soak.json target/bench/BENCH_soak.json
//! ```

use adsim_bench::check::{compare, pair_baselines, validate, Diff};
use adsim_bench::json::{parse, Value};
use adsim_bench::ARTIFACT_DIR;
use std::path::{Path, PathBuf};

fn load(path: &Path) -> Value {
    let shown = path.display();
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_check: cannot read {shown}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("bench_check: {shown} is not valid JSON: {e}"))
}

/// Loads `path` and checks its schema; returns the document and its
/// bench id.
fn load_valid(path: &Path) -> (Value, String) {
    let doc = load(path);
    let bench = validate(&doc)
        .unwrap_or_else(|e| panic!("bench_check: {} {e}", path.display()))
        .to_string();
    (doc, bench)
}

/// Sorted `BENCH_*.json` paths in `dir` (none if it does not exist).
fn artifacts(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|entry| {
                    let name = entry.ok()?.file_name().into_string().ok()?;
                    (name.starts_with("BENCH_") && name.ends_with(".json")).then(|| dir.join(name))
                })
                .collect()
        })
        .unwrap_or_default();
    paths.sort();
    paths
}

fn report(diffs: &[Diff], against: &Path) {
    eprintln!("bench_check: {} divergence(s) against {}:", diffs.len(), against.display());
    for d in diffs {
        eprintln!("  {d}");
    }
}

fn check_all() {
    let (committed_paths, committed): (Vec<PathBuf>, Vec<Value>) = artifacts(Path::new("."))
        .into_iter()
        .map(|path| {
            let (doc, bench) = load_valid(&path);
            println!("  {}: ok ({bench})", path.display());
            (path, doc)
        })
        .unzip();
    let (fresh_paths, fresh): (Vec<PathBuf>, Vec<Value>) = artifacts(Path::new(ARTIFACT_DIR))
        .into_iter()
        .map(|path| {
            let (doc, _) = load_valid(&path);
            (path, doc)
        })
        .unzip();
    let pairs = pair_baselines(&committed, &fresh).unwrap_or_else(|e| {
        eprintln!("bench_check --all: {e}");
        std::process::exit(1);
    });
    let mut failed = false;
    for ((path, doc), baseline) in fresh_paths.iter().zip(&fresh).zip(pairs) {
        let diffs = compare(&committed[baseline], doc);
        let verdict = if diffs.is_empty() {
            "matches committed exactly"
        } else {
            report(&diffs, &committed_paths[baseline]);
            failed = true;
            "DIVERGED from committed"
        };
        let field = |key| doc.get(key).and_then(Value::as_str).unwrap_or("?");
        println!(
            "  {}: {} {}, {verdict} ({})",
            path.display(),
            field("bench"),
            field("mode"),
            committed_paths[baseline].display()
        );
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench_check: {} artifact(s) parse clean", committed.len() + fresh.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--all") {
        check_all();
        return;
    }
    let [baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_check --all | bench_check <baseline> <fresh>");
        std::process::exit(2);
    };
    let diffs = compare(&load(Path::new(baseline_path)), &load(Path::new(fresh_path)));
    if diffs.is_empty() {
        println!("bench_check: {fresh_path} matches {baseline_path} exactly");
        return;
    }
    report(&diffs, Path::new(baseline_path));
    std::process::exit(1);
}
