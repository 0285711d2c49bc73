//! Baseline checker for `BENCH_*.json` artifacts.
//!
//! Every bench binary writes its artifacts to `target/bench/`; the
//! committed full-mode baselines sit at the repo root. Every field is
//! deterministic, so comparisons are exact (EXPERIMENTS.md, "Baseline
//! checking"). Two modes:
//!
//! * `--all` — parse and schema-check every `BENCH_*.json` at the root
//!   and in `target/bench/`, and exact-compare each fresh artifact with
//!   the committed one of the same name whenever their `"mode"` fields
//!   agree. This is the tier-1 wiring: a parse failure means a writer
//!   regressed, a diff means a contract drifted.
//! * `<baseline> <fresh>` — exact comparison of two artifacts;
//!   cross-mode comparisons (smoke vs full) are refused.
//!
//! ```text
//! cargo run --release -p adsim-bench --bin bench_check -- --all
//! cargo run --release -p adsim-bench --bin bench_check -- \
//!     BENCH_soak.json target/bench/BENCH_soak.json
//! ```

use adsim_bench::check::{check_pair, compare, validate, Diff};
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
    let committed = artifacts(Path::new("."));
    let fresh = artifacts(Path::new(ARTIFACT_DIR));
    assert!(
        !committed.is_empty() || !fresh.is_empty(),
        "bench_check --all: no BENCH_*.json artifacts found"
    );
    for path in &committed {
        let (_, bench) = load_valid(path);
        println!("  {}: ok ({bench})", path.display());
    }
    let mut failed = false;
    for path in &fresh {
        let (doc, bench) = load_valid(path);
        let baseline = Path::new(".").join(path.file_name().expect("artifact has a name"));
        let verdict = if committed.contains(&baseline) {
            match check_pair(&load(&baseline), &doc) {
                None => "mode differs from committed, parsed only",
                Some(diffs) if diffs.is_empty() => "matches committed exactly",
                Some(diffs) => {
                    report(&diffs, &baseline);
                    failed = true;
                    "DIVERGED from committed"
                }
            }
        } else {
            "no committed baseline"
        };
        println!("  {}: {bench}, {verdict}", path.display());
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
