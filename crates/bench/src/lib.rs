//! Shared infrastructure for the figure/table regeneration harnesses.
//!
//! Each bench target (`cargo bench -p adsim-bench --bench fig11_end_to_end`)
//! regenerates one table or figure from the paper's evaluation and
//! prints measured values side-by-side with the paper's published
//! numbers. Paper numbers live in [`paper`] and are used **only** for
//! comparison columns — measured values come from the models and
//! implementations in this workspace.
//!
//! The `bench_*` binaries check contracts (parity, determinism,
//! containment, coverage, causality, accuracy) and record only
//! deterministic fields; wall-clock timing is perfbench's job
//! (`benchmark/`).

pub mod check;
pub mod json;
pub mod paper;

/// Directory, relative to the working directory, that every `bench_*`
/// binary writes its artifacts into. Committed baselines live at the
/// repo root; `bench_check --all` compares the two.
pub const ARTIFACT_DIR: &str = "target/bench";

/// Writes one artifact into [`ARTIFACT_DIR`] and reports where.
pub fn write_artifact(name: &str, contents: &str) {
    let path = std::path::Path::new(ARTIFACT_DIR).join(name);
    std::fs::create_dir_all(ARTIFACT_DIR)
        .unwrap_or_else(|e| panic!("cannot create {ARTIFACT_DIR}: {e}"));
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}

/// Prints a section header.
pub fn header(id: &str, title: &str) {
    println!();
    println!("=== {id}: {title} ===");
    println!();
}

/// Formats a measured-vs-paper pair with relative error.
pub fn compare(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return format!("{measured:>10.2} (paper {paper:>8.2})");
    }
    let err = (measured - paper) / paper * 100.0;
    format!("{measured:>10.2} (paper {paper:>8.2}, {err:+6.1}%)")
}

/// Formats milliseconds adaptively (ms below 1 s, else seconds).
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1_000.0 {
        format!("{:.2} s", ms / 1_000.0)
    } else {
        format!("{ms:.1} ms")
    }
}

/// A pass/fail mark against the 100 ms constraint.
pub fn mark(ok: bool) -> &'static str {
    if ok {
        "MEETS"
    } else {
        "fails"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_reports_relative_error() {
        let s = compare(110.0, 100.0);
        assert!(s.contains("+10.0%"), "{s}");
    }

    #[test]
    fn fmt_ms_switches_units() {
        assert_eq!(fmt_ms(12.34), "12.3 ms");
        assert_eq!(fmt_ms(9_100.0), "9.10 s");
    }

    #[test]
    fn marks() {
        assert_eq!(mark(true), "MEETS");
        assert_eq!(mark(false), "fails");
    }
}
