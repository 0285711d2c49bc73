//! Baseline comparison for `BENCH_*.json` artifacts.
//!
//! Every field a bench binary writes is a pure function of seeds, grid
//! sizes and virtual-clock state — wall-clock timing lives in perfbench
//! (`benchmark/`) — so a fresh artifact must reproduce its committed
//! baseline exactly, leaf for leaf. Each mode has its own baseline: a
//! smoke run covers a smaller grid than a full one, so a fresh artifact
//! is paired with the committed artifact of the same `bench` id and
//! `"mode"` ([`pair_baselines`]), and artifacts of different modes are never
//! diffed.

use crate::json::Value;
use crate::ARTIFACT_DIR;

/// One divergence between baseline and fresh documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    /// Dotted path to the offending leaf (`cells[3].safe_stops`).
    pub path: String,
    /// What went wrong, human-readable.
    pub what: String,
}

impl std::fmt::Display for Diff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.what)
    }
}

/// Compares `fresh` against `baseline`, every leaf exactly. Returns
/// every divergence found, in document order; a cross-mode pair is
/// refused with a single `mode` diff.
pub fn compare(baseline: &Value, fresh: &Value) -> Vec<Diff> {
    // Refuse cross-mode comparisons up front: a smoke-mode artifact has
    // a different grid than the committed full-mode baseline, and every
    // array length would "fail" confusingly.
    if let (Some(b), Some(f)) = (
        baseline.get("mode").and_then(Value::as_str),
        fresh.get("mode").and_then(Value::as_str),
    ) {
        if b != f {
            return vec![Diff {
                path: "mode".into(),
                what: format!(
                    "baseline is \"{b}\" but fresh run is \"{f}\" — regenerate with matching flags"
                ),
            }];
        }
    }
    let mut diffs = Vec::new();
    walk(baseline, fresh, "", &mut diffs);
    diffs
}

/// The `bench_check --all` pairing rule: a committed artifact is the
/// baseline of a fresh one when both carry the same `bench` id and
/// `"mode"`, whatever their file names.
fn same_run(committed: &Value, fresh: &Value) -> bool {
    committed.get("bench") == fresh.get("bench") && committed.get("mode") == fresh.get("mode")
}

/// Pairs every fresh artifact with its committed baseline under
/// `same_run`: element `i` is the index in `committed` of the
/// baseline of `fresh[i]`. Fails closed, since either gap would let a
/// broken bench pass: an empty `fresh` means no bench wrote its
/// artifact, and a fresh artifact without a baseline has nothing to be
/// checked against.
pub fn pair_baselines(committed: &[Value], fresh: &[Value]) -> Result<Vec<usize>, String> {
    if fresh.is_empty() {
        return Err(format!("no fresh BENCH_*.json in {ARTIFACT_DIR}/: run the benches first"));
    }
    let mut orphans = Vec::new();
    let pairs = fresh
        .iter()
        .filter_map(|doc| {
            let baseline = committed.iter().position(|c| same_run(c, doc));
            if baseline.is_none() {
                let field = |key| doc.get(key).and_then(Value::as_str).unwrap_or("?");
                orphans.push(format!("{} {}", field("bench"), field("mode")));
            }
            baseline
        })
        .collect();
    if orphans.is_empty() {
        Ok(pairs)
    } else {
        Err(format!("no committed baseline for fresh {}", orphans.join(", ")))
    }
}

/// Checks one parsed artifact's schema: the `bench` id plus the
/// top-level keys that bench must carry. Returns the bench id.
pub fn validate(doc: &Value) -> Result<&str, String> {
    let bench = doc.get("bench").and_then(Value::as_str).ok_or("no \"bench\" field")?;
    match required_keys(bench).iter().find(|key| doc.get(key).is_none()) {
        Some(key) => Err(format!("({bench}) is missing required key \"{key}\"")),
        None => Ok(bench),
    }
}

/// Top-level keys each known artifact must carry. A bench whose writer
/// drops one of these regressed its schema even if the JSON still parses.
fn required_keys(bench: &str) -> &'static [&'static str] {
    match bench {
        "bench_recovery" => &[
            "seed",
            "mode",
            "frames",
            "parity",
            "containment",
            "crash_free_transparency",
            "exhaustion",
            "sweep",
        ],
        "bench_fleet" => &["seed", "mode", "parity", "memory", "campaigns", "full"],
        "bench_telemetry" => &["seed", "mode", "parity", "rerun_byte_identical", "dump_causality"],
        _ => &[],
    }
}

fn push(diffs: &mut Vec<Diff>, path: &str, what: String) {
    let path = if path.is_empty() { "<root>" } else { path };
    diffs.push(Diff { path: path.to_string(), what });
}

fn walk(base: &Value, fresh: &Value, path: &str, diffs: &mut Vec<Diff>) {
    match (base, fresh) {
        (Value::Obj(bm), Value::Obj(fm)) => {
            for (key, bv) in bm {
                let child = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                match fresh.get(key) {
                    Some(fv) => walk(bv, fv, &child, diffs),
                    None => push(diffs, &child, "missing from fresh run".into()),
                }
            }
            for (key, _) in fm {
                if base.get(key).is_none() {
                    let child = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                    push(diffs, &child, "not in baseline (new field?)".into());
                }
            }
        }
        (Value::Arr(ba), Value::Arr(fa)) => {
            if ba.len() != fa.len() {
                push(diffs, path, format!("length {} != baseline {}", fa.len(), ba.len()));
                return;
            }
            for (i, (bv, fv)) in ba.iter().zip(fa).enumerate() {
                walk(bv, fv, &format!("{path}[{i}]"), diffs);
            }
        }
        _ if base.kind() != fresh.kind() => {
            push(diffs, path, format!("type {} != baseline {}", fresh.kind(), base.kind()));
        }
        _ => {
            if base != fresh {
                push(diffs, path, format!("{fresh:?} != baseline {base:?}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, render, Value};

    /// `base` with every number at `key` moved by the smallest step of
    /// its kind: one ulp for a float, one for an integer.
    fn bump(base: &Value, key: &str) -> Value {
        match base {
            Value::Obj(m) => Value::Obj(
                m.iter()
                    .map(|(k, v)| match v {
                        Value::Num(x) if k == key => (k.clone(), Value::Num(x.next_up())),
                        Value::Int(i) if k == key => (k.clone(), Value::Int(i + 1)),
                        _ => (k.clone(), bump(v, key)),
                    })
                    .collect(),
            ),
            Value::Arr(a) => Value::Arr(a.iter().map(|v| bump(v, key)).collect()),
            _ => base.clone(),
        }
    }

    #[test]
    fn pairing_fails_when_no_fresh_artifact_was_written() {
        let committed = [parse(r#"{"bench": "soak", "mode": "smoke"}"#).unwrap()];
        let err = pair_baselines(&committed, &[]).unwrap_err();
        assert!(err.contains("no fresh BENCH_*.json"), "{err}");
    }

    #[test]
    fn pairing_fails_on_a_fresh_artifact_without_a_baseline() {
        let committed = [
            parse(r#"{"bench": "soak", "mode": "full"}"#).unwrap(),
            parse(r#"{"bench": "soak", "mode": "smoke"}"#).unwrap(),
        ];
        let smoke = parse(r#"{"bench": "soak", "mode": "smoke"}"#).unwrap();
        assert_eq!(pair_baselines(&committed, std::slice::from_ref(&smoke)), Ok(vec![1]));
        let orphan = parse(r#"{"bench": "fleet", "mode": "smoke"}"#).unwrap();
        let err = pair_baselines(&committed, &[smoke, orphan]).unwrap_err();
        assert!(err.contains("fleet smoke"), "{err}");
    }

    #[test]
    fn identical_documents_have_no_diffs() {
        let v = parse(r#"{"mode": "full", "seed": 7, "cells": [{"safe_stops": 3}]}"#).unwrap();
        assert!(compare(&v, &v).is_empty());
    }

    #[test]
    fn one_ulp_drift_in_any_numeric_leaf_fails() {
        // Latency- and overhead-named keys get no slack either.
        let b = parse(
            r#"{"seed": 7, "safe_stops": 3, "p99_ms": 31.5, "overhead_pct": 0.17,
                "miss_rate": 0.25}"#,
        )
        .unwrap();
        for key in ["seed", "safe_stops", "p99_ms", "overhead_pct", "miss_rate"] {
            let diffs = compare(&b, &bump(&b, key));
            assert_eq!(diffs.len(), 1, "{key}: {diffs:?}");
            assert_eq!(diffs[0].path, key);
        }
    }

    #[test]
    fn a_one_off_twenty_digit_seed_is_one_diff() {
        let b = parse(r#"{"cells": [{"seed": 11400714819238673611, "safe_stops": 3}]}"#).unwrap();
        let f = parse(r#"{"cells": [{"seed": 11400714819238673612, "safe_stops": 3}]}"#).unwrap();
        let diffs = compare(&b, &f);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert_eq!(diffs[0].path, "cells[0].seed");
    }

    #[test]
    fn nested_object_drift_fails() {
        let b = parse(r#"{"overhead": {"ratio": 1.0}, "cells": [{"x": {"mttr_frames": 2.5}}]}"#)
            .unwrap();
        let diffs = compare(&b, &bump(&b, "ratio"));
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "overhead.ratio");
        let diffs = compare(&b, &bump(&b, "mttr_frames"));
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "cells[0].x.mttr_frames");
    }

    #[test]
    fn shape_changes_are_reported() {
        let b = parse(r#"{"cells": [1, 2], "gone": true}"#).unwrap();
        let f = parse(r#"{"cells": [1, 2, 3], "new_field": 1}"#).unwrap();
        let diffs = compare(&b, &f);
        let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
        assert!(paths.contains(&"cells"), "{paths:?}");
        assert!(paths.contains(&"gone"), "{paths:?}");
        assert!(paths.contains(&"new_field"), "{paths:?}");
    }

    #[test]
    fn cross_mode_comparison_is_refused_with_one_clear_diff() {
        let b = parse(r#"{"mode": "full", "cells": [1, 2, 3]}"#).unwrap();
        let f = parse(r#"{"mode": "smoke", "cells": [1]}"#).unwrap();
        let diffs = compare(&b, &f);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "mode");
    }

    #[test]
    fn same_mode_pair_that_differs_fails() {
        let committed = parse(r#"{"bench": "b", "mode": "smoke", "safe_stops": 3}"#).unwrap();
        let fresh = parse(r#"{"bench": "b", "mode": "smoke", "safe_stops": 4}"#).unwrap();
        assert!(same_run(&committed, &fresh));
        let diffs = compare(&committed, &fresh);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "safe_stops");
        assert!(compare(&committed, &committed).is_empty());
    }

    #[test]
    fn pairs_only_the_same_bench_and_mode() {
        let full = parse(r#"{"bench": "b", "mode": "full", "cells": [1, 2, 3]}"#).unwrap();
        let smoke = parse(r#"{"bench": "b", "mode": "smoke", "cells": [1]}"#).unwrap();
        let other = parse(r#"{"bench": "c", "mode": "smoke", "cells": [1]}"#).unwrap();
        assert!(same_run(&smoke, &smoke));
        assert!(!same_run(&full, &smoke));
        assert!(!same_run(&other, &smoke));
    }

    #[test]
    fn committed_artifacts_are_in_the_one_writer_form() {
        // A hand-edited or foreign-format baseline fails here.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut checked = Vec::new();
        for entry in std::fs::read_dir(root).expect("repo root is readable") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("artifact is readable");
            let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(render(&doc) == text, "{name} is not in the writer's form");
            validate(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
            checked.push(name);
        }
        checked.sort();
        for bench in ["anytime", "batch", "faults", "fleet", "recovery", "soak", "telemetry"] {
            for name in [format!("BENCH_{bench}.json"), format!("BENCH_{bench}.smoke.json")] {
                assert!(checked.contains(&name), "{name} is not committed: {checked:?}");
            }
        }
    }

    #[test]
    fn validate_requires_the_bench_id_and_its_keys() {
        let ok = parse(r#"{"bench": "bench_soak", "mode": "full"}"#).unwrap();
        assert_eq!(validate(&ok), Ok("bench_soak"));
        assert!(validate(&parse(r#"{"mode": "full"}"#).unwrap()).is_err());
        let partial = parse(r#"{"bench": "bench_fleet", "seed": 1, "mode": "full"}"#).unwrap();
        assert!(validate(&partial).unwrap_err().contains("parity"));
    }
}
