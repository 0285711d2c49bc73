//! Baseline comparison for `BENCH_*.json` artifacts.
//!
//! Every field a bench binary writes is a pure function of seeds, grid
//! sizes and virtual-clock state — wall-clock timing lives in perfbench
//! (`benchmark/`) — so a fresh artifact must reproduce its committed
//! baseline exactly, leaf for leaf. The one fence is `"mode"`: a smoke
//! run covers a smaller grid than the committed full-mode baseline, so
//! artifacts of different modes are never diffed.

use crate::json::Value;

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

/// The `bench_check --all` pairing rule for a committed artifact and a
/// fresh one of the same name: `None` when their `"mode"` fields differ
/// (both were parsed, nothing is compared), otherwise the exact diff.
pub fn check_pair(committed: &Value, fresh: &Value) -> Option<Vec<Diff>> {
    (committed.get("mode") == fresh.get("mode")).then(|| compare(committed, fresh))
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
    use crate::json::{parse, Value};

    /// `base` with every number `f64::next_up`-ed by one ulp at `key`.
    fn bump(base: &Value, key: &str) -> Value {
        match base {
            Value::Obj(m) => Value::Obj(
                m.iter()
                    .map(|(k, v)| match v {
                        Value::Num(x) if k == key => (k.clone(), Value::Num(x.next_up())),
                        _ => (k.clone(), bump(v, key)),
                    })
                    .collect(),
            ),
            Value::Arr(a) => Value::Arr(a.iter().map(|v| bump(v, key)).collect()),
            _ => base.clone(),
        }
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
        let diffs = check_pair(&committed, &fresh).expect("same mode is compared");
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "safe_stops");
        assert_eq!(check_pair(&committed, &committed), Some(Vec::new()));
    }

    #[test]
    fn cross_mode_pair_is_only_parsed() {
        let committed = parse(r#"{"bench": "b", "mode": "full", "cells": [1, 2, 3]}"#).unwrap();
        let fresh = parse(r#"{"bench": "b", "mode": "smoke", "cells": [1]}"#).unwrap();
        assert_eq!(check_pair(&committed, &fresh), None);
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
