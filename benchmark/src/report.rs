//! What a run collects and how it is printed: named metrics with their
//! sample counts, the operation ledger, and the provenance record.

use crate::catalog::{MetricDef, Plan, Workload, END_TO_END, PER_LAYER};
use crate::host::{json_str, Host};

/// Metrics by name, in the order they were measured, plus free-text
/// notes printed beside them (raw sample counts, pooled percentiles,
/// the Fig. 6 ordering — reported, never asserted).
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, usize)>,
    notes: Vec<String>,
}

impl Metrics {
    /// Records `name = value`, estimated from `samples` samples.
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(self.get(name).is_none(), "{name} measured twice");
        if value.is_finite() {
            self.values.push((name, value, samples));
        } else {
            // JSON has no NaN; say what happened instead of printing one.
            self.values.push((name, 0.0, 0));
            self.notes
                .push(format!("{name} was not finite ({value}); reported as 0"));
        }
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|(_, v, _)| *v)
    }

    fn samples(&self, name: &str) -> usize {
        self.values
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or(0, |(.., s)| *s)
    }

    /// Gives every metric of `defs` not measured so far the value 0:
    /// the layer did no work in this workload.
    pub fn zero_missing(&mut self, defs: &[MetricDef]) {
        for d in defs {
            if self.get(d.name).is_none() {
                self.put(d.name, 0.0, 0);
            }
        }
    }
}

/// The operation ledger: one op is one timed (vehicle-)frame.
#[derive(Debug, Default)]
pub struct Failures {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Failures {
    pub fn attempt(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Counts `ops` failed operations; `why` is rendered only if any.
    pub fn fail(&mut self, ops: u64, why: impl FnOnce() -> String) {
        if ops > 0 {
            self.failed += ops;
            self.reasons.push(why());
        }
    }
}

/// One workload's finished run.
#[derive(Debug)]
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub plan: Plan,
    pub traced: bool,
    pub metrics: Metrics,
    pub failures: Failures,
    pub load_start: String,
    pub load_end: String,
    pub wall_s: f64,
}

impl RunResult {
    /// The metric table this run must fill.
    pub fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The measured names must be exactly the declared ones.
    pub fn check_names(&self) -> Result<(), String> {
        let declared: Vec<&str> = self.defs().iter().map(|d| d.name).collect();
        let mut measured: Vec<&str> = self.metrics.values.iter().map(|(n, ..)| *n).collect();
        if let Some(missing) = declared.iter().find(|n| !measured.contains(n)) {
            return Err(format!(
                "{}: metric {missing} was not measured",
                self.workload.name()
            ));
        }
        measured.retain(|n| !declared.contains(n));
        match measured.first() {
            Some(extra) => Err(format!(
                "{}: metric {extra} is not declared",
                self.workload.name()
            )),
            None => Ok(()),
        }
    }

    /// The human-readable block: name, unit, value, sample count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {} mode, {} passes, {}, {:.1} s)\n",
            self.workload.name(),
            self.seed,
            self.plan.mode(),
            self.plan.passes,
            if self.traced { "traced" } else { "untraced" },
            self.wall_s,
        );
        for d in self.defs() {
            out.push_str(&format!(
                "  {:<36} {:>16.4} {:<8} n={:<5} {} is better\n",
                d.name,
                self.metrics.get(d.name).unwrap_or(f64::NAN),
                d.unit,
                self.metrics.samples(d.name),
                d.better.as_str(),
            ));
        }
        out.push_str(&format!(
            "  ops_attempted {}  ops_failed {}\n",
            self.failures.attempted, self.failures.failed
        ));
        for line in self
            .failures
            .reasons
            .iter()
            .map(|r| format!("FAILED: {r}"))
            .chain(self.metrics.notes.iter().map(|n| format!("note: {n}")))
        {
            out.push_str(&format!("  {line}\n"));
        }
        out
    }

    /// The driver's contract: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`, every value with
    /// all its digits.
    pub fn contract_json(&self) -> String {
        let metrics: Vec<String> = self
            .defs()
            .iter()
            .map(|d| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(d.name),
                    self.metrics.get(d.name).unwrap_or(0.0),
                    json_str(d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.failed == 0,
            self.failures.attempted.max(1),
            self.failures.failed,
            metrics.join(", ")
        )
    }

    /// Provenance as JSON members: what ran, where, under what load.
    pub fn provenance(&self, host: &Host) -> Vec<String> {
        vec![
            format!("\"workload\": {}", json_str(self.workload.name())),
            format!("\"seed\": {}", self.seed),
            format!("\"mode\": {}", json_str(self.plan.mode())),
            format!("\"traced\": {}", self.traced),
            format!("\"passes\": {}", self.plan.passes),
            format!("\"vehicle_frames\": {}", self.plan.vehicle_frames),
            format!("\"threads\": {}", crate::world::THREADS),
            format!("\"nproc\": {}", host.nproc),
            format!("\"cpu_model\": {}", json_str(&host.cpu_model)),
            format!("\"simd_isa\": {}", json_str(host.simd_isa)),
            format!("\"rustc\": {}", json_str(&host.rustc)),
            format!("\"git_commit\": {}", json_str(&host.git_commit)),
            format!("\"loadavg_start\": {}", json_str(&self.load_start)),
            format!("\"loadavg_end\": {}", json_str(&self.load_end)),
            format!("\"ops_attempted\": {}", self.failures.attempted),
            format!("\"ops_failed\": {}", self.failures.failed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_bench::json::{self, Value};

    fn result(traced: bool) -> RunResult {
        let mut r = RunResult {
            workload: Workload::UrbanDnn,
            seed: 1,
            plan: Plan::for_seconds(20),
            traced,
            metrics: Metrics::default(),
            failures: Failures::default(),
            load_start: "0.1 0.2 0.3 1/100 7".into(),
            load_end: "0.2 0.2 0.3 1/100 9".into(),
            wall_s: 1.0,
        };
        r.failures.attempt(200);
        r
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys_and_every_declared_metric() {
        for traced in [false, true] {
            let mut r = result(traced);
            r.metrics.put(r.defs()[0].name, 1.234_567_890_1, 3);
            r.metrics.zero_missing(r.defs());
            r.check_names().expect("all declared metrics present");
            let doc = json::parse(&r.contract_json()).expect("valid JSON");
            let Value::Obj(members) = &doc else {
                panic!("object expected")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
            let Some(Value::Obj(metrics)) = doc.get("metrics") else {
                panic!("metrics object")
            };
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let declared: Vec<&str> = r.defs().iter().map(|d| d.name).collect();
            assert_eq!(
                emitted, declared,
                "the binary emits exactly the declared names"
            );
            let first = &metrics[0].1;
            assert_eq!(
                first.get("value").and_then(Value::as_num),
                Some(1.234_567_890_1)
            );
            assert_eq!(
                first.get("unit").and_then(Value::as_str),
                Some(r.defs()[0].unit)
            );
        }
    }

    #[test]
    fn undeclared_and_missing_metrics_are_refused() {
        let mut r = result(false);
        r.metrics.put("setup_s", 1.0, 1);
        assert!(r.check_names().unwrap_err().contains("was not measured"));
        r.metrics.zero_missing(END_TO_END);
        r.metrics.put("dnn.forward_ms", 1.0, 1);
        assert!(r.check_names().unwrap_err().contains("is not declared"));
    }

    #[test]
    fn failures_make_the_run_incorrect_and_are_listed() {
        let mut r = result(false);
        r.metrics.zero_missing(END_TO_END);
        r.failures.fail(0, || {
            unreachable!("no reason is rendered for zero failures")
        });
        r.failures
            .fail(3, || "pass 1: 3 frame digests differ from pass 0".into());
        assert!(r
            .contract_json()
            .starts_with("{\"correct\": false, \"attempted\": 200, \"failed\": 3,"));
        assert!(r.table().contains("FAILED: pass 1"));
    }

    #[test]
    fn provenance_is_valid_json_and_names_the_host() {
        let r = result(true);
        let host = Host {
            nproc: 2,
            cpu_model: "Some \"CPU\"".into(),
            simd_isa: "avx2",
            rustc: "rustc 1.95.0".into(),
            git_commit: "unknown".into(),
        };
        let doc =
            json::parse(&format!("{{{}}}", r.provenance(&host).join(", "))).expect("valid JSON");
        for key in [
            "seed",
            "mode",
            "passes",
            "vehicle_frames",
            "threads",
            "nproc",
            "cpu_model",
            "simd_isa",
            "rustc",
            "git_commit",
            "loadavg_start",
            "loadavg_end",
        ] {
            assert!(doc.get(key).is_some(), "{key} missing from provenance");
        }
        assert_eq!(
            doc.get("cpu_model").and_then(Value::as_str),
            Some("Some \"CPU\"")
        );
    }
}
