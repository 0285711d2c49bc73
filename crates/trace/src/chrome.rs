//! Chrome trace-event JSON exporter and the JSON well-formedness check
//! its round-trip tests use (the workspace has no serde; both go
//! through [`crate::json`]).

use crate::json::{self, fixed, obj, Value};
use crate::recorder::{Event, EventKind, NO_INDEX};

fn category(name: &str) -> &'static str {
    match name.split('.').next() {
        Some("pipeline") | Some("stage") => "pipeline",
        Some("dnn") | Some("tensor") => "compute",
        Some("orb") | Some("loc") => "vision",
        Some("runtime") => "runtime",
        Some("degrade") | Some("supervisor") | Some("anytime") | Some("guard") => "supervisor",
        Some("telemetry") => "telemetry",
        _ => "adsim",
    }
}

/// Serializes events as Chrome trace-event JSON (the JSON Object
/// Format: `{"traceEvents": [...]}`), loadable in Perfetto or
/// `chrome://tracing`.
///
/// Spans map to complete events (`"ph": "X"`) with microsecond `ts`/
/// `dur`, instants to `"ph": "i"` with global scope, counters to
/// `"ph": "C"`. Thread ids come from the recorder; all events share
/// `"pid": 1`. Indexed span names render as `name#index` so e.g. DNN
/// layers and ORB pyramid levels stay distinguishable on the timeline.
pub(crate) fn chrome_trace_json(events: &[Event]) -> String {
    let events = events.iter().map(|e| {
        let name = match e.index {
            NO_INDEX => e.name.to_string(),
            index => format!("{}#{index}", e.name),
        };
        let mut members = vec![
            ("name", name.into()), ("cat", category(e.name).into()), ("pid", 1.into()),
            ("tid", e.tid.into()), ("ts", fixed(e.ts_ns as f64 / 1e3, 3)),
        ];
        match e.kind {
            EventKind::Span { dur_ns, flops, bytes } => {
                members.extend([("ph", "X".into()), ("dur", fixed(dur_ns as f64 / 1e3, 3))]);
                if flops > 0 || bytes > 0 {
                    members.push(("args", obj([("flops", flops.into()), ("bytes", bytes.into())])));
                }
            }
            EventKind::Instant => members.extend([("ph", "i".into()), ("s", "g".into())]),
            EventKind::Counter { value } => {
                members.extend([("ph", "C".into()), ("args", obj([("value", value.into())]))])
            }
        }
        obj(members)
    });
    json::render(&obj([("traceEvents", Value::Arr(events.collect()))]))
}

/// Checks that `s` is one well-formed JSON value with no trailing
/// garbage: [`json::parse`] with the document tree dropped.
pub fn validate_json(s: &str) -> Result<(), String> {
    json::parse(s).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, index: u32, kind: EventKind) -> Event {
        Event { name, index, tid: 2, ts_ns: 1_234_567, kind }
    }

    /// The exported events, parsed back.
    fn exported(events: &[Event]) -> Vec<Value> {
        let doc = json::parse(&chrome_trace_json(events)).expect("export is valid JSON");
        let Some(Value::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents array in {doc:?}")
        };
        events.clone()
    }

    fn field<'a>(e: &'a Value, key: &str) -> &'a Value {
        e.get(key).unwrap_or_else(|| panic!("no {key} in {e:?}"))
    }

    #[test]
    fn exports_spans_instants_and_counters() {
        let events = exported(&[
            ev("stage.det", NO_INDEX, EventKind::Span { dur_ns: 5_000_000, flops: 0, bytes: 0 }),
            ev("dnn.conv2d", 3, EventKind::Span { dur_ns: 1_000, flops: 640, bytes: 128 }),
            ev("degrade.retry", NO_INDEX, EventKind::Instant),
            ev("util", NO_INDEX, EventKind::Counter { value: 0.75 }),
        ]);
        let [det, conv, retry, util] = &events[..] else { panic!("four events: {events:?}") };
        assert_eq!(field(det, "name").as_str(), Some("stage.det"));
        assert_eq!(field(det, "ph").as_str(), Some("X"));
        assert_eq!(field(det, "dur").as_num(), Some(5000.0));
        assert_eq!(field(det, "ts").as_num(), Some(1234.567));
        assert_eq!(field(det, "pid").as_num(), Some(1.0));
        assert_eq!(field(det, "tid").as_num(), Some(2.0));
        assert!(det.get("args").is_none(), "unreported flops/bytes carry no args");
        assert_eq!(field(conv, "name").as_str(), Some("dnn.conv2d#3"));
        assert_eq!(field(conv, "cat").as_str(), Some("compute"));
        assert_eq!(field(field(conv, "args"), "flops").as_num(), Some(640.0));
        assert_eq!(field(field(conv, "args"), "bytes").as_num(), Some(128.0));
        assert_eq!(field(retry, "ph").as_str(), Some("i"));
        assert_eq!(field(retry, "s").as_str(), Some("g"));
        assert_eq!(field(util, "ph").as_str(), Some("C"));
        assert_eq!(field(field(util, "args"), "value").as_num(), Some(0.75));
    }

    #[test]
    fn governor_and_supervisor_counters_get_the_supervisor_track() {
        // Perfetto groups counter tracks by category: the quality-rung
        // and virtual-deadline-miss counters must land beside the
        // degradation instants, not in the catch-all bucket.
        let events = exported(&[
            ev("anytime.quality-level", NO_INDEX, EventKind::Counter { value: 2.0 }),
            ev("supervisor.virtual-miss", NO_INDEX, EventKind::Counter { value: 5.0 }),
            ev("guard.data", 7, EventKind::Instant),
        ]);
        for e in &events {
            assert_eq!(field(e, "cat").as_str(), Some("supervisor"), "{e:?}");
        }
        assert_eq!(field(&events[0], "name").as_str(), Some("anytime.quality-level"));
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let json = chrome_trace_json(&[]);
        validate_json(&json).unwrap();
        assert!(exported(&[]).is_empty());
    }

    #[test]
    fn validator_accepts_json_shapes() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-1.5e-3",
            "\"a\\n\\u00e9\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}",
            "  { \"k\" : [ 1 , 2 ] }  ",
            "0",
            "-0",
            "0.5",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "01a",
            "\"unterminated",
            "{} trailing",
            "{'single':1}",
            "{\"a\":1,}",
            "1.",
            "1e",
            "01",
            "-01",
            "00.5",
        ] {
            assert!(validate_json(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn escapes_strings() {
        let json = chrome_trace_json(&[ev("weird\"name\\x", NO_INDEX, EventKind::Instant)]);
        assert!(json.contains(r#""weird\"name\\x""#), "{json}");
        let events = exported(&[ev("weird\"name\\x", NO_INDEX, EventKind::Instant)]);
        assert_eq!(field(&events[0], "name").as_str(), Some("weird\"name\\x"));
    }
}
