//! Chrome trace-event JSON exporter and the JSON well-formedness check
//! its round-trip tests use (the workspace has no serde; both are
//! hand-rolled).

use crate::json::{self, push_escaped};
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
/// Spans map to complete events (`"ph":"X"`) with microsecond `ts`/
/// `dur`, instants to `"ph":"i"` with global scope, counters to
/// `"ph":"C"`. Thread ids come from the recorder; all events share
/// `"pid":1`. Indexed span names render as `name#index` so e.g. DNN
/// layers and ORB pyramid levels stay distinguishable on the timeline.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        push_escaped(&mut out, e.name);
        if e.index != NO_INDEX {
            out.push_str(&format!("#{}", e.index));
        }
        out.push_str("\",\"cat\":\"");
        out.push_str(category(e.name));
        out.push_str("\",\"pid\":1,\"tid\":");
        out.push_str(&e.tid.to_string());
        out.push_str(&format!(",\"ts\":{:.3}", e.ts_ns as f64 / 1e3));
        match e.kind {
            EventKind::Span { dur_ns, flops, bytes } => {
                out.push_str(&format!(",\"ph\":\"X\",\"dur\":{:.3}", dur_ns as f64 / 1e3));
                if flops > 0 || bytes > 0 {
                    out.push_str(&format!(
                        ",\"args\":{{\"flops\":{flops},\"bytes\":{bytes}}}"
                    ));
                }
            }
            EventKind::Instant => {
                out.push_str(",\"ph\":\"i\",\"s\":\"g\"");
            }
            EventKind::Counter { value } => {
                out.push_str(&format!(",\"ph\":\"C\",\"args\":{{\"value\":{value}}}"));
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
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

    #[test]
    fn exports_spans_instants_and_counters() {
        let events = vec![
            ev("stage.det", NO_INDEX, EventKind::Span { dur_ns: 5_000_000, flops: 0, bytes: 0 }),
            ev("dnn.conv2d", 3, EventKind::Span { dur_ns: 1_000, flops: 640, bytes: 128 }),
            ev("degrade.retry", NO_INDEX, EventKind::Instant),
            ev("util", NO_INDEX, EventKind::Counter { value: 0.75 }),
        ];
        let json = chrome_trace_json(&events);
        validate_json(&json).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"stage.det\""));
        assert!(json.contains("\"name\":\"dnn.conv2d#3\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":5000.000"));
        assert!(json.contains("\"flops\":640"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"cat\":\"compute\""));
    }

    #[test]
    fn governor_and_supervisor_counters_get_the_supervisor_track() {
        // Perfetto groups counter tracks by category: the quality-rung
        // and virtual-deadline-miss counters must land beside the
        // degradation instants, not in the catch-all bucket.
        let events = vec![
            ev("anytime.quality-level", NO_INDEX, EventKind::Counter { value: 2.0 }),
            ev("supervisor.virtual-miss", NO_INDEX, EventKind::Counter { value: 5.0 }),
            ev("guard.data", 7, EventKind::Instant),
        ];
        let json = chrome_trace_json(&events);
        validate_json(&json).unwrap();
        assert_eq!(json.matches("\"cat\":\"supervisor\"").count(), 3, "{json}");
        assert!(json.contains("\"name\":\"anytime.quality-level\",\"cat\":\"supervisor\""));
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let json = chrome_trace_json(&[]);
        assert_eq!(json, "{\"traceEvents\":[]}");
        validate_json(&json).unwrap();
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
        let events =
            vec![ev("weird\"name\\x", NO_INDEX, EventKind::Instant)];
        let json = chrome_trace_json(&events);
        validate_json(&json).unwrap();
        assert!(json.contains("weird\\\"name\\\\x"));
    }
}
