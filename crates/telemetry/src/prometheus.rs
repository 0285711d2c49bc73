//! Prometheus text-exposition exporter and a hand-rolled line-format
//! validator (same spirit as `adsim_trace::validate_json`: our own
//! exports must re-parse before a bench is allowed to write them).

use crate::registry::{MetricsRegistry, SeriesValue};

/// Quantiles rendered for histogram series (as Prometheus summaries —
/// the paper's tail-latency vocabulary, 99.99th included).
const QUANTILES: [(f64, &str); 4] =
    [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99"), (0.9999, "0.9999")];

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

fn labels(vehicle: u32, stage: &str, extra: Option<(&str, &str)>) -> String {
    let mut parts = vec![format!("vehicle=\"{vehicle}\"")];
    if !stage.is_empty() {
        parts.push(format!("stage=\"{stage}\""));
    }
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Renders a registry in Prometheus text-exposition format. Series
/// export in canonical `(metric, vehicle, stage)` order with one
/// `# TYPE` comment per metric, so equal registries render
/// byte-identically — the fleet determinism tests compare this string.
pub fn prometheus_text(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut last_typed: Option<&str> = None;
    for (key, value) in reg.sorted() {
        let name = format!("adsim_{}", key.metric);
        if last_typed != Some(key.metric) {
            let kind = match value {
                SeriesValue::Counter(_) => "counter",
                SeriesValue::Gauge { .. } => "gauge",
                SeriesValue::Histogram(_) => "summary",
            };
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            last_typed = Some(key.metric);
        }
        match value {
            SeriesValue::Counter(c) => {
                out.push_str(&format!("{name}{} {c}\n", labels(key.vehicle, key.stage, None)));
            }
            SeriesValue::Gauge { value, .. } => {
                out.push_str(&format!(
                    "{name}{} {}\n",
                    labels(key.vehicle, key.stage, None),
                    fmt_value(*value)
                ));
            }
            SeriesValue::Histogram(h) => {
                if !h.is_empty() {
                    for (q, qname) in QUANTILES {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            labels(key.vehicle, key.stage, Some(("quantile", qname))),
                            fmt_value(h.quantile(q))
                        ));
                    }
                }
                let plain = labels(key.vehicle, key.stage, None);
                out.push_str(&format!("{name}_sum{plain} {}\n", fmt_value(h.sum())));
                out.push_str(&format!("{name}_count{plain} {}\n", h.count()));
            }
        }
    }
    out
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit()
}

fn validate_sample(line: &str, lineno: usize) -> Result<(), String> {
    let err = |what: &str| Err(format!("line {lineno}: {what}: {line:?}"));
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0usize;
    if chars.is_empty() || !is_name_start(chars[0]) {
        return err("sample must start with a metric name");
    }
    while i < chars.len() && is_name_char(chars[i]) {
        i += 1;
    }
    // Optional label set.
    if i < chars.len() && chars[i] == '{' {
        i += 1;
        loop {
            if i >= chars.len() {
                return err("unterminated label set");
            }
            if chars[i] == '}' {
                i += 1;
                break;
            }
            if !is_name_start(chars[i]) {
                return err("bad label name");
            }
            while i < chars.len() && is_name_char(chars[i]) {
                i += 1;
            }
            if i >= chars.len() || chars[i] != '=' {
                return err("label missing '='");
            }
            i += 1;
            if i >= chars.len() || chars[i] != '"' {
                return err("label value must be quoted");
            }
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                if chars[i] == '\\' {
                    i += 1;
                    if i >= chars.len() || !matches!(chars[i], '\\' | '"' | 'n') {
                        return err("bad escape in label value");
                    }
                }
                i += 1;
            }
            if i >= chars.len() {
                return err("unterminated label value");
            }
            i += 1; // closing quote
            if i < chars.len() && chars[i] == ',' {
                i += 1;
            }
        }
    }
    if i >= chars.len() || chars[i] != ' ' {
        return err("missing space before value");
    }
    while i < chars.len() && chars[i] == ' ' {
        i += 1;
    }
    let rest: String = chars[i..].iter().collect();
    let mut fields = rest.split_whitespace();
    let value = match fields.next() {
        Some(v) => v,
        None => return err("missing value"),
    };
    let value_ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
    if !value_ok {
        return err("unparseable value");
    }
    if let Some(ts) = fields.next() {
        if ts.parse::<i64>().is_err() {
            return err("unparseable timestamp");
        }
    }
    if fields.next().is_some() {
        return err("trailing fields after timestamp");
    }
    Ok(())
}

/// Validates Prometheus text-exposition output line by line: `# TYPE`
/// comments must carry a legal type keyword, samples must have a legal
/// metric name, well-formed label set and a parseable value (optional
/// integer timestamp). Returns the first offense with its line number.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut fields = decl.split_whitespace();
                let name_ok = fields.next().is_some_and(|n| {
                    n.chars().next().is_some_and(is_name_start) && n.chars().all(is_name_char)
                });
                if !name_ok {
                    return Err(format!("line {lineno}: TYPE comment missing metric name"));
                }
                let kind = fields.next().unwrap_or("");
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                }
                if fields.next().is_some() {
                    return Err(format!("line {lineno}: trailing fields in TYPE comment"));
                }
            }
            // `# HELP` and free comments pass un-inspected, as real
            // Prometheus parsers treat them.
            continue;
        }
        validate_sample(line, lineno)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.counter_add("frames_total", 0, "", 12);
        r.counter_add("frames_total", 1, "", 9);
        r.gauge_set("quality_level", 0, "", 11, 2.0);
        for v in [1.0, 2.0, 40.0] {
            r.observe_ms("stage_virtual_ms", 0, "det", v);
        }
        r
    }

    #[test]
    fn exposition_round_trips_through_the_validator() {
        let text = prometheus_text(&sample_registry());
        validate_prometheus(&text).expect("own exposition must validate");
        assert!(text.contains("# TYPE adsim_frames_total counter"));
        assert!(text.contains("adsim_frames_total{vehicle=\"0\"} 12"));
        assert!(text.contains("# TYPE adsim_stage_virtual_ms summary"));
        assert!(text.contains("quantile=\"0.9999\""));
        assert!(text.contains("adsim_stage_virtual_ms_count{vehicle=\"0\",stage=\"det\"} 3"));
    }

    #[test]
    fn exposition_is_byte_stable_under_insertion_order() {
        let mut a = MetricsRegistry::new();
        a.counter_add("b", 0, "", 1);
        a.counter_add("a", 0, "", 1);
        let mut b = MetricsRegistry::new();
        b.counter_add("a", 0, "", 1);
        b.counter_add("b", 0, "", 1);
        assert_eq!(prometheus_text(&a), prometheus_text(&b));
    }

    #[test]
    fn validator_accepts_legal_corner_cases() {
        let ok = "# HELP x free text here\n\
                  # TYPE x gauge\n\
                  x 1\n\
                  x{a=\"b c\",d=\"e\\\"f\"} -2.5e3 1234567\n\
                  up +Inf\n\
                  down NaN\n";
        validate_prometheus(ok).expect("legal exposition rejected");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for (bad, why) in [
            ("1leading_digit 2\n", "metric names cannot start with a digit"),
            ("# TYPE x wat\n", "unknown type keyword"),
            ("x{a=b} 1\n", "unquoted label value"),
            ("x{a=\"b} 1\n", "unterminated label value"),
            ("x\n", "missing value"),
            ("x one\n", "non-numeric value"),
            ("x 1 2 3\n", "trailing fields"),
        ] {
            assert!(validate_prometheus(bad).is_err(), "accepted malformed line ({why}): {bad:?}");
        }
    }

    #[test]
    fn histogram_exports_summary_totals() {
        let mut r = MetricsRegistry::new();
        r.observe_ms("lat", 0, "det", 1.0);
        let text = prometheus_text(&r);
        validate_prometheus(&text).expect("valid");
        assert!(text.contains("adsim_lat_sum{vehicle=\"0\",stage=\"det\"} 1"));
        assert!(text.contains("adsim_lat_count{vehicle=\"0\",stage=\"det\"} 1"));
    }
}
