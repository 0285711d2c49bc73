//! The label-keyed metrics registry: counters, gauges and
//! `LogHistogram`-backed latency summaries.
//!
//! Every series is keyed by `(metric, vehicle, stage)`. Values are
//! **virtual-clock quantities only** — frame indices, injected virtual
//! latencies, deterministic event counts — so a registry is a pure
//! function of the workload spec and merges byte-identically across
//! worker counts and steal orders (the same contract `CellOutcome`
//! upholds). Wall-clock measurements belong in bench JSON, never here.

use adsim_trace::json::{self, obj, Value};
use adsim_trace::LogHistogram;

/// One series' identity. Label values are `&'static str` by design:
/// producers use fixed vocabularies (stage names, mode names, trigger
/// names), which keeps the record hot path allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct SeriesKey {
    /// Metric name (`snake_case`, Prometheus-safe charset).
    pub(crate) metric: &'static str,
    /// Vehicle id.
    pub(crate) vehicle: u32,
    /// Stage / sub-label, or `""` for none.
    pub(crate) stage: &'static str,
}

/// One series' value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SeriesValue {
    /// Monotonic event count.
    Counter(u64),
    /// Last-known sample, stamped with the virtual frame it was taken
    /// on. The frame stamp makes the merge rule order-invariant: the
    /// sample from the larger frame wins (value bits break ties), so
    /// registries can merge in any order.
    Gauge {
        /// Frame index the sample was taken on.
        frame: u64,
        /// The sampled value.
        value: f64,
    },
    /// Streaming log-bucketed distribution.
    Histogram(LogHistogram),
}

/// A set of metric series. Plain owned data: a supervisor records into
/// its own registry, and a fleet merges the per-vehicle registries.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    series: Vec<(SeriesKey, SeriesValue)>,
}

/// `(frame, value-bits)` total order used for the gauge merge rule.
fn gauge_rank(frame: u64, value: f64) -> (u64, u64) {
    (frame, value.to_bits())
}

impl MetricsRegistry {
    /// An empty registry.
    pub const fn new() -> Self {
        Self { series: Vec::new() }
    }

    /// True when no series exist.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    fn slot(&mut self, key: SeriesKey, init: impl FnOnce() -> SeriesValue) -> &mut SeriesValue {
        if let Some(i) = self.series.iter().position(|(k, _)| *k == key) {
            &mut self.series[i].1
        } else {
            self.series.push((key, init()));
            &mut self.series.last_mut().expect("just pushed").1
        }
    }

    /// Adds `n` to a counter series (created at zero on first touch).
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a non-counter type.
    pub fn counter_add(
        &mut self,
        metric: &'static str,
        vehicle: u32,
        stage: &'static str,
        n: u64,
    ) {
        let v = self.slot(SeriesKey { metric, vehicle, stage }, || SeriesValue::Counter(0));
        match v {
            SeriesValue::Counter(c) => *c += n,
            _ => panic!("series {metric} is not a counter"),
        }
    }

    /// Sets a gauge sample. Follows the merge rule even locally (the
    /// sample with the larger `(frame, value-bits)` rank sticks), so a
    /// gauge's final value is order-invariant over any interleaving of
    /// sets and merges.
    pub fn gauge_set(
        &mut self,
        metric: &'static str,
        vehicle: u32,
        stage: &'static str,
        frame: u64,
        value: f64,
    ) {
        let v = self.slot(SeriesKey { metric, vehicle, stage }, || SeriesValue::Gauge {
            frame,
            value,
        });
        match v {
            SeriesValue::Gauge { frame: f, value: x } => {
                if gauge_rank(frame, value) >= gauge_rank(*f, *x) {
                    *f = frame;
                    *x = value;
                }
            }
            _ => panic!("series {metric} is not a gauge"),
        }
    }

    /// Records one observation into a histogram series.
    pub fn observe_ms(
        &mut self,
        metric: &'static str,
        vehicle: u32,
        stage: &'static str,
        ms: f64,
    ) {
        let v = self.slot(SeriesKey { metric, vehicle, stage }, || {
            SeriesValue::Histogram(LogHistogram::new())
        });
        match v {
            SeriesValue::Histogram(h) => h.record(ms),
            _ => panic!("series {metric} is not a histogram"),
        }
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, metric: &str, vehicle: u32, stage: &str) -> u64 {
        match self.get(metric, vehicle, stage) {
            Some(SeriesValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    fn get(&self, metric: &str, vehicle: u32, stage: &str) -> Option<&SeriesValue> {
        self.series
            .iter()
            .find(|(k, _)| k.metric == metric && k.vehicle == vehicle && k.stage == stage)
            .map(|(_, v)| v)
    }

    /// Merges another registry into this one: counters add, gauges keep
    /// the larger `(frame, value-bits)` rank, histograms merge
    /// bucket-wise. Commutative and associative up to histogram `sum`
    /// (an f64 accumulation — exact when merge order is fixed, which is
    /// why the fleet engine merges per-cell registries in spec order).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (key, value) in &other.series {
            match value {
                SeriesValue::Counter(n) => self.counter_add(key.metric, key.vehicle, key.stage, *n),
                SeriesValue::Gauge { frame, value } => {
                    self.gauge_set(key.metric, key.vehicle, key.stage, *frame, *value)
                }
                SeriesValue::Histogram(h) => {
                    let v = self.slot(*key, || SeriesValue::Histogram(LogHistogram::new()));
                    match v {
                        SeriesValue::Histogram(mine) => mine.merge(h),
                        _ => panic!("series {} is not a histogram", key.metric),
                    }
                }
            }
        }
    }

    /// Sorts series into canonical `(metric, vehicle, stage)` order, so
    /// exports are byte-stable regardless of first-touch order.
    pub fn sort(&mut self) {
        self.series.sort_by_key(|s| s.0);
    }

    /// Series in canonical order (allocates the index, not the data).
    pub(crate) fn sorted(&self) -> Vec<&(SeriesKey, SeriesValue)> {
        let mut v: Vec<&(SeriesKey, SeriesValue)> = self.series.iter().collect();
        v.sort_by_key(|s| s.0);
        v
    }

    /// JSON snapshot of every series in canonical order, rendered by
    /// the workspace writer ([`adsim_trace::json`]).
    pub fn snapshot_json(&self) -> String {
        let series = self.sorted().into_iter().map(|(key, value)| {
            let mut m: Vec<(&str, Value)> =
                vec![("metric", key.metric.into()), ("vehicle", key.vehicle.into())];
            if !key.stage.is_empty() {
                m.push(("stage", key.stage.into()));
            }
            match value {
                SeriesValue::Counter(c) => {
                    m.extend([("type", "counter".into()), ("value", (*c).into())])
                }
                SeriesValue::Gauge { frame, value } => m.extend([
                    ("type", "gauge".into()),
                    ("frame", (*frame).into()),
                    ("value", (*value).into()),
                ]),
                SeriesValue::Histogram(h) => {
                    m.extend([
                        ("type", "histogram".into()), ("count", h.count().into()),
                        ("sum", h.sum().into()),
                    ]);
                    if !h.is_empty() {
                        m.extend([
                            ("min", h.min().into()), ("max", h.max().into()),
                            ("p50", h.quantile(0.50).into()), ("p99", h.quantile(0.99).into()),
                        ]);
                    }
                }
            }
            obj(m)
        });
        json::render(&obj([("series", Value::Arr(series.collect()))]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Series readers the tests check merges and exports against.
    impl MetricsRegistry {
        /// Reads a gauge's value.
        pub(crate) fn gauge(&self, metric: &str, vehicle: u32, stage: &str) -> Option<f64> {
            match self.get(metric, vehicle, stage) {
                Some(SeriesValue::Gauge { value, .. }) => Some(*value),
                _ => None,
            }
        }

        /// Reads a histogram series.
        pub(crate) fn histogram(
            &self,
            metric: &str,
            vehicle: u32,
            stage: &str,
        ) -> Option<&LogHistogram> {
            match self.get(metric, vehicle, stage) {
                Some(SeriesValue::Histogram(h)) => Some(h),
                _ => None,
            }
        }
    }

    #[test]
    fn counters_accumulate_per_key() {
        let mut r = MetricsRegistry::new();
        r.counter_add("frames", 0, "", 2);
        r.counter_add("frames", 0, "", 3);
        r.counter_add("frames", 1, "", 7);
        r.counter_add("trips", 0, "det", 1);
        assert_eq!(r.counter("frames", 0, ""), 5);
        assert_eq!(r.counter("frames", 1, ""), 7);
        assert_eq!(r.counter("trips", 0, "det"), 1);
        assert_eq!(r.counter("absent", 0, ""), 0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn gauge_keeps_larger_frame_rank() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("quality", 0, "", 5, 2.0);
        r.gauge_set("quality", 0, "", 3, 9.0); // older frame loses
        assert_eq!(r.gauge("quality", 0, ""), Some(2.0));
        r.gauge_set("quality", 0, "", 8, 1.0); // newer frame wins
        assert_eq!(r.gauge("quality", 0, ""), Some(1.0));
        // Same frame: larger value bits win, deterministically.
        r.gauge_set("quality", 0, "", 8, 3.0);
        r.gauge_set("quality", 0, "", 8, 2.0);
        assert_eq!(r.gauge("quality", 0, ""), Some(3.0));
    }

    // -- Merge property grid, mirroring the LogHistogram::merge tests:
    // merge-order invariance and empty-merge identity.

    fn shard(seed: u64) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        let mut x = seed;
        for i in 0..20u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            r.counter_add("events", (x % 3) as u32, "", 1 + x % 5);
            r.gauge_set("level", 0, "", seed * 100 + i, (x % 7) as f64);
            r.observe_ms("lat", (x % 2) as u32, "det", 0.5 + (x % 11) as f64);
        }
        r
    }

    #[test]
    fn merge_is_shard_order_invariant() {
        let shards = [shard(1), shard(2), shard(3), shard(4)];
        let orders: [[usize; 4]; 4] =
            [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]];
        let merged: Vec<MetricsRegistry> = orders
            .iter()
            .map(|ord| {
                let mut m = MetricsRegistry::new();
                for &i in ord {
                    m.merge(&shards[i]);
                }
                m
            })
            .collect();
        let reference = &merged[0];
        for m in &merged[1..] {
            for (key, value) in reference.sorted() {
                match value {
                    SeriesValue::Counter(c) => {
                        assert_eq!(m.counter(key.metric, key.vehicle, key.stage), *c)
                    }
                    SeriesValue::Gauge { value, .. } => {
                        assert_eq!(m.gauge(key.metric, key.vehicle, key.stage), Some(*value))
                    }
                    SeriesValue::Histogram(h) => {
                        let other = m
                            .histogram(key.metric, key.vehicle, key.stage)
                            .expect("series present in every order");
                        // Counts, extrema and quantiles are exact under
                        // any merge order; `sum` is an f64 accumulation,
                        // compared within epsilon (same as the
                        // LogHistogram::merge grid).
                        assert_eq!(other.count(), h.count());
                        assert_eq!(other.min(), h.min());
                        assert_eq!(other.max(), h.max());
                        assert_eq!(other.quantile(0.99), h.quantile(0.99));
                        assert!((other.sum() - h.sum()).abs() < 1e-9 * h.sum().abs().max(1.0));
                    }
                }
            }
            assert_eq!(m.len(), reference.len());
        }
    }

    #[test]
    fn empty_merge_is_identity() {
        let mut a = shard(9);
        a.sort();
        let before = a.snapshot_json();
        a.merge(&MetricsRegistry::new());
        assert_eq!(a.snapshot_json(), before, "merging an empty registry must change nothing");
        let mut b = MetricsRegistry::new();
        b.merge(&a);
        assert_eq!(b.snapshot_json(), before, "merging into empty must reproduce the source");
    }

    #[test]
    fn snapshot_json_is_valid_and_canonically_ordered() {
        let mut r = MetricsRegistry::new();
        r.observe_ms("z_last", 2, "det", 1.0);
        r.counter_add("a_first", 1, "", 1);
        r.gauge_set("mid", 0, "loc", 4, 0.5);
        let json = r.snapshot_json();
        adsim_trace::validate_json(&json).expect("snapshot must be valid JSON");
        let a = json.find("a_first").unwrap();
        let m = json.find("mid").unwrap();
        let z = json.find("z_last").unwrap();
        assert!(a < m && m < z, "series must export in canonical order");
        assert!(json.contains(
            "{\"metric\": \"a_first\", \"vehicle\": 1, \"type\": \"counter\""
        ));
    }
}
