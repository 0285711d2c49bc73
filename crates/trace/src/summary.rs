use crate::loghist::LogHistogram;
use crate::recorder::{Event, EventKind};
use crate::{REGION_SPAN, WORKER_SPAN};

/// Latency summary of one span name: counts plus the tail quantiles the
/// paper reports (Fig. 6 plots mean and 99.99th percentile per stage).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Completed spans.
    pub count: u64,
    /// Sum of durations (ms, exact).
    pub total_ms: f64,
    /// Mean duration (ms, exact).
    pub mean_ms: f64,
    /// Median (ms, one-bucket accuracy).
    pub p50_ms: f64,
    /// 95th percentile (ms, one-bucket accuracy).
    pub p95_ms: f64,
    /// 99th percentile (ms, one-bucket accuracy).
    pub p99_ms: f64,
    /// 99.99th percentile (ms, one-bucket accuracy) — the paper's
    /// headline tail constraint.
    pub p99_99_ms: f64,
    /// Smallest duration (ms, exact).
    pub min_ms: f64,
    /// Largest duration (ms, exact).
    pub max_ms: f64,
}

impl SpanSummary {
    fn from_histogram(name: &'static str, h: &LogHistogram) -> Self {
        Self {
            name,
            count: h.count(),
            total_ms: h.sum(),
            mean_ms: h.mean(),
            p50_ms: h.quantile(0.50),
            p95_ms: h.quantile(0.95),
            p99_ms: h.quantile(0.99),
            p99_99_ms: h.quantile(0.9999),
            min_ms: h.min(),
            max_ms: h.max(),
        }
    }
}

/// Per-span-name latency summaries for a finished trace, sorted by
/// total time descending (the hottest span first).
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// All span summaries, hottest (largest total) first.
    pub spans: Vec<SpanSummary>,
}

impl TraceSummary {
    pub(crate) fn from_histograms(hists: &[(&'static str, LogHistogram)]) -> Self {
        let mut spans: Vec<SpanSummary> = hists
            .iter()
            .map(|(name, h)| SpanSummary::from_histogram(name, h))
            .collect();
        spans.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms).then(a.name.cmp(b.name)));
        Self { spans }
    }

    /// Plain-text table of every span name, hottest first. Columns:
    /// name, count, mean, p50, p95, p99, p99.99, max (all ms).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "span", "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "p99.99_ms", "max_ms"
        ));
        for s in &self.spans {
            out.push_str(&format!(
                "{:<24} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}\n",
                s.name, s.count, s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms, s.p99_99_ms, s.max_ms
            ));
        }
        out
    }
}

/// Busy/idle accounting for one runtime worker, derived from the
/// runtime's [`WORKER_SPAN`]/[`REGION_SPAN`] spans.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerUtilization {
    /// Worker index within its pool.
    pub worker: u32,
    /// Total time this worker spent executing tasks (ms).
    pub busy_ms: f64,
    /// Number of parallel regions this worker participated in.
    pub regions: u64,
}

/// Per-worker utilization from a trace's event stream: total busy time
/// per [`WORKER_SPAN`] index, plus the total [`REGION_SPAN`] wall time
/// to divide by. Returns `(workers, total_region_ms)`; utilization of
/// worker *w* is `busy_ms / total_region_ms`.
///
/// Runtimes nest (a worker task may build its own inner `Runtime`, as
/// the pipeline's DET/LOC fork does for ORB and DNN fan-out), and the
/// inner runtime emits its own region/worker spans. Counting those
/// again would double-bill the same wall time — the outer worker span
/// already covers it — so any runtime span that starts inside a
/// still-open worker span *on the same thread* is dropped. Inner
/// worker spans on freshly spawned threads still count: they are real
/// parallelism no outer span covers.
pub fn worker_utilization(events: &[Event]) -> (Vec<WorkerUtilization>, f64) {
    let mut spans: Vec<(&Event, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { dur_ns, .. }
                if e.name == REGION_SPAN || e.name == WORKER_SPAN =>
            {
                Some((e, dur_ns))
            }
            _ => None,
        })
        .collect();
    // Start ascending; longer span first at a tie so an outer span is
    // seen before the spans it encloses.
    spans.sort_by(|a, b| a.0.ts_ns.cmp(&b.0.ts_ns).then(b.1.cmp(&a.1)));
    let mut workers: Vec<WorkerUtilization> = Vec::new();
    let mut region_ms = 0.0;
    // Per-thread stack of open outermost worker-span end times.
    let mut open: Vec<(u32, Vec<u64>)> = Vec::new();
    for (e, dur_ns) in spans {
        let stack = match open.iter_mut().position(|(tid, _)| *tid == e.tid) {
            Some(i) => &mut open[i].1,
            None => {
                open.push((e.tid, Vec::new()));
                &mut open.last_mut().expect("just pushed").1
            }
        };
        while stack.last().is_some_and(|&end| end <= e.ts_ns) {
            stack.pop();
        }
        let nested = !stack.is_empty();
        if nested {
            continue;
        }
        let dur_ms = dur_ns as f64 / 1e6;
        if e.name == REGION_SPAN {
            region_ms += dur_ms;
        } else {
            match workers.iter_mut().find(|w| w.worker == e.index) {
                Some(w) => {
                    w.busy_ms += dur_ms;
                    w.regions += 1;
                }
                None => workers.push(WorkerUtilization {
                    worker: e.index,
                    busy_ms: dur_ms,
                    regions: 1,
                }),
            }
            stack.push(e.ts_ns + dur_ns);
        }
    }
    workers.sort_by_key(|w| w.worker);
    (workers, region_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::NO_INDEX;

    fn span_event(name: &'static str, index: u32, ts_ns: u64, dur_ns: u64) -> Event {
        span_on(name, index, 0, ts_ns, dur_ns)
    }

    fn span_on(name: &'static str, index: u32, tid: u32, ts_ns: u64, dur_ns: u64) -> Event {
        Event {
            name,
            index,
            tid,
            ts_ns,
            kind: EventKind::Span { dur_ns, flops: 0, bytes: 0 },
        }
    }

    #[test]
    fn summary_sorts_hottest_first_and_renders_a_table() {
        let mut cold = LogHistogram::new();
        cold.record(1.0);
        let mut hot = LogHistogram::new();
        hot.record(50.0);
        hot.record(60.0);
        let s = TraceSummary::from_histograms(&[("cold", cold), ("hot", hot)]);
        assert_eq!(s.spans[0].name, "hot");
        assert_eq!((s.spans[1].name, s.spans[1].count), ("cold", 1));
        let table = s.table();
        assert!(table.contains("hot") && table.contains("p99.99_ms"), "{table}");
    }

    #[test]
    fn worker_utilization_accumulates_per_index() {
        let events = vec![
            span_event(REGION_SPAN, NO_INDEX, 0, 10_000_000),
            span_on(WORKER_SPAN, 0, 1, 0, 9_000_000),
            span_on(WORKER_SPAN, 1, 2, 0, 5_000_000),
            span_event(REGION_SPAN, NO_INDEX, 20_000_000, 10_000_000),
            span_on(WORKER_SPAN, 1, 2, 20_000_000, 8_000_000),
            span_event("other", 3, 0, 1_000_000),
        ];
        let (workers, region_ms) = worker_utilization(&events);
        assert_eq!(region_ms, 20.0);
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].worker, 0);
        assert_eq!(workers[0].busy_ms, 9.0);
        assert_eq!(workers[0].regions, 1);
        assert_eq!(workers[1].busy_ms, 13.0);
        assert_eq!(workers[1].regions, 2);
    }

    #[test]
    fn nested_runtime_spans_are_not_double_counted() {
        let ms = 1_000_000u64;
        // Outer region on tid 9; outer worker 0 runs in-place on tid 0,
        // outer worker 1 on tid 1. The worker-0 task builds an inner
        // runtime: its region and in-place worker 0 land on tid 0
        // (inside the still-open outer worker span — covered time), its
        // worker 1 on a freshly spawned tid 2 (uncovered parallelism).
        let events = vec![
            span_on(REGION_SPAN, NO_INDEX, 9, 0, 100 * ms),
            span_on(WORKER_SPAN, 0, 0, 0, 98 * ms),
            span_on(WORKER_SPAN, 1, 1, 0, 50 * ms),
            span_on(REGION_SPAN, NO_INDEX, 0, 10 * ms, 40 * ms),
            span_on(WORKER_SPAN, 0, 0, 10 * ms, 38 * ms),
            span_on(WORKER_SPAN, 1, 2, 10 * ms, 30 * ms),
        ];
        let (workers, region_ms) = worker_utilization(&events);
        // Pre-fix accounting was region=140, w0=136 (busy > region!).
        assert_eq!(region_ms, 100.0);
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].busy_ms, 98.0);
        assert_eq!(workers[0].regions, 1);
        assert_eq!(workers[1].busy_ms, 80.0);
        assert_eq!(workers[1].regions, 2);
        for w in &workers {
            assert!(w.busy_ms <= region_ms, "worker {} busier than wall", w.worker);
        }
    }

    #[test]
    fn sequential_regions_reset_the_nesting_stack() {
        let ms = 1_000_000u64;
        // Two back-to-back outer regions on the same threads: the
        // second region's worker spans start after the first ones end,
        // so they must count (the open-span stack pops stale entries).
        let events = vec![
            span_on(REGION_SPAN, NO_INDEX, 9, 0, 10 * ms),
            span_on(WORKER_SPAN, 0, 0, 0, 9 * ms),
            span_on(REGION_SPAN, NO_INDEX, 9, 20 * ms, 10 * ms),
            span_on(WORKER_SPAN, 0, 0, 20 * ms, 8 * ms),
        ];
        let (workers, region_ms) = worker_utilization(&events);
        assert_eq!(region_ms, 20.0);
        assert_eq!(workers[0].busy_ms, 17.0);
        assert_eq!(workers[0].regions, 2);
    }
}
