//! The benchmark's own span recorder.
//!
//! The traced pass times each layer from the outside: the benchmark
//! calls a crate's public function and records one span around the
//! call — name, start, end, the span that caused it, and the frame the
//! whole tree belongs to — plus counts taken at the same boundary.
//! Spans stay in memory and are written once, when the run ends. No
//! crate outside `benchmark/` knows this recorder exists; spans inside
//! the program are a later change.

use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// Shared by every span of one frame's tree.
    pub frame: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }

    pub fn count(&self, key: &str) -> Option<f64> {
        self.counts.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts a span now. Close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, frame: u64) -> SpanId {
        let now = Instant::now();
        self.add(name, parent, frame, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span measured elsewhere — the DET and LOC arms of the
    /// fork run on other threads and hand their instants back.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        frame: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            frame,
            name,
            start_ns,
            end_ns,
            counts: Vec::new(),
        });
        id
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        frame: u64,
        f: impl FnOnce() -> R,
    ) -> (SpanId, R) {
        let id = self.open(name, parent, frame);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Attaches a count to a span: work done at that boundary.
    pub fn count(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id].counts.push((key, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// A span's duration minus the part of it its children cover.
    /// Concurrent children (the fork's two arms) are merged first, so
    /// overlap is not subtracted twice.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let parent = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        parent.dur_ns() - covered
    }

    /// Checks the forest is well formed: ids are positions, every span
    /// ends no earlier than it starts, a parent is recorded before its
    /// child, contains it in time and shares its frame id, and each
    /// frame id has exactly one root.
    pub fn check(&self) -> Result<(), String> {
        let mut roots = std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.id != i {
                return Err(format!("span {i} carries id {}", s.id));
            }
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            match s.parent {
                None => *roots.entry(s.frame).or_insert(0u32) += 1,
                Some(p) if p >= i => {
                    return Err(format!("span {i} ({}) precedes its parent {p}", s.name));
                }
                Some(p) => {
                    let parent = &self.spans[p];
                    if parent.frame != s.frame {
                        return Err(format!(
                            "span {i} ({}) is in frame {} but its parent is in frame {}",
                            s.name, s.frame, parent.frame
                        ));
                    }
                    if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                        return Err(format!(
                            "span {i} ({}) is not inside its parent {p} ({})",
                            s.name, parent.name
                        ));
                    }
                }
            }
        }
        match roots.iter().find(|(_, n)| **n != 1) {
            Some((frame, n)) => Err(format!("frame {frame} has {n} root spans")),
            None => Ok(()),
        }
    }

    /// The span file: `header` is a list of pre-rendered JSON members
    /// (provenance, accounting) placed before the `spans` array. Names
    /// and count keys are static ASCII identifiers and need no escaping.
    pub fn to_json(&self, header: &[String]) -> String {
        let mut out = String::from("{\n");
        for member in header {
            out.push_str("  ");
            out.push_str(member);
            out.push_str(",\n");
        }
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            out.push_str(&format!(
                "    {{\"id\": {}, \"parent\": {parent}, \"frame\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"counts\": {{{}}}}}{}\n",
                s.id,
                s.frame,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id),
                counts.join(", "),
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A recorder with hand-placed spans: `(name, parent, frame, start_us, end_us)`.
    fn forest(spans: &[(&'static str, Option<SpanId>, u64, u64, u64)]) -> Recorder {
        let mut rec = Recorder::new();
        let t0 = rec.origin;
        for &(name, parent, frame, a, b) in spans {
            rec.add(
                name,
                parent,
                frame,
                t0 + Duration::from_micros(a),
                t0 + Duration::from_micros(b),
            );
        }
        rec
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let rec = forest(&[
            ("frame", None, 0, 0, 100),
            ("det", Some(0), 0, 10, 40),
            ("tra", Some(0), 0, 50, 70),
        ]);
        assert_eq!(rec.self_ns(0), 50_000);
        assert_eq!(rec.self_ns(1), 30_000);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // The fork: DET 10..60 and LOC 10..45 run concurrently.
        let rec = forest(&[
            ("fork", None, 0, 0, 70),
            ("det", Some(0), 0, 10, 60),
            ("loc", Some(0), 0, 10, 45),
            ("nested", Some(1), 0, 20, 30),
        ]);
        assert_eq!(rec.self_ns(0), 20_000);
        assert_eq!(rec.self_ns(1), 40_000);
    }

    #[test]
    fn self_time_of_a_fully_covered_span_is_zero() {
        let rec = forest(&[
            ("a", None, 0, 5, 25),
            ("b", Some(0), 0, 5, 15),
            ("c", Some(0), 0, 15, 25),
        ]);
        assert_eq!(rec.self_ns(0), 0);
    }

    #[test]
    fn a_recorded_forest_is_well_formed() {
        let mut rec = Recorder::new();
        for frame in 0..3 {
            let root = rec.open("frame", None, frame);
            let (child, v) = rec.time("stage", Some(root), frame, || 7);
            rec.count(child, "items", v as f64);
            let t = Instant::now();
            rec.add("arm", Some(root), frame, t, Instant::now());
            rec.close(root);
        }
        rec.check().expect("well formed");
        assert_eq!(rec.spans().len(), 9);
        let items: Vec<f64> = rec
            .named("stage")
            .filter_map(|s| s.count("items"))
            .collect();
        assert_eq!(items, vec![7.0; 3]);
        assert_eq!(rec.named("frame").count(), 3);
        let ids: std::collections::BTreeSet<_> = rec.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), rec.spans().len(), "ids are unique");
    }

    #[test]
    fn check_rejects_a_child_outside_its_parent() {
        let rec = forest(&[("frame", None, 0, 10, 20), ("late", Some(0), 0, 15, 25)]);
        assert!(rec.check().unwrap_err().contains("not inside"));
    }

    #[test]
    fn check_rejects_a_child_in_another_frame() {
        let rec = forest(&[("frame", None, 0, 0, 20), ("stray", Some(0), 1, 5, 10)]);
        assert!(rec.check().unwrap_err().contains("frame"));
    }

    #[test]
    fn check_rejects_two_roots_in_one_frame() {
        let rec = forest(&[("frame", None, 4, 0, 10), ("frame", None, 4, 20, 30)]);
        assert!(rec.check().unwrap_err().contains("2 root spans"));
    }

    #[test]
    fn check_rejects_a_forward_parent_reference() {
        let rec = forest(&[("child", Some(1), 0, 2, 3), ("frame", None, 0, 0, 10)]);
        assert!(rec.check().unwrap_err().contains("precedes its parent"));
    }

    #[test]
    fn span_file_is_valid_json_with_self_times() {
        let mut rec = forest(&[("frame", None, 0, 0, 100), ("det", Some(0), 0, 10, 40)]);
        rec.count(1, "detections", 3.0);
        let text = rec.to_json(&["\"workload\": \"t\"".to_string()]);
        let doc = adsim_bench::json::parse(&text).expect("valid JSON");
        let adsim_bench::json::Value::Arr(spans) = doc.get("spans").unwrap() else {
            panic!("spans must be an array")
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("self_ns").unwrap().as_num(), Some(70_000.0));
        assert_eq!(
            spans[1]
                .get("counts")
                .unwrap()
                .get("detections")
                .unwrap()
                .as_num(),
            Some(3.0)
        );
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("t"));
    }
}
