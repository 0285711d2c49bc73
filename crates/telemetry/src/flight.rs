//! The black-box flight recorder: a fixed-capacity per-vehicle ring of
//! compact per-frame records, dumped as JSON when a vehicle escalates.
//!
//! Everything in a [`FrameRecord`] is virtual-clock data — per-stage
//! injected latencies, the governor's rung and forecast, packed mode /
//! monitor / fault bits and the payload digest — so a dump is a pure
//! function of the cell spec and compares byte-identically across
//! worker counts, like every other fleet output.

use adsim_trace::json::{self, obj, Value};

/// Per-frame fault bits ([`FrameRecord::fault_bits`]).
pub const FAULT_BLACKOUT: u16 = 1 << 0;
/// Stuck (repeated) sensor frame.
pub const FAULT_STUCK: u16 = 1 << 1;
/// Pixel corruption.
pub const FAULT_CORRUPT: u16 = 1 << 2;
/// Latency spike on some stage.
pub const FAULT_SPIKE: u16 = 1 << 3;
/// Localization lock loss.
pub const FAULT_LOCK_LOSS: u16 = 1 << 4;
/// Tracker divergence shift.
pub const FAULT_TRACKER_SHIFT: u16 = 1 << 5;
/// Stage stall (watchdog retry path).
pub const FAULT_STALL: u16 = 1 << 6;
/// Sensor timestamp skew.
pub const FAULT_TIME_SKEW: u16 = 1 << 7;
/// Sustained latency drift.
pub const FAULT_DRIFT: u16 = 1 << 8;
/// Transient software crash scheduled on some stage this frame.
pub const FAULT_CRASH: u16 = 1 << 9;
/// The data-plane fault classes (what the checksummed hand-off covers).
pub const FAULT_DATA_MASK: u16 = FAULT_BLACKOUT | FAULT_STUCK | FAULT_CORRUPT;

/// Longest panic message retained in a [`FrameRecord`] — the black box
/// keeps a bounded excerpt, never the whole backtrace.
pub(crate) const PANIC_MSG_MAX: usize = 96;

/// Truncates a panic message to `PANIC_MSG_MAX` bytes on a char
/// boundary, marking the cut with an ellipsis.
pub fn truncate_panic_msg(msg: &str) -> String {
    if msg.len() <= PANIC_MSG_MAX {
        return msg.to_string();
    }
    let cut = (0..=PANIC_MSG_MAX).rev().find(|&i| msg.is_char_boundary(i)).unwrap_or(0);
    format!("{}…", &msg[..cut])
}

/// Degraded-mode bits ([`FrameRecord::mode_bits`]); same packing as the
/// fleet cell digest folds.
pub const MODE_TRACKER_ONLY: u8 = 1 << 0;
/// Dead-reckoning localization fallback.
pub const MODE_DEAD_RECKONING: u8 = 1 << 1;
/// Speed-reduced operation.
pub const MODE_SPEED_REDUCED: u8 = 1 << 2;
/// Safe stop commanded.
pub const MODE_SAFE_STOP: u8 = 1 << 3;
/// Anytime-governor quality reduction active.
pub const MODE_QUALITY_REDUCED: u8 = 1 << 4;

/// Monitor-verdict bits ([`FrameRecord::monitor_bits`]).
pub const MONITOR_DATA: u8 = 1 << 0;
/// Detection sanity monitor.
pub const MONITOR_DETECTION: u8 = 1 << 1;
/// Tracker-jump monitor.
pub const MONITOR_TRACKER: u8 = 1 << 2;
/// Localization monitor.
pub const MONITOR_LOCALIZATION: u8 = 1 << 3;
/// Planner-feasibility monitor.
pub const MONITOR_PLANNER: u8 = 1 << 4;

/// One frame's worth of black-box state: what the vehicle was doing,
/// how degraded it was, and what was being injected at the time.
///
/// `Clone` but not `Copy`: crash records carry a bounded panic-message
/// excerpt ([`FrameRecord::panic_msg`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameRecord {
    /// Frame index within the cell.
    pub frame: u64,
    /// Virtual per-stage cost (DET, TRA, LOC, FUS, MOT), ms.
    pub stage_virtual_ms: [f64; 5],
    /// Virtual end-to-end cost, ms.
    pub virtual_e2e_ms: f64,
    /// Active quality rung name (the governor ladder's).
    pub quality_rung: &'static str,
    /// Packed [`MODE_TRACKER_ONLY`]… bits.
    pub mode_bits: u8,
    /// Packed [`MONITOR_DATA`]… bits.
    pub monitor_bits: u8,
    /// Packed [`FAULT_BLACKOUT`]… bits.
    pub fault_bits: u16,
    /// FNV digest of the delivered sensor payload (0 when unchecked).
    pub payload_digest: u64,
    /// The governor's end-to-end forecast for this frame, ms (0 before
    /// the predictor warms up).
    pub forecast_e2e_ms: f64,
    /// True when the cell crashed processing this frame (the record is
    /// the synthetic crash marker the supervisor pushes on restart).
    pub crashed: bool,
    /// Truncated panic message of the crash (empty when `!crashed`);
    /// bounded by `PANIC_MSG_MAX`.
    pub panic_msg: String,
}

/// Why a dump was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpTrigger {
    /// The supervisor entered SafeStop.
    SafeStop,
    /// A monitor-tripped escalation entered a degraded mode.
    MonitorTripped,
    /// Explicit request ([`FlightRecorder::dump`] callers).
    Manual,
    /// A vehicle-cell stage crashed (injected panic) and the recovery
    /// layer restarted or quarantined the cell.
    CellCrash,
}

impl DumpTrigger {
    /// Stable label used in exports and metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            DumpTrigger::SafeStop => "safe-stop",
            DumpTrigger::MonitorTripped => "monitor-tripped",
            DumpTrigger::Manual => "manual",
            DumpTrigger::CellCrash => "cell-crash",
        }
    }
}

/// The last `N` frames before an escalation, plus why and when they
/// were captured.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Vehicle that dumped.
    pub vehicle: u32,
    /// What triggered the dump.
    pub trigger: DumpTrigger,
    /// Frame index the trigger fired on.
    pub frame: u64,
    /// Ring contents, oldest first.
    pub records: Vec<FrameRecord>,
}

impl FlightDump {
    /// The dump as JSON. Digests render as hex strings so 64-bit
    /// values never hit number precision limits in downstream tooling.
    pub fn to_json(&self) -> String {
        let records = self.records.iter().map(|r| {
            let stages_ms = r.stage_virtual_ms.iter().map(|&ms| ms.into()).collect();
            obj([
                ("frame", r.frame.into()), ("stages_ms", Value::Arr(stages_ms)),
                ("e2e_ms", r.virtual_e2e_ms.into()), ("rung", r.quality_rung.into()),
                ("modes", r.mode_bits.into()), ("monitors", r.monitor_bits.into()),
                ("faults", r.fault_bits.into()),
                ("digest", format!("{:#x}", r.payload_digest).into()),
                ("forecast_ms", r.forecast_e2e_ms.into()), ("crashed", r.crashed.into()),
                ("panic_msg", r.panic_msg.as_str().into()),
            ])
        });
        json::render(&obj([
            ("vehicle", self.vehicle.into()), ("trigger", self.trigger.name().into()),
            ("frame", self.frame.into()),
            ("records", Value::Arr(records.collect())),
        ]))
    }
}

/// Fixed-capacity ring of the most recent [`FrameRecord`]s. Always on:
/// the cost per vehicle is one bounded buffer and an index, no
/// allocation after the first wrap.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cap: usize,
    buf: Vec<FrameRecord>,
    next: usize,
    total: u64,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` frames (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self { cap, buf: Vec::with_capacity(cap), next: 0, total: 0 }
    }

    /// Records retained right now (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pushes one frame, overwriting the oldest once full.
    pub fn push(&mut self, record: FrameRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(record);
        } else {
            self.buf[self.next] = record;
        }
        self.next = (self.next + 1) % self.cap;
        self.total += 1;
    }

    /// The retained window, oldest first.
    pub(crate) fn window(&self) -> Vec<FrameRecord> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }

    /// Captures a dump of the current window.
    pub fn dump(&self, vehicle: u32, trigger: DumpTrigger, frame: u64) -> FlightDump {
        FlightDump { vehicle, trigger, frame, records: self.window() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(frame: u64) -> FrameRecord {
        FrameRecord { frame, quality_rung: "full", ..FrameRecord::default() }
    }

    fn frames(r: &FlightRecorder) -> Vec<u64> {
        r.window().iter().map(|x| x.frame).collect()
    }

    // -- Wraparound grid from the issue: capacity < frames,
    // capacity > frames, capacity = 1.

    #[test]
    fn ring_wraps_when_capacity_below_frames() {
        let mut r = FlightRecorder::new(4);
        for f in 0..10 {
            r.push(rec(f));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total, 10);
        assert_eq!(frames(&r), vec![6, 7, 8, 9], "window must be the last cap frames, oldest first");
    }

    #[test]
    fn ring_keeps_everything_when_capacity_above_frames() {
        let mut r = FlightRecorder::new(16);
        for f in 0..5 {
            r.push(rec(f));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(frames(&r), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn capacity_one_retains_only_the_latest() {
        let mut r = FlightRecorder::new(1);
        assert!(r.is_empty());
        for f in 0..7 {
            r.push(rec(f));
        }
        assert_eq!(r.len(), 1);
        assert_eq!(frames(&r), vec![6]);
        // Zero capacity clamps to one rather than panicking.
        assert_eq!(FlightRecorder::new(0).cap, 1);
    }

    #[test]
    fn window_is_exact_at_the_wrap_boundary() {
        let mut r = FlightRecorder::new(3);
        for f in 0..3 {
            r.push(rec(f));
        }
        assert_eq!(frames(&r), vec![0, 1, 2], "exactly-full ring must not rotate");
        r.push(rec(3));
        assert_eq!(frames(&r), vec![1, 2, 3]);
    }

    #[test]
    fn dump_renders_valid_json() {
        let mut r = FlightRecorder::new(2);
        r.push(FrameRecord {
            frame: 41,
            stage_virtual_ms: [20.0, 4.0, 18.5, 1.0, 3.0],
            virtual_e2e_ms: 46.5,
            quality_rung: "reduced",
            mode_bits: MODE_SAFE_STOP | MODE_SPEED_REDUCED,
            monitor_bits: MONITOR_DATA,
            fault_bits: FAULT_BLACKOUT | FAULT_SPIKE,
            payload_digest: 0xDEAD_BEEF,
            forecast_e2e_ms: 44.0,
            ..FrameRecord::default()
        });
        let dump = r.dump(3, DumpTrigger::SafeStop, 41);
        let json = dump.to_json();
        adsim_trace::validate_json(&json).expect("dump must be valid JSON");
        assert!(json.contains("\"trigger\": \"safe-stop\""));
        assert!(json.contains("\"digest\": \"0xdeadbeef\""));
        assert_eq!(dump.records.len(), 1);
        assert_ne!(dump.records[0].fault_bits & FAULT_DATA_MASK, 0);
    }

    #[test]
    fn crash_records_render_with_escaped_panic_message() {
        let mut r = FlightRecorder::new(2);
        r.push(FrameRecord {
            frame: 12,
            quality_rung: "full",
            fault_bits: FAULT_CRASH,
            crashed: true,
            panic_msg: "injected crash: \"detection\" stage\npanicked".to_string(),
            ..FrameRecord::default()
        });
        let dump = r.dump(9, DumpTrigger::CellCrash, 12);
        let json = dump.to_json();
        adsim_trace::validate_json(&json).expect("crash dump must be valid JSON");
        assert!(json.contains("\"trigger\": \"cell-crash\""));
        assert!(json.contains("\"crashed\": true"));
        assert!(json.contains("\\\"detection\\\" stage\\npanicked"));
    }

    #[test]
    fn panic_messages_truncate_on_char_boundaries() {
        assert_eq!(truncate_panic_msg("short"), "short");
        let exact = "x".repeat(PANIC_MSG_MAX);
        assert_eq!(truncate_panic_msg(&exact), exact);
        let long = "y".repeat(PANIC_MSG_MAX + 40);
        let cut = truncate_panic_msg(&long);
        assert!(cut.ends_with('…'));
        assert_eq!(cut.chars().filter(|&c| c == 'y').count(), PANIC_MSG_MAX);
        // Multi-byte chars straddling the limit back off to a boundary.
        let multi = "é".repeat(PANIC_MSG_MAX); // 2 bytes each
        let cut = truncate_panic_msg(&multi);
        assert!(cut.ends_with('…'));
        assert!(cut.len() <= PANIC_MSG_MAX + '…'.len_utf8());
    }
}
