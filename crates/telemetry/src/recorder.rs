//! The process-global recording switch.
//!
//! Telemetry is owned data: each supervisor keeps its own
//! [`MetricsRegistry`](crate::MetricsRegistry) and the fleet engine
//! moves it into the cell's outcome. The only global state is whether
//! anyone is listening. A [`TelemetrySession`] turns recording on for
//! its lifetime, and producers check [`enabled`] before every record,
//! so with no session a record costs one relaxed atomic load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// True when a session is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One process-global recording session. Holding it grants exclusive
/// use of the recording switch (a second `begin` blocks until the first
/// session drops), same protocol as `adsim_trace::TraceSession`.
#[derive(Debug)]
pub struct TelemetrySession {
    _guard: MutexGuard<'static, ()>,
}

impl TelemetrySession {
    /// Starts recording.
    pub fn begin() -> Self {
        let guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        ENABLED.store(true, Ordering::Release);
        Self { _guard: guard }
    }

    /// Holds the session lock **without** enabling recording: for tests
    /// and probes that must observe telemetry-off behaviour while other
    /// sessions may want to start concurrently.
    pub fn quiesced() -> Self {
        let guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        ENABLED.store(false, Ordering::Release);
        Self { _guard: guard }
    }

    /// Ends the session: recording stops and the lock is released.
    pub fn finish(self) {}
}

impl Drop for TelemetrySession {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropping_a_session_disables_telemetry() {
        // Each check holds the raw session lock, never `quiesced()`
        // (which clears the switch itself), so no concurrent test can
        // turn recording back on and only the session's end turned it
        // off.
        let session = TelemetrySession::begin();
        assert!(enabled());
        session.finish();
        {
            let _lock = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            assert!(!enabled(), "a finished session must leave recording off");
        }
        {
            let _session = TelemetrySession::begin();
            assert!(enabled());
        }
        let _lock = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled(), "a dropped session must leave recording off");
    }
}
