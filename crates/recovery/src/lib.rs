//! Crash-safe execution: deterministic checkpoint/restore and
//! restart-replay recovery for the supervised pipeline.
//!
//! The paper's tail-latency argument (§2.4) treats the pipeline as an
//! always-on service: a computational-engine crash must not take the
//! vehicle down with it. This crate supplies the *process-restart*
//! model over the in-memory pipeline:
//!
//! * a [`RecoveryCoordinator`] decides when to checkpoint (every
//!   `checkpoint_interval` frames), remembers the newest checkpoint
//!   (the fleet cell's snapshot around `adsim_core::SupervisorCheckpoint`,
//!   which holds every piece of mutable per-frame state: tracker pool,
//!   localizer pose + SLAM map overlay, fusion history, planner,
//!   degradation state machine, governor forecaster, fault-injector
//!   schedule position), and converts each caught crash into a
//!   [`CrashAction`]: restore
//!   and replay while the restart budget lasts, park the vehicle
//!   (SafeStop) once it is exhausted;
//! * [`describe_panic`] renders a caught panic payload — typed
//!   [`InjectedCrash`] or a plain `&str`/`String` — into the audit
//!   ledger line.
//!
//! Determinism contract: frames are pure functions of their index and
//! the checkpointed state, so *restore + replay of the gap frames*
//! converges to the same output digest as the uninterrupted run. The
//! fleet engine's byte-parity tests pin this at 1/2/8 workers with
//! crashes injected.

use adsim_faults::InjectedCrash;
use adsim_platform::Component;
use std::any::Any;

/// When to checkpoint and how many crash restarts to tolerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Take a checkpoint every this many frames (the first checkpoint
    /// is taken before frame 0). `0` is treated as `1` — checkpoint
    /// every frame.
    pub checkpoint_interval: u64,
    /// Crash restarts tolerated before the vehicle parks for good
    /// (terminal SafeStop).
    pub max_restarts: u32,
}

impl RecoveryPolicy {
    /// Checkpoint every `interval` frames with a restart budget.
    pub fn new(checkpoint_interval: u64, max_restarts: u32) -> Self {
        Self { checkpoint_interval, max_restarts }
    }

    /// The effective interval (never 0).
    pub(crate) fn interval(&self) -> u64 {
        self.checkpoint_interval.max(1)
    }

    /// Whether a checkpoint is due before processing frame `index`.
    /// Frame 0's checkpoint is taken unconditionally by the driver, so
    /// this fires only on later interval boundaries.
    pub(crate) fn due(&self, index: u64) -> bool {
        index > 0 && index.is_multiple_of(self.interval())
    }
}

impl Default for RecoveryPolicy {
    /// Checkpoint every 8 frames, tolerate 3 restarts — the bench
    /// sweep's center point.
    fn default() -> Self {
        Self { checkpoint_interval: 8, max_restarts: 3 }
    }
}

/// What the recovery coordinator decided to do about a caught crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashAction {
    /// Budget left: restore the newest checkpoint (taken after
    /// `checkpoint_frame` frames had settled) and replay the gap.
    Restart {
        /// Frames settled when the checkpoint was taken — execution
        /// resumes from this frame index.
        checkpoint_frame: u64,
    },
    /// Budget exhausted: restore once more so the audit trail lands in
    /// consistent state, then park the vehicle in a terminal SafeStop
    /// for every remaining frame.
    Exhausted {
        /// Frames settled when the checkpoint was taken.
        checkpoint_frame: u64,
    },
}

/// One contained crash, for the cell's audit ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashRecord {
    /// Frame that crashed.
    pub frame: u64,
    /// Stage whose panic took the frame down.
    pub stage: Component,
    /// Rendered panic payload (already truncated by the flight
    /// recorder's limit when it gets there; stored whole here).
    pub message: String,
    /// Checkpoint frame execution resumed from.
    pub resumed_from: u64,
    /// Frames deterministically replayed to catch back up.
    pub replayed: u64,
    /// Whether this crash exhausted the restart budget.
    pub exhausted: bool,
}

impl std::fmt::Display for CrashRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame {}: {} crashed ({}); resumed from {} replaying {} frame(s){}",
            self.frame,
            self.stage,
            self.message,
            self.resumed_from,
            self.replayed,
            if self.exhausted { " — budget exhausted, parking" } else { "" },
        )
    }
}

/// Checkpoint scheduler and restart-budget accountant, generic over
/// the checkpoint payload `C` (the fleet layer stores its whole cell
/// snapshot — supervisor checkpoint plus fold state — in here).
///
/// The coordinator deliberately holds only the *newest* checkpoint:
/// recovery always resumes from the most recent consistent state, and
/// keeping one bounds memory at one pipeline snapshot per vehicle.
#[derive(Debug, Clone)]
pub struct RecoveryCoordinator<C> {
    policy: RecoveryPolicy,
    newest: Option<(u64, C)>,
    checkpoints: u64,
    checkpoint_bytes: u64,
    restarts_used: u32,
}

impl<C> RecoveryCoordinator<C> {
    /// A coordinator with no checkpoint and a full restart budget.
    pub fn new(policy: RecoveryPolicy) -> Self {
        Self {
            policy,
            newest: None,
            checkpoints: 0,
            checkpoint_bytes: 0,
            restarts_used: 0,
        }
    }

    /// Whether a checkpoint is due before processing frame `index`.
    pub fn due(&self, index: u64) -> bool {
        self.policy.due(index)
    }

    /// Stores a checkpoint taken after `frames_done` frames settled,
    /// replacing any older one, and accounts its footprint.
    pub fn store(&mut self, frames_done: u64, checkpoint: C, approx_bytes: usize) {
        self.newest = Some((frames_done, checkpoint));
        self.checkpoints += 1;
        self.checkpoint_bytes = self.checkpoint_bytes.max(approx_bytes as u64);
    }

    /// The newest stored checkpoint, if any.
    pub fn last(&self) -> Option<(u64, &C)> {
        self.newest.as_ref().map(|(f, c)| (*f, c))
    }

    /// Converts a caught crash into the action to take. `None` means
    /// no checkpoint was ever stored — the caller must quarantine the
    /// cell instead (nothing to restore).
    pub fn on_crash(&mut self) -> Option<CrashAction> {
        let (checkpoint_frame, _) = self.newest.as_ref()?;
        let checkpoint_frame = *checkpoint_frame;
        if self.restarts_used < self.policy.max_restarts {
            self.restarts_used += 1;
            Some(CrashAction::Restart { checkpoint_frame })
        } else {
            Some(CrashAction::Exhausted { checkpoint_frame })
        }
    }

    /// Checkpoints taken so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Peak approximate checkpoint footprint seen (bytes).
    pub fn checkpoint_bytes(&self) -> u64 {
        self.checkpoint_bytes
    }
}

/// Renders a caught panic payload for the audit trail, and extracts
/// the typed [`InjectedCrash`] when the panic was an injected fault.
/// Returns `(description, injected)`; `injected = None` means the
/// panic was a genuine bug (callers should re-raise it rather than
/// mask it as a contained fault).
pub fn describe_panic(payload: &(dyn Any + Send)) -> (String, Option<InjectedCrash>) {
    if let Some(crash) = payload.downcast_ref::<InjectedCrash>() {
        return (crash.to_string(), Some(*crash));
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return ((*s).to_string(), None);
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return (s.clone(), None);
    }
    ("non-string panic payload".to_string(), None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_schedule_skips_frame_zero() {
        let p = RecoveryPolicy::new(4, 3);
        let due: Vec<u64> = (0..13).filter(|&i| p.due(i)).collect();
        assert_eq!(due, vec![4, 8, 12]);
    }

    #[test]
    fn zero_interval_checkpoints_every_frame() {
        let p = RecoveryPolicy::new(0, 1);
        assert_eq!(p.interval(), 1);
        assert!(p.due(1) && p.due(2));
        assert!(!p.due(0), "frame 0's checkpoint is unconditional, not scheduled");
    }

    #[test]
    fn budget_counts_down_to_exhausted() {
        let mut c: RecoveryCoordinator<u8> = RecoveryCoordinator::new(RecoveryPolicy::new(4, 2));
        assert_eq!(c.on_crash(), None, "no checkpoint stored yet");
        c.store(0, 0, 100);
        assert_eq!(c.on_crash(), Some(CrashAction::Restart { checkpoint_frame: 0 }));
        c.store(8, 1, 250);
        assert_eq!(c.on_crash(), Some(CrashAction::Restart { checkpoint_frame: 8 }));
        assert_eq!(c.on_crash(), Some(CrashAction::Exhausted { checkpoint_frame: 8 }));
        assert_eq!(c.restarts_used, 2);
        assert_eq!(c.checkpoints(), 2);
        assert_eq!(c.checkpoint_bytes(), 250, "peak footprint");
    }

    #[test]
    fn coordinator_keeps_only_the_newest_checkpoint() {
        let mut c: RecoveryCoordinator<&str> = RecoveryCoordinator::new(RecoveryPolicy::default());
        c.store(0, "first", 10);
        c.store(16, "second", 10);
        assert_eq!(c.last(), Some((16, &"second")));
    }

    #[test]
    fn crash_records_render_for_the_ledger() {
        let r = CrashRecord {
            frame: 42,
            stage: Component::Detection,
            message: "injected crash: DET stage panicked at frame 42".into(),
            resumed_from: 40,
            replayed: 2,
            exhausted: false,
        };
        assert_eq!(
            r.to_string(),
            "frame 42: DET crashed (injected crash: DET stage panicked at frame 42); \
             resumed from 40 replaying 2 frame(s)"
        );
        let terminal = CrashRecord { exhausted: true, ..r };
        assert!(terminal.to_string().ends_with("— budget exhausted, parking"));
    }

    #[test]
    fn describe_panic_extracts_typed_and_string_payloads() {
        let typed: Box<dyn Any + Send> =
            Box::new(InjectedCrash { frame: 3, stage: Component::Fusion });
        let (msg, injected) = describe_panic(typed.as_ref());
        assert_eq!(injected, Some(InjectedCrash { frame: 3, stage: Component::Fusion }));
        assert!(msg.contains("FUSION"));

        let plain: Box<dyn Any + Send> = Box::new("index out of bounds");
        let (msg, injected) = describe_panic(plain.as_ref());
        assert_eq!(injected, None);
        assert_eq!(msg, "index out of bounds");

        let owned: Box<dyn Any + Send> = Box::new(String::from("assertion failed"));
        assert_eq!(describe_panic(owned.as_ref()).0, "assertion failed");

        let odd: Box<dyn Any + Send> = Box::new(7u32);
        assert_eq!(describe_panic(odd.as_ref()).0, "non-string panic payload");
    }
}
