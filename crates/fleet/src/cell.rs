//! One vehicle cell: a scenario × fault-mix × seed run with
//! shared-nothing pipeline state.

use crate::assets::FleetAssets;
use crate::sink::StageHistograms;
use adsim_core::{
    GuardConfig, NativePipelineConfig, StagedFrame, SupervisedFrameResult, Supervisor,
    SupervisorCheckpoint, SupervisorConfig,
};
use adsim_dnn::detection::Detection;
use adsim_faults::{FaultConfig, InjectedCrash};
use adsim_recovery::{describe_panic, CrashAction, CrashRecord, RecoveryCoordinator, RecoveryPolicy};
use adsim_guard::{Digest, Hasher};
use adsim_perception::metrics::{MotAccumulator, TruthBox};
use adsim_planning::MotionPlan;
use adsim_stats::Quantile;
use adsim_telemetry::{FlightDump, MetricsRegistry};
use adsim_workload::Frame;

/// IoU threshold for the per-cell CLEAR-MOT association.
const MOT_IOU: f32 = 0.3;

/// What one vehicle cell runs: a fault mix and supervision policy over
/// a derived seed for a fixed number of frames. The campaign scenario
/// and resolution come from the engine's [`FleetAssets`].
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Human-readable label carried into reports (e.g. `"data/default"`).
    pub label: String,
    /// Fault schedule for this cell's injector.
    pub faults: FaultConfig,
    /// Supervision policy (watchdog budgets, guard, anytime governor).
    pub supervisor: SupervisorConfig,
    /// Injector seed (derives every per-frame decision).
    pub seed: u64,
    /// Frames to stream through the cell.
    pub frames: usize,
    /// Crash recovery policy. `None` (the default) quarantines the
    /// cell on the first injected crash; `Some` restores the newest
    /// checkpoint and deterministically replays the gap instead.
    pub recovery: Option<RecoveryPolicy>,
}

impl CellSpec {
    /// A cell with the default supervision policy.
    pub fn new(label: impl Into<String>, faults: FaultConfig, seed: u64, frames: usize) -> Self {
        Self {
            label: label.into(),
            faults,
            supervisor: SupervisorConfig::default(),
            seed,
            frames,
            recovery: None,
        }
    }

    /// Enables checkpoint/restore crash recovery.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Replaces the guard policy.
    #[must_use]
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.supervisor.guard = guard;
        self
    }

    /// Replaces the whole supervision policy (guard included).
    #[must_use]
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }
}

/// Everything one cell produced. Every field except the wall-clock
/// latency block ([`CellOutcome::p99_ms`], [`CellOutcome::miss_rate`])
/// is a pure function of the spec, so the determinism tests pin
/// [`CellOutcome::signature`] and the logs byte for byte across worker
/// counts and steal orders.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The spec's label.
    pub label: String,
    /// The spec's seed.
    pub seed: u64,
    /// Frames actually processed.
    pub frames: u64,
    /// Ground-truth injected data-plane faults (blackout/stuck/corrupt).
    pub injected_data_faults: u64,
    /// Data-plane faults the checksummed hand-off caught.
    pub detected_data_faults: u64,
    /// Transient corruptions repaired by dual-execution voting.
    pub dual_recovered: u64,
    /// Stage-boundary monitor trips.
    pub monitor_trips: u64,
    /// Escalations dropped on the floor (contract: always 0).
    pub uncaught: u64,
    /// Completed degradation episodes.
    pub episodes: u64,
    /// Mean time-to-recover (frames).
    pub mean_ttr_frames: f64,
    /// Longest completed episode (frames).
    pub max_ttr_frames: u64,
    /// Fraction of frames spent degraded.
    pub degraded_rate: f64,
    /// Safe stops commanded.
    pub safe_stops: u64,
    /// Stage retries performed.
    pub retries: u64,
    /// CLEAR-MOT tracking accuracy against the scenario's scripted
    /// ground truth (1.0 is perfect; can go negative under heavy
    /// false-positive load).
    pub mota: f64,
    /// Fraction of frames whose virtual end-to-end cost missed the
    /// deadline (deterministic miss accounting).
    pub virtual_miss_rate: f64,
    /// Quality-level switches the anytime governor performed.
    pub quality_switches: u64,
    /// Frames spent below full quality.
    pub quality_reduced_frames: u64,
    /// Injected stage crashes contained (restart-recovered or
    /// quarantined).
    pub crashes: u64,
    /// Checkpoint restarts performed.
    pub restarts: u64,
    /// Frames deterministically replayed across all restarts.
    pub replayed_frames: u64,
    /// Checkpoints taken (not part of the signature: checkpointing-on
    /// must stay byte-identical to checkpointing-off on crash-free
    /// runs, and the schedule is pure bookkeeping either way).
    pub checkpoints: u64,
    /// Peak approximate checkpoint footprint (bytes; deterministic
    /// estimate, excluded from the signature like `checkpoints`).
    pub checkpoint_bytes: u64,
    /// Whether the cell was quarantined: a crash with no recovery
    /// policy (or an uncontained panic the engine caught) froze it at
    /// its last completed frame.
    pub quarantined: bool,
    /// Contained-crash audit ledger, rendered (one line per crash).
    pub crash_log: Vec<String>,
    /// Anytime-governor quality-switch log, rendered.
    pub gov_log: Vec<String>,
    /// Degradation-event log, rendered.
    pub sup_log: Vec<String>,
    /// Guard-event log, rendered.
    pub guard_log: Vec<String>,
    /// Black-box flight-recorder dumps this cell captured (SafeStop and
    /// monitor-trip escalations), in capture order.
    pub dumps: Vec<FlightDump>,
    /// The telemetry the cell's supervisor recorded (virtual-clock
    /// metrics only — deterministic, merged fleet-wide in spec order).
    pub telemetry: MetricsRegistry,
    /// FNV digest folded over every frame's deterministic outputs
    /// (detections, pose, tracks, plan, modes) — the byte-identity pin.
    pub output_digest: Digest,
    /// Wall-clock deadline miss rate (excluded from the signature).
    pub miss_rate: f64,
    /// Wall-clock end-to-end p99 ms (excluded from the signature).
    pub p99_ms: f64,
}

impl CellOutcome {
    /// Detected fraction of injected data-plane faults (1.0 when
    /// nothing was injected — there was nothing to miss).
    pub fn coverage(&self) -> f64 {
        if self.injected_data_faults == 0 {
            1.0
        } else {
            self.detected_data_faults as f64 / self.injected_data_faults as f64
        }
    }

    /// The last-resort outcome for a cell whose worker caught a panic
    /// that escaped every containment layer (a genuine bug, not an
    /// injected crash). The campaign completes with the cell marked
    /// quarantined and the contract-breach counter (`uncaught`) set so
    /// no test or bench can mistake the run for healthy.
    pub(crate) fn poisoned(spec: &CellSpec, msg: &str) -> Self {
        Self {
            label: spec.label.clone(),
            seed: spec.seed,
            frames: 0,
            injected_data_faults: 0,
            detected_data_faults: 0,
            dual_recovered: 0,
            monitor_trips: 0,
            uncaught: 1,
            episodes: 0,
            mean_ttr_frames: 0.0,
            max_ttr_frames: 0,
            degraded_rate: 0.0,
            safe_stops: 0,
            retries: 0,
            mota: 0.0,
            virtual_miss_rate: 0.0,
            quality_switches: 0,
            quality_reduced_frames: 0,
            crashes: 0,
            restarts: 0,
            replayed_frames: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
            quarantined: true,
            crash_log: vec![format!("cell poisoned by uncontained panic: {msg}")],
            gov_log: Vec::new(),
            sup_log: Vec::new(),
            guard_log: Vec::new(),
            dumps: Vec::new(),
            telemetry: MetricsRegistry::new(),
            output_digest: Hasher::new().finish(),
            miss_rate: 0.0,
            p99_ms: 0.0,
        }
    }

    /// Every deterministic field, rendered. Wall-clock-derived values
    /// (`p99_ms`, `miss_rate`) are the only exclusions; two runs of the
    /// same spec must compare equal on any worker count.
    pub fn signature(&self) -> String {
        format!(
            "{} {:#x} frames={} injected={} detected={} recovered={} trips={} uncaught={} \
             episodes={} ttr={:.4}/{} degraded={:.6} safestops={} retries={} mota={:.6} \
             vmiss={:.6} qswitch={} qframes={} crashes={} restarts={} replayed={} \
             quarantined={} crashlog={} govlog={} suplog={} guardlog={} dumps={} \
             digest={}",
            self.label,
            self.seed,
            self.frames,
            self.injected_data_faults,
            self.detected_data_faults,
            self.dual_recovered,
            self.monitor_trips,
            self.uncaught,
            self.episodes,
            self.mean_ttr_frames,
            self.max_ttr_frames,
            self.degraded_rate,
            self.safe_stops,
            self.retries,
            self.mota,
            self.virtual_miss_rate,
            self.quality_switches,
            self.quality_reduced_frames,
            self.crashes,
            self.restarts,
            self.replayed_frames,
            self.quarantined,
            self.crash_log.len(),
            self.gov_log.len(),
            self.sup_log.len(),
            self.guard_log.len(),
            self.dumps.len(),
            self.output_digest,
        )
    }
}

/// Folds one supervised frame's deterministic outputs into the cell
/// digest. Wall-clock latencies never enter — the digest must be
/// byte-identical across worker counts.
fn fold_frame(h: &mut Hasher, out: &SupervisedFrameResult) {
    for d in &out.result.detections {
        h.f32s(&[d.bbox.cx, d.bbox.cy, d.bbox.w, d.bbox.h, d.score]);
        h.word(d.class.index() as u64);
    }
    h.word(out.result.detections.len() as u64);
    match out.result.pose {
        Some(p) => {
            h.word(1);
            h.word(p.x.to_bits());
            h.word(p.y.to_bits());
            h.word(p.theta.to_bits());
        }
        None => h.word(0),
    }
    for t in &out.result.tracks {
        h.word(t.track_id);
        h.word(t.class.index() as u64);
        h.f32s(&[t.bbox.cx, t.bbox.cy, t.bbox.w, t.bbox.h]);
        h.word(t.frames_missing as u64);
        h.word(t.age);
    }
    h.word(out.result.tracks.len() as u64);
    match &out.result.plan {
        MotionPlan::Trajectory(t) => {
            h.word(1);
            h.word(t.speed_mps.to_bits());
        }
        MotionPlan::Path(_) => h.word(2),
        MotionPlan::EmergencyStop => h.word(3),
    }
    if let Some(wp) = out.result.plan.next_waypoint() {
        h.word(wp.x.to_bits());
        h.word(wp.y.to_bits());
        h.word(wp.theta.to_bits());
    }
    h.word(
        out.modes.tracker_only as u64
            | (out.modes.dead_reckoning as u64) << 1
            | (out.modes.speed_reduced as u64) << 2
            | (out.modes.safe_stop as u64) << 3
            | (out.modes.quality_reduced as u64) << 4,
    );
}

/// One cell's in-flight streaming state: the supervisor plus every
/// per-frame accumulator (`run_cell`'s loop variables, reified).
///
/// The split into [`CellRun::stage`] / [`CellRun::complete`] exists
/// for the lockstep batched engine: it pauses every cell at the
/// detection hand-off point of the *same* frame index, runs one
/// cross-vehicle batched forward pass, and resumes each cell with its
/// detections. [`CellRun::step`] is the unbatched equivalent (stage +
/// inline detection + complete in one call) used by [`run_cell`].
pub(crate) struct CellRun {
    spec: CellSpec,
    sup: Supervisor,
    hists: StageHistograms,
    e2e: adsim_stats::LatencyRecorder,
    digest: Hasher,
    mot: MotAccumulator,
    injected: u64,
    uncaught: u64,
    // Crash-containment ledger. Deliberately *outside* CellCheckpoint:
    // the audit trail of what recovery did must survive any restore.
    quarantined: bool,
    checkpoints: u64,
    checkpoint_bytes: u64,
    crash_log: Vec<String>,
}

/// Everything a restore rewinds: the supervisor checkpoint plus every
/// fold accumulator `observe` mutates per frame. The containment
/// ledger (`quarantined`, checkpoint counters, crash log) lives in
/// [`CellRun`] outside this snapshot so it survives the restore.
#[derive(Clone)]
pub(crate) struct CellCheckpoint {
    sup: SupervisorCheckpoint,
    hists: StageHistograms,
    e2e: adsim_stats::LatencyRecorder,
    digest: Hasher,
    mot: MotAccumulator,
    injected: u64,
    uncaught: u64,
}

impl CellCheckpoint {
    /// Frames settled when this checkpoint was taken.
    pub(crate) fn frames_done(&self) -> u64 {
        self.sup.frames_done()
    }

    /// Rough deterministic footprint: the supervisor checkpoint's
    /// estimate plus the fold accumulators' fixed-size state.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.sup.approx_bytes()
            + std::mem::size_of::<StageHistograms>()
            + self.e2e.len() * std::mem::size_of::<f64>()
    }
}

impl CellRun {
    /// Builds the cell's supervisor and zeroed accumulators. The
    /// caller has already stamped `spec.supervisor.vehicle`.
    pub(crate) fn new(
        assets: &FleetAssets,
        spec: CellSpec,
        pipeline: &NativePipelineConfig,
    ) -> Self {
        let sup =
            assets.supervisor(spec.seed, spec.faults.clone(), spec.supervisor.clone(), pipeline);
        let e2e = adsim_stats::LatencyRecorder::with_capacity(spec.frames);
        Self {
            spec,
            sup,
            hists: StageHistograms::new(),
            e2e,
            digest: Hasher::new(),
            mot: MotAccumulator::new(MOT_IOU),
            injected: 0,
            uncaught: 0,
            quarantined: false,
            checkpoints: 0,
            checkpoint_bytes: 0,
            crash_log: Vec::new(),
        }
    }

    /// The cell's recovery policy, if any.
    pub(crate) fn recovery(&self) -> Option<RecoveryPolicy> {
        self.spec.recovery
    }

    /// Whether an injected crash has quarantined this cell.
    pub(crate) fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Snapshots the supervisor and every fold accumulator.
    pub(crate) fn checkpoint(&self) -> CellCheckpoint {
        CellCheckpoint {
            sup: self.sup.checkpoint(),
            hists: self.hists.clone(),
            e2e: self.e2e.clone(),
            digest: self.digest,
            mot: self.mot.clone(),
            injected: self.injected,
            uncaught: self.uncaught,
        }
    }

    /// Rewinds to a checkpoint taken earlier on this same cell. The
    /// containment ledger is untouched — crashes stay recorded.
    pub(crate) fn restore(&mut self, ck: &CellCheckpoint) {
        self.sup.restore(&ck.sup);
        self.hists = ck.hists.clone();
        self.e2e = ck.e2e.clone();
        self.digest = ck.digest;
        self.mot = ck.mot.clone();
        self.injected = ck.injected;
        self.uncaught = ck.uncaught;
    }

    /// Arms or disarms the supervisor's scheduled crash faults (the
    /// replay window runs disarmed — transient-crash semantics).
    pub(crate) fn set_crash_armed(&mut self, armed: bool) {
        self.sup.set_crash_armed(armed);
    }

    /// Audits one contained crash: supervisor-side record (synthetic
    /// flight-recorder entry, crash counter, `CellCrash` dump) plus
    /// the cell's rendered ledger line.
    pub(crate) fn record_crash(&mut self, record: &CrashRecord, msg: &str) {
        self.sup.record_cell_crash(record.frame, record.stage, msg);
        self.crash_log.push(record.to_string());
    }

    /// Quarantines the cell after a crash with no recovery path: the
    /// crash is audited, the cell stops at its last completed frame.
    pub(crate) fn quarantine(&mut self, crash: InjectedCrash, msg: &str) {
        self.sup.record_cell_crash(crash.frame, crash.stage, msg);
        self.crash_log.push(format!(
            "frame {}: {} crashed ({msg}); quarantined — no restart path",
            crash.frame, crash.stage,
        ));
        self.quarantined = true;
    }

    /// Frames this cell's spec asks for.
    pub(crate) fn frames(&self) -> usize {
        self.spec.frames
    }

    /// Processes one frame inline (no batching hand-off).
    pub(crate) fn step(&mut self, frame: &Frame) {
        let out = self.sup.process(&frame.image, frame.time_s);
        self.observe(frame, out);
    }

    /// Pauses this frame at the detection hand-off point.
    pub(crate) fn stage(&mut self, frame: &Frame) -> StagedFrame {
        self.sup.stage_frame(&frame.image, frame.time_s)
    }

    /// Resumes a staged frame, feeding it the batched detection result
    /// (`None` runs any un-batched detection inline).
    pub(crate) fn complete(
        &mut self,
        frame: &Frame,
        staged: StagedFrame,
        det: Option<Vec<Detection>>,
    ) {
        let out = self.sup.finish_frame(staged, det);
        self.observe(frame, out);
    }

    /// Folds one finished frame into every accumulator — identical
    /// bookkeeping for the inline and batched paths.
    fn observe(&mut self, frame: &Frame, out: SupervisedFrameResult) {
        self.hists.record(&out.reported);
        self.e2e.record(out.reported.end_to_end());
        fold_frame(&mut self.digest, &out);
        let truth: Vec<TruthBox> = frame
            .truth_objects
            .iter()
            .map(|t| TruthBox { id: t.id, bbox: t.bbox })
            .collect();
        self.mot.observe(&truth, &out.result.tracks);

        // Ground truth: did the injector touch the sensor payload?
        let data_fault =
            out.faults.blackout || out.faults.stuck || out.faults.pixel_corruption.is_some();
        self.injected += data_fault as u64;

        // Escalation contract: a confirmed-bad payload or a tripped
        // monitor must leave a degraded mode active this frame. A
        // dual-execution *recovery* is the one benign detection — the
        // vote repaired the payload, nothing to escalate.
        let detected = out.guard.digest_mismatches + out.guard.stuck_detected > 0;
        let recovered = out.guard.dual_recovered > 0;
        let tripped = out.guard.monitor_trips() > 0;
        if ((detected && !recovered) || tripped) && !out.modes.any() {
            self.uncaught += 1;
        }
    }

    /// Closes the run, moving the supervisor's dumps and telemetry into
    /// the outcome.
    pub(crate) fn into_outcome(mut self) -> (CellOutcome, StageHistograms) {
        let stats = self.sup.recovery_stats();
        let gs = *self.sup.guard_stats();
        let outcome = CellOutcome {
            label: self.spec.label.clone(),
            seed: self.spec.seed,
            frames: stats.frames,
            injected_data_faults: self.injected,
            detected_data_faults: gs.digest_mismatches + gs.stuck_detected,
            dual_recovered: gs.dual_recovered,
            monitor_trips: gs.monitor_trips(),
            uncaught: self.uncaught,
            episodes: stats.episodes,
            mean_ttr_frames: stats.mean_time_to_recover(),
            max_ttr_frames: stats.max_recover_frames,
            degraded_rate: stats.degraded_rate(),
            safe_stops: stats.safe_stops,
            retries: stats.retries,
            mota: self.mot.mota(),
            virtual_miss_rate: stats.virtual_miss_rate(),
            quality_switches: stats.quality_switches,
            quality_reduced_frames: stats.quality_reduced_frames,
            crashes: stats.crashes,
            restarts: stats.restarts,
            replayed_frames: stats.replayed_frames,
            checkpoints: self.checkpoints,
            checkpoint_bytes: self.checkpoint_bytes,
            quarantined: self.quarantined,
            crash_log: std::mem::take(&mut self.crash_log),
            gov_log: self.sup.governor_events().iter().map(|e| e.to_string()).collect(),
            sup_log: self.sup.events().iter().map(|e| e.to_string()).collect(),
            guard_log: self.sup.guard_events().iter().map(|e| e.to_string()).collect(),
            dumps: self.sup.take_flight_dumps(),
            telemetry: self.sup.take_telemetry(),
            output_digest: self.digest.finish(),
            miss_rate: stats.miss_rate(),
            p99_ms: self.e2e.quantile(Quantile::P99),
        };
        (outcome, self.hists)
    }
}

/// Runs one cell to completion: shared-nothing supervisor state over
/// the campaign's shared map and weights. Returns the deterministic
/// outcome plus this cell's wall-clock stage histograms (streamed into
/// the fleet sink by the engine, never buffered per cell).
///
/// Injected stage crashes are contained here, at the cell boundary:
/// with a [`RecoveryPolicy`] on the spec the cell restores its newest
/// checkpoint and deterministically replays the gap; without one the
/// cell is quarantined at its last completed frame. Panics that are
/// *not* injected crashes are re-raised — containment must never mask
/// a genuine bug.
pub fn run_cell(
    assets: &FleetAssets,
    spec: &CellSpec,
    pipeline: &NativePipelineConfig,
) -> (CellOutcome, StageHistograms) {
    let mut run = CellRun::new(assets, spec.clone(), pipeline);
    drive_cell(assets, &mut run);
    run.into_outcome()
}

/// Steps one frame through the cell, catching an injected-crash panic.
/// Returns the typed crash (with its rendered message) when the frame
/// died; re-raises any panic that is not an injected fault.
fn step_contained(run: &mut CellRun, frame: &Frame) -> Result<(), (InjectedCrash, String)> {
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.step(frame)));
    match res {
        Ok(()) => Ok(()),
        Err(payload) => {
            let (msg, injected) = describe_panic(payload.as_ref());
            match injected {
                Some(crash) => Err((crash, msg)),
                // A genuine bug: containment must not swallow it.
                None => std::panic::resume_unwind(payload),
            }
        }
    }
}

/// The cell's frame loop with crash containment.
///
/// Crash→restore→replay protocol (order is load-bearing):
/// 1. catch the typed panic; ask the coordinator for budget;
/// 2. restore the newest checkpoint (frames rewind to `C`);
/// 3. audit the crash *after* the restore so the synthetic flight
///    record, crash counter and `CellCrash` dump survive it;
/// 4. disarm crashes and replay frames `C..=F` (the crashed frame `F`
///    re-runs and completes — transient-crash semantics);
/// 5. re-arm, record the restart, and take a *fresh* checkpoint at
///    `F + 1` so the audit trail also survives any future restore;
/// 6. continue at `F + 1`.
///
/// An exhausted budget restores once more, latches the terminal
/// SafeStop, permanently disarms, and finishes every remaining frame
/// parked — the cell still reports `spec.frames` frames.
fn drive_cell(assets: &FleetAssets, run: &mut CellRun) {
    let frames = run.frames() as u64;
    let mut stream = assets.scenario().stream(assets.resolution());
    let Some(policy) = run.recovery() else {
        // No recovery: first injected crash quarantines the cell.
        for _ in 0..frames {
            let frame = stream.next().expect("frame streams are endless");
            if let Err((crash, msg)) = step_contained(run, &frame) {
                run.quarantine(crash, &msg);
                return;
            }
        }
        return;
    };

    let mut coord: RecoveryCoordinator<CellCheckpoint> = RecoveryCoordinator::new(policy);
    // Unconditional frame-0 checkpoint: recovery always has somewhere
    // to restore to, whatever the interval.
    let ck = run.checkpoint();
    let bytes = ck.approx_bytes();
    let at = ck.frames_done();
    coord.store(at, ck, bytes);
    let mut idx: u64 = 0;
    while idx < frames {
        // Interval checkpoints (skipping a frame the post-restart
        // refresh below already covered).
        if coord.due(idx) && coord.last().map(|(f, _)| f) != Some(idx) {
            let ck = run.checkpoint();
            let bytes = ck.approx_bytes();
            let at = ck.frames_done();
            debug_assert_eq!(at, idx, "checkpoints land on frame boundaries");
            coord.store(at, ck, bytes);
        }
        let frame = stream.next().expect("frame streams are endless");
        match step_contained(run, &frame) {
            Ok(()) => idx += 1,
            Err((crash, msg)) => {
                let action = coord.on_crash().expect("frame-0 checkpoint always stored");
                let (ck_frame, ck) = coord.last().expect("frame-0 checkpoint always stored");
                // MTTR in frames: everything between the checkpoint
                // and the crashed frame, crashed frame included.
                let replayed = idx - ck_frame + 1;
                let exhausted = matches!(action, CrashAction::Exhausted { .. });
                let record = CrashRecord {
                    frame: crash.frame,
                    stage: crash.stage,
                    message: msg.clone(),
                    resumed_from: ck_frame,
                    replayed,
                    exhausted,
                };
                run.restore(ck);
                run.record_crash(&record, &msg);
                run.set_crash_armed(false);
                stream.seek(ck_frame);
                if exhausted {
                    // Budget gone: park the vehicle for every frame
                    // left, crashes permanently disarmed.
                    run.sup.record_crash_exhausted();
                    for _ in ck_frame..frames {
                        let frame = stream.next().expect("frame streams are endless");
                        run.step(&frame);
                    }
                    idx = frames;
                } else {
                    for _ in ck_frame..=idx {
                        let frame = stream.next().expect("frame streams are endless");
                        run.step(&frame);
                    }
                    run.set_crash_armed(true);
                    run.sup.record_restart(crash.frame, crash.stage, ck_frame, replayed);
                    idx += 1;
                    // Fresh checkpoint: the crash/restart audit above
                    // must survive any future restore.
                    let ck = run.checkpoint();
                    let bytes = ck.approx_bytes();
                    let at = ck.frames_done();
                    coord.store(at, ck, bytes);
                }
            }
        }
    }
    run.checkpoints = coord.checkpoints();
    run.checkpoint_bytes = coord.checkpoint_bytes();
}
