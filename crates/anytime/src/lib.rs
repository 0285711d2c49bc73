//! Predictive deadline governor — anytime perception for the driving
//! pipeline.
//!
//! The paper's Fig. 13 resolution sweep shows detection latency and
//! accuracy trading off along one axis; Pylot frames AV perception as
//! navigating that latency-accuracy frontier *at runtime*. The
//! supervisor in `adsim-core` is reactive: its watchdog degrades only
//! after a stage has already blown its budget and burned the frame.
//! This crate adds the proactive half:
//!
//! * a streaming per-stage latency **predictor** ([`LatencyPredictor`],
//!   EWMA level + trend) fed by the same virtual-clock samples the
//!   watchdog sees — never wall clock, so seeded fleet campaigns stay
//!   byte-identical on any worker count;
//! * a quality **ladder** ([`QualityLevel`]) of knob settings —
//!   detector input resolution (the Fig. 13 axis), model variant
//!   (`yolo_v2` ⇄ `yolo_tiny` through the shared model cache, O(1)
//!   switches), tracker-pool size — each with deterministic nominal
//!   stage costs;
//! * a **governor** ([`Governor`]) that forecasts the next frame's
//!   slack against the stage budget and the end-to-end deadline and
//!   walks the ladder *before* the miss, with enter/exit hysteresis
//!   and a dwell window so load alternating at the threshold cannot
//!   oscillate the knobs.
//!
//! The crate is a pure policy layer: it owns no pipeline state and
//! performs no I/O beyond `anytime.*` trace instants. `adsim-core`
//! maps [`QualityKnobs`] onto the real detector/tracker-pool handles.
//!
//! # Examples
//!
//! ```
//! use adsim_anytime::{AnytimeConfig, Governor};
//!
//! let mut gov = Governor::new(AnytimeConfig::On);
//! // A sustained ramp on the detection stage (virtual ms, full-quality
//! // normalized): the governor degrades before the 50 ms budget is hit.
//! for frame in 0..40u64 {
//!     gov.decide(frame, 50.0, 100.0);
//!     let det_extra = 2.0 * frame as f64;
//!     gov.observe([det_extra, 0.0, 0.0, 0.0, 0.0]);
//! }
//! assert!(gov.level() > 0, "governor must have degraded under the ramp");
//! assert!(!gov.events().is_empty());
//! ```

mod governor;
mod knobs;
mod predictor;

pub use governor::{Governor, GovernorEvent, DWELL_FRAMES};
pub use knobs::{
    default_ladder, AnytimeConfig, ModelVariant, NominalCosts, QualityKnobs, QualityLevel,
};
pub use predictor::{LatencyPredictor, STAGES, STAGE_DET, STAGE_FUS, STAGE_LOC, STAGE_MOT, STAGE_TRA};
