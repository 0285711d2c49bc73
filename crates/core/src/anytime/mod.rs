//! Predictive deadline governor — anytime perception for the driving
//! pipeline.
//!
//! The paper's Fig. 13 resolution sweep shows detection latency and
//! accuracy trading off along one axis; Pylot frames AV perception as
//! navigating that latency-accuracy frontier *at runtime*. The
//! supervisor's watchdog is reactive: it degrades only after a stage
//! has already blown its budget and burned the frame. This module adds
//! the proactive half:
//!
//! * a streaming per-stage latency **predictor** (EWMA level + trend)
//!   fed by the same virtual-clock samples the watchdog sees — never
//!   wall clock, so seeded fleet campaigns stay byte-identical on any
//!   worker count;
//! * a quality **ladder** of knob settings — detector input resolution
//!   (the Fig. 13 axis), model variant (`yolo_v2` ⇄ `yolo_tiny`
//!   through the shared model cache, O(1) switches), tracker-pool
//!   size — each with deterministic nominal stage costs;
//! * a **governor** that forecasts the next frame's slack against the
//!   stage budget and the end-to-end deadline and walks the ladder
//!   *before* the miss, with enter/exit hysteresis and a dwell window
//!   ([`DWELL_FRAMES`]) so load alternating at the threshold cannot
//!   oscillate the knobs.
//!
//! The module is a pure policy layer: it owns no pipeline state and
//! performs no I/O beyond `anytime.*` trace instants. The supervisor
//! runs it when [`AnytimeConfig::On`] is set and maps its knobs onto
//! the real detector/tracker-pool handles.

mod governor;
mod knobs;
mod predictor;

pub(crate) use governor::Governor;
pub use governor::{GovernorEvent, DWELL_FRAMES};
pub(crate) use knobs::{ModelVariant, QualityKnobs};
pub use knobs::AnytimeConfig;
