//! Deterministic, seeded fault injection for the driving pipeline.
//!
//! The paper's performance constraint — 100 ms at the 99.99th
//! percentile (§2.4.1) — is a statement about the *worst* frames, and
//! the worst frames are the faulty ones: sensor dropouts, localization
//! lock loss, latency spikes, stalled workers. This crate perturbs the
//! workload stream and pipeline stages with a typed fault taxonomy so
//! the supervisor layer in `adsim-core` can be exercised and measured.
//! Per-stage faults (spikes, stalls, drift, crashes) name their stage
//! with [`adsim_platform::Component`], the one stage type the platform
//! model, the supervisor and the anytime governor share.
//!
//! Everything is driven by [`adsim_stats::Rng64`] and derived per
//! frame from a single seed: the same `(seed, FaultConfig)` pair
//! produces the identical fault schedule on every run, on any thread
//! count — fault campaigns are replayable experiments, not flaky ones.
//!
//! # Examples
//!
//! ```
//! use adsim_faults::{FaultConfig, FaultInjector};
//!
//! let cfg = FaultConfig { blackout_rate: 0.5, ..FaultConfig::off() };
//! let mut a = FaultInjector::new(7, cfg.clone());
//! let mut b = FaultInjector::new(7, cfg);
//! let fa: Vec<_> = (0..32).map(|_| a.next_frame()).collect();
//! let fb: Vec<_> = (0..32).map(|_| b.next_frame()).collect();
//! assert_eq!(fa, fb, "same seed, same schedule");
//! assert!(fa.iter().any(|f| f.blackout));
//! ```

mod config;
mod corrupt;
mod injector;

pub use config::FaultConfig;
pub use corrupt::{blackout_frame, corrupt_pixels};
pub use injector::{
    FaultClass, FaultEvent, FaultInjector, FaultKind, FrameFaults, InjectedCrash, PixelCorruption,
    WorkerStall,
};
