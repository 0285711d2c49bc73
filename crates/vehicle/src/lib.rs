//! Vehicle control plus the paper's physical constraint models:
//! power, thermal and driving range (§2.4.4–§2.4.5, Fig. 2, Fig. 12).
//!
//! * [`control`]: pure-pursuit steering and PID speed control over a
//!   kinematic bicycle model (step 5 of Fig. 1 — "the vehicle control
//!   engine simply follows the planned paths and trajectories"),
//! * [`power`]: storage power (8 W per 3 TB) and the cooling
//!   magnification from the automotive air conditioner's coefficient
//!   of performance of 1.3 (a 100 W system imposes 77 W of cooling),
//! * [`range`]: the Chevy Bolt EV driving-range model and the
//!   gasoline 1-MPG-per-400-W rule,
//! * [`thermal`]: cabin heating rates and operating-temperature
//!   envelopes.
//!
//! # Examples
//!
//! ```
//! use adsim_vehicle::power::SystemPower;
//!
//! // 8 cameras × 162 W of GPUs + the U.S. prior map.
//! let sys = SystemPower::new(8, 162.0, 41_000_000_000_000);
//! assert!(sys.total_w() > 2_000.0, "cooling magnifies the load");
//! ```

pub mod control;
pub mod power;
pub mod range;
pub mod thermal;

pub use control::{BicycleState, VehicleController};
pub use power::SystemPower;
pub use range::{ev_range_reduction, gas_mpg_reduction};
