//! # ibsim-engine
//!
//! The discrete-event simulation (DES) substrate underneath the
//! InfiniBand congestion-control simulation suite.
//!
//! The paper's authors built their model on the OMNeT++ kernel; this
//! crate plays that role here. It deliberately contains **no networking
//! concepts** — just the three things every DES needs:
//!
//! * exact simulated [`time`] (picoseconds) and bandwidth arithmetic,
//! * a deterministic future-event list ([`queue::EventQueue`]),
//! * reproducible random streams ([`rng::Rng`]) and measurement
//!   primitives ([`stats`]).
//!
//! Determinism contract: given the same configuration and root seed, a
//! simulation built on this crate produces bit-identical results. The
//! event queue breaks timestamp ties by insertion order and every
//! stochastic component derives its own named random stream.

pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use queue::{EventQueue, LaneStats, QueueSnapshot};
pub use rng::Rng;
pub use stats::{Histogram, HistogramState, RateMeter, RateMeterState, RunLap, RunMeter};
pub use time::{rate_gbps, Bandwidth, Time, TimeDelta};
