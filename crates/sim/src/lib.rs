//! Discrete-event simulator for SDVM clusters.
//!
//! The paper's evaluation machines (a LAN of Pentium-IV boxes) are not
//! available — and the host running this reproduction has a single CPU
//! core, so wall-clock speedups of a threaded cluster are physically
//! unobservable. The paper itself studies hardware variants "by means of
//! a simulator" (§2.2); this crate is that simulator, generalized: it
//! executes a CDAG task graph on a modelled cluster under the *same
//! scheduling semantics* as the real runtime in `sdvm-core`:
//!
//! - dataflow firing: a frame becomes executable when its last parameter
//!   arrives; results travel as messages with latency + bandwidth cost;
//! - per-site processing slots (the paper's ~5 virtual-parallel
//!   microthreads) multiplexed onto **one CPU** per site, with context-
//!   switch overhead and blocking remote reads — so latency *hiding* is
//!   modelled, not just parallelism;
//! - decentralized scheduling: idle sites send help requests (one frame
//!   per grant), local FIFO / help-reply LIFO by default, configurable.
//!   Queue order, help-target choice and the Vivaldi coordinate update
//!   are the runtime's own code from `sdvm-types`, not a copy;
//! - code distribution: first execution of a microthread on a site pays
//!   a binary-fetch or compile-on-the-fly latency, then hits the cache;
//! - dynamic membership: sites join and leave at configured virtual
//!   times; crashes lose in-progress work, which re-executes on the
//!   buddy after a detection delay (the crash-management model).
//!
//! Virtual time is `f64` seconds; the engine is fully deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod metrics;
pub mod model;

pub use engine::Simulation;
pub use metrics::SimMetrics;
pub use model::{NetworkModel, PowerModel, SimConfig, SimSite, TaskCostModel};
