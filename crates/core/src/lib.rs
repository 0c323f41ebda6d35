//! The SDVM daemon: the core of the Self Distributing Virtual Machine.
//!
//! One [`Site`] is one machine's daemon. It is structured exactly like the
//! paper's Fig. 3, as a set of *managers* in three layers:
//!
//! - **execution layer** — [`managers::processing`],
//!   [`managers::scheduling`], [`managers::code`], [`managers::memory`]
//!   (the attraction memory) and [`managers::io`]: enough to run SDVM
//!   programs on a single site;
//! - **maintenance layer** — [`managers::cluster`], [`managers::program`],
//!   [`managers::site_mgr`] and [`managers::security`];
//! - **communication layer** — `managers::message` and
//!   `managers::network`.
//!
//! Programs are built from *microthreads* (Rust handler functions, see
//! [`thread`]) fired by *microframes* ([`frame`]) under dataflow
//! synchronization. The [`api`] module offers the program-building and
//! cluster-building entry points; [`trace`] records the "career of
//! microframes" (Fig. 5) and message hops (Fig. 6) as checkable events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod chaos;
pub mod checkpoint;
pub mod config;
pub mod frame;
pub mod managers;
pub mod pending;
pub mod site;
pub mod telemetry;
pub mod thread;
pub mod trace;

pub use api::{AppBuilder, ExecCtx, InProcessCluster, ProgramHandle};
pub use chaos::{AppFault, AppFaultKind, ChaosAction, ChaosEvent, ChaosScenario};
pub use checkpoint::ProgramSnapshot;
pub use config::SiteConfig;
pub use frame::Microframe;
pub use managers::cluster::{DeadView, MemberView, MembershipView};
pub use managers::deadletter::{DeadLetter, DeadLetterManager};
pub use managers::replication::ReplicationManager;
pub use sdvm_types::{ReplicaSelector, ReplicationPolicy};
pub use site::Site;
pub use telemetry::{
    cluster_prometheus_text, digest_of, perfetto_trace_json, prometheus_text, ClusterRollup,
    ClusterTotals, FlightRecorder, HistogramSnapshot, SiteMetrics,
};
pub use thread::{AppRegistry, ThreadFn, ThreadSpec};
pub use trace::{BusEvent, Category, DropReason, TraceEvent, TraceLog};
