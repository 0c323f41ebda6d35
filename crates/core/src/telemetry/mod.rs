//! Cluster-wide telemetry: the metrics registry and exporters.
//!
//! The paper's figures are behavioural claims — Fig. 5's microframe
//! career, Fig. 6's manager hops, §6's join/leave and crash-recovery
//! timelines. The event bus ([`crate::trace`]) records *what* happened
//! and *when*; this module measures *how long* the interesting intervals
//! took ([`metrics`]) and renders a whole run for human eyes
//! ([`export`]): a Perfetto/Chrome `trace.json` with one track per site
//! (careers stitched across sites by trace id) and a Prometheus text
//! exposition of every counter and histogram.
//!
//! On top of that sits the *ops plane*: a per-site HTTP listener
//! ([`http`]) serving `GET /metrics`, `/healthz` and `/status` for live
//! introspection; a cluster-wide metrics rollup ([`rollup`]) merging
//! per-site digests that piggyback on heartbeats (wire v7); and a
//! crash-triggered flight recorder ([`postmortem`]) that dumps the
//! trace-bus tail plus a metrics snapshot when something goes wrong.

pub mod export;
pub mod http;
pub mod metrics;
pub mod postmortem;
pub mod rollup;

pub use export::{perfetto_trace_json, prom_label_escape, prometheus_text, trace_id_of};
pub use metrics::{
    manager_index, Counter, Family, Gauge, Histogram, HistogramSnapshot, Metrics, Rollup,
    SiteMetrics, Value, DISPATCH_MANAGERS, FAMILIES, HISTOGRAM_BUCKETS,
};
pub use postmortem::{
    FlightRecorder, MAX_POSTMORTEM_FILES, POSTMORTEM_EVENT_WINDOW, POSTMORTEM_MIN_INTERVAL,
};
pub use rollup::{cluster_prometheus_text, digest_of, ClusterRollup, ClusterTotals};
