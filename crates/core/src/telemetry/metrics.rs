//! Lock-free metric primitives and the per-site metrics registry.
//!
//! Counters and gauges are single atomics; histograms are log2-bucketed
//! (power-of-two boundaries over microseconds) arrays of atomics, so the
//! hot paths record with a handful of relaxed atomic ops and never take a
//! lock. The only locked structure is the career-mark map, touched once
//! per career *transition* (four times per frame lifetime), not per
//! message.

use crate::trace::{DropReason, TraceEvent};
use parking_lot::Mutex;
use sdvm_types::{GlobalAddress, ManagerId};
use sdvm_wire::WireMetricsSummary;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of log2 histogram buckets: bucket `i` (for `i < LAST`) counts
/// values `v` with `v < 2^i` and `v >= 2^(i-1)` (bucket 0: `v == 0`);
/// the last bucket is the overflow (+Inf) bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down (e.g. a queue depth).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed latency histogram over microseconds. The observation
/// count is *derived* (the sum of the buckets) rather than stored, so
/// the hot-path record is two relaxed RMWs, not three.
pub struct Histogram {
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Bucket index for a microsecond value: 0 for 0, else
    /// `floor(log2(v)) + 1`, clamped into the overflow bucket.
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Record one observation (microseconds).
    pub fn observe(&self, micros: u64) {
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one observation from a [`Duration`], converting with u64
    /// arithmetic (`Duration::as_micros` divides in u128, which is
    /// measurable on per-message paths).
    ///
    /// [`Duration`]: std::time::Duration
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs() * 1_000_000 + d.subsec_micros() as u64);
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum_us: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (µs).
    pub sum_us: u64,
    /// Per-bucket counts; bucket `i > 0` holds values in
    /// `[2^(i-1), 2^i)` µs, bucket 0 holds zeros, the last bucket is
    /// the overflow bucket.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observed value in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// The upper bound (`le` label) of bucket `i`: `2^i - 1` µs written
    /// as a number, or `+Inf` for the overflow bucket.
    pub fn le_label(i: usize) -> String {
        if i + 1 == HISTOGRAM_BUCKETS {
            "+Inf".to_string()
        } else {
            format!("{}", (1u64 << i) - 1)
        }
    }

    /// Estimate the `p`-quantile (`p` in `[0, 1]`) in microseconds.
    ///
    /// The target rank `p · count` is located in the cumulative bucket
    /// counts; inside the hit bucket `[2^(i-1), 2^i)` the estimate
    /// interpolates **log-linearly** — `2^(i-1) · 2^frac` where `frac`
    /// is the rank's fractional position in the bucket — matching the
    /// bucket boundaries' own geometric spacing. Bucket 0 (zeros)
    /// yields 0; the overflow bucket yields its lower bound (there is
    /// no upper edge to interpolate toward). Returns 0 when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).max(f64::MIN_POSITIVE);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let prev = cum as f64;
            cum += c;
            if cum as f64 >= rank {
                if i == 0 {
                    return 0.0;
                }
                let lo = (1u64 << (i - 1)) as f64;
                if i + 1 == self.buckets.len() {
                    return lo;
                }
                let frac = ((rank - prev) / c as f64).clamp(0.0, 1.0);
                return lo * frac.exp2();
            }
        }
        // Unreachable when count equals the bucket sum; be conservative.
        0.0
    }

    /// Fold one site's wire digest of this histogram (its sum and raw
    /// per-bucket counts) into `self`. Sums saturate, and an oversized
    /// bucket vector clamps into the overflow bucket, so a hostile or
    /// future sender cannot make us index out of range.
    pub fn absorb(&mut self, sum_us: u64, buckets: &[u64]) {
        self.sum_us = self.sum_us.saturating_add(sum_us);
        self.buckets.resize(HISTOGRAM_BUCKETS, 0);
        for (i, v) in buckets.iter().enumerate() {
            let b = &mut self.buckets[i.min(HISTOGRAM_BUCKETS - 1)];
            *b = b.saturating_add(*v);
        }
        self.count = self.buckets.iter().fold(0, |n, b| n.saturating_add(*b));
    }
}

/// Career timestamps of one frame still in flight (µs since the
/// registry epoch).
#[derive(Default, Clone, Copy)]
struct CareerMarks {
    created: Option<u64>,
    executable: Option<u64>,
    ready: Option<u64>,
}

/// Bound on in-flight career marks; beyond it the oldest-inserted entries
/// are not pruned individually (no ordering kept) — the map is cleared,
/// trading a window of lost career samples for bounded memory.
const CAREER_MAP_CAP: usize = 100_000;

/// Managers whose inbound dispatch time is tracked, in
/// [`Metrics::dispatch_us`] index order.
pub const DISPATCH_MANAGERS: [ManagerId; 7] = [
    ManagerId::Scheduling,
    ManagerId::Memory,
    ManagerId::Code,
    ManagerId::Cluster,
    ManagerId::Program,
    ManagerId::Io,
    ManagerId::Site,
];

/// Index of `m` in [`DISPATCH_MANAGERS`]/[`Metrics::dispatch_us`]
/// (`None` for managers without a dispatch handler).
pub fn manager_index(m: ManagerId) -> Option<usize> {
    DISPATCH_MANAGERS.iter().position(|d| *d == m)
}

/// One family's value in a [`SiteMetrics`] snapshot, in the shape the
/// exposition writes it.
pub enum Value<'a> {
    /// A counter or gauge sample.
    Scalar(u64),
    /// A histogram's buckets, sum and count.
    Histogram(&'a HistogramSnapshot),
    /// One series per value of an extra label: the label's name, then
    /// `(label value, series)` pairs.
    Labelled(&'static str, Vec<(String, Value<'a>)>),
}

/// Descriptor of one metric family, generated from the registry table.
pub struct Family {
    /// Prometheus family name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// `# TYPE`: `counter`, `gauge` or `histogram`.
    pub kind: &'static str,
    /// The family's value in a snapshot.
    pub value: fn(&SiteMetrics) -> Value<'_>,
    /// Set for the families that ride the heartbeat digest.
    pub rollup: Option<Rollup>,
}

/// How a `rollup`-marked family travels in the heartbeat digest and
/// appears in the cluster-wide exposition.
pub struct Rollup {
    /// Cluster family name (`sdvm_cluster_*`).
    pub name: &'static str,
    /// Cluster family `# HELP` text.
    pub help: &'static str,
    /// Histograms only: name and help of the quantile-gauge family
    /// estimated from the merged buckets.
    pub quantiles: Option<(&'static str, &'static str)>,
    /// Copy the live value into a digest.
    pub digest: fn(&Metrics, &mut WireMetricsSummary),
    /// Fold one site's digest into cluster totals.
    pub absorb: fn(&mut SiteMetrics, &WireMetricsSummary),
}

/// The registry table. One entry per family,
/// `field: kind, "prometheus_name", "help text"[, rollup(..)];`,
/// expands to [`Metrics`] (with `Default` and `snapshot()`),
/// [`SiteMetrics`] and [`FAMILIES`]; the help text doubles as the
/// field's doc comment. Adding a metric is one line here, its `inc()`
/// site (or a `count` mark on its event in the `events!` table of
/// `trace.rs`), and one line in DESIGN.md §5.1.
///
/// Kinds: `counter`, `gauge`, `histogram`, and the labelled families
/// `by_manager` (a histogram per [`DISPATCH_MANAGERS`] entry),
/// `by_reason` (a counter per [`DropReason`]) and `by_shard` (a gauge
/// per attraction-memory shard).
///
/// `live` entries own storage in `Metrics`, laid out in table order;
/// `sampled` entries exist only in the snapshot, where the site manager
/// fills them at status time from the component that owns the number.
///
/// `rollup("cluster_name", "cluster help")` on a counter — or
/// `rollup(name, help, quantile_name, quantile_help, sum_field,
/// buckets_field)` on a histogram, naming its two
/// [`WireMetricsSummary`] fields — puts the family into the heartbeat
/// digest and the `sdvm_cluster_*` exposition.
macro_rules! registry {
    (@live counter) => { Counter };
    (@live gauge) => { Gauge };
    (@live histogram) => { Histogram };
    (@live by_manager) => { Vec<Histogram> };
    (@live by_reason) => { [Counter; DropReason::ALL.len()] };

    (@fresh by_manager) => { DISPATCH_MANAGERS.iter().map(|_| Histogram::default()).collect() };
    (@fresh $kind:ident) => { Default::default() };

    (@read counter $cell:expr) => { $cell.get() };
    (@read gauge $cell:expr) => { $cell.get() };
    (@read histogram $cell:expr) => { $cell.snapshot() };
    (@read by_manager $cell:expr) => {
        DISPATCH_MANAGERS.iter().zip($cell.iter()).map(|(m, h)| (format!("{m:?}"), h.snapshot())).collect()
    };
    (@read by_reason $cell:expr) => {
        DropReason::ALL.iter().zip($cell.iter()).map(|(r, c)| (format!("{r:?}"), c.get())).collect()
    };

    (@snap counter) => { u64 };
    (@snap gauge) => { u64 };
    (@snap histogram) => { HistogramSnapshot };
    (@snap by_manager) => { Vec<(String, HistogramSnapshot)> };
    (@snap by_reason) => { Vec<(String, u64)> };
    (@snap by_shard) => { Vec<u64> };

    (@type counter) => { "counter" };
    (@type gauge) => { "gauge" };
    (@type histogram) => { "histogram" };
    (@type by_manager) => { "histogram" };
    (@type by_reason) => { "counter" };
    (@type by_shard) => { "gauge" };

    (@value counter $v:expr) => { Value::Scalar($v) };
    (@value gauge $v:expr) => { Value::Scalar($v) };
    (@value histogram $v:expr) => { Value::Histogram(&$v) };
    (@value by_manager $v:expr) => {
        Value::Labelled("manager", $v.iter().map(|(l, h)| (l.clone(), Value::Histogram(h))).collect())
    };
    (@value by_reason $v:expr) => {
        Value::Labelled("reason", $v.iter().map(|(l, n)| (l.clone(), Value::Scalar(*n))).collect())
    };
    (@value by_shard $v:expr) => {
        Value::Labelled("shard", $v.iter().enumerate().map(|(i, n)| (i.to_string(), Value::Scalar(*n))).collect())
    };

    (@rollup $kind:ident $f:ident) => { None };
    (@rollup counter $f:ident ($name:literal, $help:literal)) => {
        Some(Rollup {
            name: $name,
            help: $help,
            quantiles: None,
            digest: |m, d| d.$f = m.$f.get(),
            absorb: |t, d| t.$f = t.$f.saturating_add(d.$f),
        })
    };
    (@rollup histogram $f:ident ($name:literal, $help:literal,
        $qname:literal, $qhelp:literal, $sum:ident, $buckets:ident)) => {
        Some(Rollup {
            name: $name,
            help: $help,
            quantiles: Some(($qname, $qhelp)),
            digest: |m, d| {
                let s = m.$f.snapshot();
                d.$sum = s.sum_us;
                d.$buckets = s.buckets;
            },
            absorb: |t, d| t.$f.absorb(d.$sum, &d.$buckets),
        })
    };

    (
        live {$(
            $(#[$doc:meta])*
            $f:ident: $kind:ident, $name:literal, $help:literal $(, rollup $roll:tt)?;
        )*}
        sampled {$(
            $(#[$sdoc:meta])*
            $sf:ident: $skind:ident, $sname:literal, $shelp:literal;
        )*}
    ) => {
        /// Per-site metrics registry. One instance hangs off every
        /// `SiteInner`; event-derived metrics update through
        /// [`Metrics::observe`] (called on every trace-point, whether or
        /// not a `TraceLog` is attached), and hot paths with real timing
        /// data (seal, open, dispatch, help RTT, compile) record directly
        /// into the histograms.
        pub struct Metrics {
            epoch: Instant,
            $(
                #[doc = $help]
                $(#[$doc])*
                pub $f: registry!(@live $kind),
            )*
            /// In-flight career marks, keyed by frame address.
            careers: Mutex<HashMap<GlobalAddress, CareerMarks>>,
        }

        impl Default for Metrics {
            fn default() -> Self {
                Metrics {
                    epoch: Instant::now(),
                    $( $f: registry!(@fresh $kind), )*
                    careers: Mutex::new(HashMap::new()),
                }
            }
        }

        impl Metrics {
            /// Typed point-in-time snapshot of every live metric; the
            /// sampled ones are left at zero for the site manager.
            pub fn snapshot(&self) -> SiteMetrics {
                SiteMetrics {
                    $( $f: registry!(@read $kind self.$f), )*
                    $( $sf: Default::default(), )*
                }
            }
        }

        /// A typed point-in-time snapshot of one site's metrics (the
        /// metrics half of `SiteStatus`).
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct SiteMetrics {
            $(
                #[doc = $help]
                $(#[$doc])*
                pub $f: registry!(@snap $kind),
            )*
            $(
                #[doc = $shelp]
                $(#[$sdoc])*
                pub $sf: registry!(@snap $skind),
            )*
        }

        /// Every per-site family, in table order: what
        /// `prometheus_text` renders and the cluster rollup selects from.
        pub static FAMILIES: &[Family] = &[
            $( Family {
                name: $name,
                help: $help,
                kind: registry!(@type $kind),
                value: |m| registry!(@value $kind m.$f),
                rollup: registry!(@rollup $kind $f $($roll)?),
            }, )*
            $( Family {
                name: $sname,
                help: $shelp,
                kind: registry!(@type $skind),
                value: |m| registry!(@value $skind m.$sf),
                rollup: None,
            }, )*
        ];
    };
}

registry! {
    live {
        // ---- counters (event-derived) ----
        messages_sent: counter, "sdvm_messages_sent_total", "Messages leaving the site's message manager.",
            rollup("sdvm_cluster_messages_sent_total", "SDMessages sent, summed across the cluster.");
        messages_received: counter, "sdvm_messages_received_total", "Messages dispatched on the site.",
            rollup("sdvm_cluster_messages_received_total", "SDMessages received, summed across the cluster.");
        help_requests: counter, "sdvm_help_requests_total", "Help requests sent.",
            rollup("sdvm_cluster_help_requests_total", "Help requests sent, summed across the cluster.");
        help_granted: counter, "sdvm_help_granted_total", "Help requests answered with a frame.",
            rollup("sdvm_cluster_help_granted_total", "Help requests granted, summed across the cluster.");
        help_denied: counter, "sdvm_help_denied_total", "Help requests answered with can't-help.";
        suspicions_raised: counter, "sdvm_detector_suspicions_raised_total", "Failure-detector suspicions raised.";
        /// Withdrawn after fresh liveness evidence.
        suspicions_refuted: counter, "sdvm_detector_suspicions_refuted_total", "Failure-detector suspicions withdrawn.";
        zombies_fenced: counter, "sdvm_detector_zombies_fenced_total", "Messages fenced for carrying a declared-dead incarnation.";
        crashes_declared: counter, "sdvm_detector_crashes_declared_total", "Peers declared crashed.",
            rollup("sdvm_cluster_crashes_declared_total", "Crash verdicts declared, summed across the cluster.");
        frames_executed: counter, "sdvm_frames_executed_total", "Microframes executed.",
            rollup("sdvm_cluster_frames_executed_total", "Microframes executed, summed across the cluster.");

        // ---- gauges (set by the site manager at status time) ----
        outbound_queue_depth: gauge, "sdvm_outbound_queue_depth", "Frames waiting in the transport's outbound queues.";
        net_peers_connected: gauge, "sdvm_net_peers_connected", "Peers the transport holds a live connection to.";
        /// Constant for an event-driven transport no matter how many
        /// peers connect.
        net_driver_threads: gauge, "sdvm_net_driver_threads", "Transport driver threads (pollers + listener).";
        /// Rounded to whole milliseconds.
        coord_error_ms: gauge, "sdvm_coord_error_ms", "Vivaldi coordinate fit error (EWMA of absolute RTT prediction error, ms).";

        // ---- histograms (µs) ----
        career_total_us: histogram, "sdvm_frame_career_us", "Whole microframe career, created to executed (microseconds).",
            rollup("sdvm_cluster_frame_career_us", "Microframe career time (creation to execution), merged across the cluster.",
                "sdvm_cluster_frame_career_quantile_us", "Frame career quantile estimate from merged log2 buckets.",
                career_sum_us, career_buckets);
        /// Ends when the last parameter arrives.
        career_wait_us: histogram, "sdvm_frame_career_wait_us", "Dataflow wait, created to executable (microseconds).";
        career_fetch_us: histogram, "sdvm_frame_career_fetch_us", "Code fetch, executable to ready (microseconds).";
        career_exec_us: histogram, "sdvm_frame_career_exec_us", "Queue plus run, ready to executed (microseconds).";
        /// Encode + encrypt + frame.
        seal_us: histogram, "sdvm_seal_us", "Security-manager seal time (microseconds).";
        /// Decrypt + verify.
        open_us: histogram, "sdvm_open_us", "Security-manager open time (microseconds).";
        /// Live cells are indexed by [`manager_index`].
        dispatch_us: by_manager, "sdvm_dispatch_us", "Per-manager inbound dispatch time (microseconds).";
        /// Request sent to reply or timeout.
        help_rtt_us: histogram, "sdvm_help_rtt_us", "Help-request round trip (microseconds).",
            rollup("sdvm_cluster_help_rtt_us", "Help request round-trip time, merged across the cluster.",
                "sdvm_cluster_help_rtt_quantile_us", "Help round-trip quantile estimate from merged log2 buckets.",
                help_rtt_sum_us, help_rtt_buckets);
        compile_us: histogram, "sdvm_compile_us", "Simulated on-the-fly compile duration (microseconds).";
        detection_latency_us: histogram, "sdvm_detector_detection_latency_us", "Failure-detector detection latency, last-heard to declared (microseconds).";
        retry_delay_us: histogram, "sdvm_retry_delay_us", "Backoff delay applied before each frame retry (microseconds).";

        // ---- engine counters (cold: poison/repair events only) ----
        // Declared after the hot histograms so the seed's field offsets —
        // and with them the message-path cache lines — stay unchanged.
        frames_retried: counter, "sdvm_frames_retried_total", "Microframes re-enqueued with backoff after an infrastructure error.",
            rollup("sdvm_cluster_frames_retried_total", "Microframe retries, summed across the cluster.");
        /// Retry budget exhausted, handler panic, or application error.
        frames_quarantined: counter, "sdvm_frames_quarantined_total", "Microframes moved to the dead-letter store.",
            rollup("sdvm_cluster_frames_quarantined_total", "Microframes quarantined as poison, summed across the cluster.");
        handler_panics: counter, "sdvm_handler_panics_total", "Handler panics caught by the execution engine.";
        workers_respawned: counter, "sdvm_workers_respawned_total", "Worker slot threads respawned by the supervisor.";
        programs_stuck: counter, "sdvm_programs_stuck_total", "Programs the watchdog declared stuck.";

        // ---- attraction-memory coherence (cold: replica protocol only) ----
        mem_replica_hits: counter, "sdvm_mem_replica_hits_total", "Non-migrating reads served from a fresh local replica.";
        mem_replica_misses: counter, "sdvm_mem_replica_misses_total", "Non-migrating reads that found no usable local copy and went remote.";
        /// Counted at the holder, on actual drop.
        mem_invalidations: counter, "sdvm_mem_invalidations_total", "Cached replicas dropped on an owner's invalidation.";
        mem_chase_hops: histogram, "sdvm_mem_chase_hops", "Owner hops chased per remote read/write (count, log2 buckets).";

        // ---- replicated / hedged execution (cold: coordinator only) ----
        /// All rounds, vote and hedge.
        replicas_dispatched: counter, "sdvm_replicas_dispatched_total", "Replica copies dispatched by the site's replication coordinator.";
        /// Counted once per frame, however many ballots disagree.
        result_divergence: counter, "sdvm_result_divergence_total", "Frames whose replicas returned divergent results.";
        hedges_fired: counter, "sdvm_hedges_fired_total", "Hedge duplicates fired after a frame's delay elapsed unanswered.";
        hedge_wins: counter, "sdvm_hedge_wins_total", "Hedged frames settled by a fired duplicate, not the primary.";
        hedge_delay_us: histogram, "sdvm_hedge_delay_us", "Pending time of hedged frames when their duplicate fired (microseconds).";

        // ---- planned departure & online checkpoint (cold: ops only) ----
        /// Incremented when the `SiteDraining` gossip goes out, before
        /// any relocation work.
        drain_started: counter, "sdvm_drain_started_total", "Graceful drains started on the site.";
        /// Objects relocated, duties handed off, outbound queues flushed.
        drain_completed: counter, "sdvm_drain_completed_total", "Graceful drains that ran to completion.";
        drain_objects_relocated: counter, "sdvm_drain_objects_relocated_total", "Memory objects relocated to peers during drains.";
        drain_frames_relocated: counter, "sdvm_drain_frames_relocated_total", "Waiting microframes relocated to peers during drains.";
        drain_dead_letters_swept: counter, "sdvm_drain_dead_letters_swept_total", "Dead letters swept to the successor during drains.";
        drain_duration_us: histogram, "sdvm_drain_duration_us", "Wall-clock duration of completed drains (microseconds).";
        checkpoint_incremental_cuts: counter, "sdvm_checkpoint_incremental_cuts_total", "Incremental (pause-free) checkpoint cuts taken.";
        checkpoint_incremental_shards_captured: counter, "sdvm_checkpoint_incremental_shards_captured_total", "Shards re-captured because dirty (or never cut) since the previous incremental cut.";
        checkpoint_incremental_shards_reused: counter, "sdvm_checkpoint_incremental_shards_reused_total", "Shards whose cached incremental cut was reused unchanged.";
        checkpoint_incremental_block_us: histogram, "sdvm_checkpoint_incremental_block_us", "Longest single-shard lock hold per incremental cut, the worst-case worker block (microseconds).";

        dropped: by_reason, "sdvm_dropped_total", "Messages and results the site silently discarded, by reason.";
    }
    sampled {
        /// Transport-level.
        backpressure_stalls: counter, "sdvm_outbound_backpressure_stalls_total", "Sends that hit a full outbound queue and had to wait.";
        /// 0 when no bus is attached; non-zero means the flight
        /// recorder's last-N window is lossy.
        bus_dropped: counter, "sdvm_bus_dropped_total", "Trace-bus events overwritten unread in the bounded ring.";
        bus_tap_dropped: counter, "sdvm_bus_tap_dropped_total", "Trace-bus events dropped at full live-tap subscriber channels.";
        mem_shard_contention: by_shard, "sdvm_mem_shard_contention", "Attraction-memory shard lock contention (blocking lock acquisitions).";
    }
}

impl Metrics {
    /// Fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Microseconds since this registry was created.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Update event-derived metrics from one trace-point: the counter
    /// the event table gives it, then what is not a per-variant constant.
    /// Career events touch the career-mark map (a few times per frame
    /// lifetime).
    pub fn observe(&self, ev: &TraceEvent) {
        if let Some(counter) = ev.counter(self) {
            counter.inc();
        }
        match ev {
            TraceEvent::MessageHop {
                manager, outgoing, ..
            } => {
                // Count the message-manager legs only: one outgoing hop
                // pair (Message + Network) is one sent message; an
                // incoming hop is one dispatched message.
                if *outgoing {
                    if *manager == ManagerId::Message {
                        self.messages_sent.inc();
                    }
                } else {
                    self.messages_received.inc();
                }
            }
            TraceEvent::FrameCreated { frame, .. } => {
                let now = self.now_micros();
                let mut careers = self.careers.lock();
                if careers.len() >= CAREER_MAP_CAP {
                    careers.clear();
                }
                careers.entry(*frame).or_default().created = Some(now);
            }
            TraceEvent::FrameExecutable { frame, .. } => {
                let now = self.now_micros();
                let mut careers = self.careers.lock();
                let marks = careers.entry(*frame).or_default();
                marks.executable = Some(now);
                if let Some(created) = marks.created {
                    self.career_wait_us.observe(now.saturating_sub(created));
                }
            }
            TraceEvent::FrameReady { frame, .. } => {
                let now = self.now_micros();
                let mut careers = self.careers.lock();
                let marks = careers.entry(*frame).or_default();
                marks.ready = Some(now);
                if let Some(executable) = marks.executable {
                    self.career_fetch_us.observe(now.saturating_sub(executable));
                }
            }
            TraceEvent::FrameExecuted { frame, .. } => {
                let now = self.now_micros();
                let marks = self.careers.lock().remove(frame);
                if let Some(marks) = marks {
                    if let Some(ready) = marks.ready {
                        self.career_exec_us.observe(now.saturating_sub(ready));
                    }
                    if let Some(created) = marks.created {
                        self.career_total_us.observe(now.saturating_sub(created));
                    }
                }
            }
            TraceEvent::SiteGone { crashed: true, .. } => self.crashes_declared.inc(),
            TraceEvent::Dropped { reason, .. } => self.dropped[*reason as usize].inc(),
            _ => {}
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use sdvm_types::{MicrothreadId, ProgramId, SiteId};

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(5);
        h.observe(5);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_us, 10);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[3], 2); // 5 ∈ [4, 8)
        assert!((s.mean_us() - 10.0 / 3.0).abs() < 1e-9);
        assert_eq!(HistogramSnapshot::le_label(3), "7");
        assert_eq!(HistogramSnapshot::le_label(HISTOGRAM_BUCKETS - 1), "+Inf");
    }

    #[test]
    fn quantile_interpolates_log_linearly_in_the_hit_bucket() {
        // 100 observations per bucket across buckets 1..=10 (values
        // 2^0..2^9 land exactly on each bucket's lower edge).
        let h = Histogram::default();
        for i in 0..10u32 {
            for _ in 0..100 {
                h.observe(1u64 << i);
            }
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        // p50: rank 500 = the exact top of bucket 5 ([16, 32)), so the
        // fractional position is 1.0 and the estimate is the upper edge.
        assert!((s.quantile(0.50) - 32.0).abs() < 1e-9);
        // p99: rank 990 lands 90% into bucket 10 ([512, 1024)):
        // 512 · 2^0.9.
        let expect_p99 = 512.0 * (0.9f64).exp2();
        assert!((s.quantile(0.99) - expect_p99).abs() < 1e-6);
        // p0 degenerates to the first hit bucket's lower bound; p100 to
        // the top of the last populated bucket.
        assert!((s.quantile(0.0) - 1.0).abs() < 1e-9);
        assert!((s.quantile(1.0) - 1024.0).abs() < 1e-9);
        // Monotone in p.
        let mut last = 0.0;
        for k in 0..=20 {
            let q = s.quantile(k as f64 / 20.0);
            assert!(q >= last, "quantile not monotone at {k}");
            last = q;
        }
    }

    #[test]
    fn quantile_single_bucket_midpoint_is_geometric() {
        // Everything in bucket 7 ([64, 128)): the median interpolates to
        // the geometric midpoint 64·√2.
        let h = Histogram::default();
        for _ in 0..1000 {
            h.observe(100);
        }
        let s = h.snapshot();
        let expect = 64.0 * (0.5f64).exp2();
        assert!((s.quantile(0.5) - expect).abs() < 1e-6);
        // Estimates never leave the bucket.
        assert!(s.quantile(0.001) >= 64.0);
        assert!(s.quantile(0.999) <= 128.0);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: 0 at every p.
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.quantile(0.5), 0.0);
        // All zeros: bucket 0 yields 0.
        let h = Histogram::default();
        for _ in 0..10 {
            h.observe(0);
        }
        assert_eq!(h.snapshot().quantile(0.99), 0.0);
        // Overflow bucket: clamps to its lower bound.
        let h = Histogram::default();
        h.observe(u64::MAX);
        let s = h.snapshot();
        let lo = (1u64 << (HISTOGRAM_BUCKETS - 2)) as f64;
        assert_eq!(s.quantile(0.5), lo);
    }

    #[test]
    fn career_latency_derived_from_events() {
        let m = Metrics::new();
        let site = SiteId(1);
        let frame = GlobalAddress::new(site, 1);
        let thread = MicrothreadId::new(ProgramId(1), 0);
        m.observe(&TraceEvent::FrameCreated {
            frame,
            thread,
            slots: 1,
        });
        m.observe(&TraceEvent::FrameExecutable { frame });
        m.observe(&TraceEvent::FrameReady { frame });
        m.observe(&TraceEvent::FrameExecuted { frame, thread });
        let s = m.snapshot();
        assert_eq!(s.frames_executed, 1);
        assert_eq!(s.career_total_us.count, 1);
        assert_eq!(s.career_wait_us.count, 1);
        assert_eq!(s.career_fetch_us.count, 1);
        assert_eq!(s.career_exec_us.count, 1);
        // The frame's marks are cleaned up after execution.
        assert!(m.careers.lock().is_empty());
    }

    #[test]
    fn detector_counters_follow_events() {
        let m = Metrics::new();
        m.observe(&TraceEvent::SiteSuspected { suspect: SiteId(2) });
        m.observe(&TraceEvent::SuspicionRefuted {
            suspect: SiteId(2),
            incarnation: 2,
        });
        m.observe(&TraceEvent::StaleIncarnation {
            from: SiteId(3),
            incarnation: 1,
        });
        m.observe(&TraceEvent::SiteGone {
            gone: SiteId(3),
            crashed: true,
        });
        m.observe(&TraceEvent::SiteGone {
            gone: SiteId(4),
            crashed: false,
        });
        let s = m.snapshot();
        assert_eq!(s.suspicions_raised, 1);
        assert_eq!(s.suspicions_refuted, 1);
        assert_eq!(s.zombies_fenced, 1);
        assert_eq!(s.crashes_declared, 1);
    }

    #[test]
    fn every_drop_reason_counts_into_its_own_series() {
        let m = Metrics::new();
        for (i, reason) in DropReason::ALL.into_iter().enumerate() {
            assert_eq!(reason as usize, i, "ALL lists the variants in order");
            for _ in 0..=i {
                m.observe(&TraceEvent::Dropped {
                    reason,
                    detail: String::new(),
                });
            }
        }
        let s = m.snapshot();
        for (i, reason) in DropReason::ALL.into_iter().enumerate() {
            assert_eq!(s.dropped[i], (format!("{reason:?}"), i as u64 + 1));
        }
    }
}
