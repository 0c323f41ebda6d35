//! Cluster-wide metrics rollup (ops plane, wire v7).
//!
//! Every heartbeat tick a site condenses the `rollup`-marked families
//! of its registry into a [`WireMetricsSummary`] digest and piggybacks it on the
//! heartbeat fan-out. Receivers store the digest latest-wins per
//! sender, so *any* site can serve cluster totals without a central
//! scrape: counters are cumulative (sums are meaningful) and the
//! histogram digests merge by element-wise bucket addition, which keeps
//! quantile estimates exact at bucket granularity.

use crate::telemetry::export::write_header;
use crate::telemetry::metrics::{
    HistogramSnapshot, Metrics, SiteMetrics, Value, FAMILIES, HISTOGRAM_BUCKETS,
};
use parking_lot::Mutex;
use sdvm_types::SiteId;
use sdvm_wire::WireMetricsSummary;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Condense the `rollup`-marked families of a site's registry into the
/// small wire digest that rides heartbeats.
pub fn digest_of(m: &Metrics) -> WireMetricsSummary {
    let mut d = WireMetricsSummary::default();
    for r in FAMILIES.iter().filter_map(|f| f.rollup.as_ref()) {
        (r.digest)(m, &mut d);
    }
    d
}

/// Cluster totals merged from every known per-site digest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterTotals {
    /// Sites contributing a digest (the local one included).
    pub sites: usize,
    /// The `rollup`-marked families summed across those sites —
    /// counters by saturating addition, histograms bucket-wise; every
    /// other field stays at its default.
    pub merged: SiteMetrics,
}

/// Latest-wins store of per-site digests, keyed by sender.
#[derive(Default)]
pub struct ClusterRollup {
    digests: Mutex<HashMap<SiteId, WireMetricsSummary>>,
}

impl ClusterRollup {
    /// Fresh, empty rollup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `summary` as the latest digest from `site` (cumulative, so
    /// latest-wins is lossless).
    pub fn record(&self, site: SiteId, summary: WireMetricsSummary) {
        self.digests.lock().insert(site, summary);
    }

    /// Drop the digest of a site declared crashed — its counters stop
    /// contributing to cluster totals once the verdict lands.
    pub fn forget(&self, site: SiteId) {
        self.digests.lock().remove(&site);
    }

    /// All stored digests, sorted by site id.
    pub fn snapshot(&self) -> Vec<(SiteId, WireMetricsSummary)> {
        let mut v: Vec<_> = self
            .digests
            .lock()
            .iter()
            .map(|(s, d)| (*s, d.clone()))
            .collect();
        v.sort_by_key(|(s, _)| *s);
        v
    }

    /// Merge every stored digest into cluster totals.
    pub fn totals(&self) -> ClusterTotals {
        let digests = self.digests.lock();
        let mut t = ClusterTotals {
            sites: digests.len(),
            ..Default::default()
        };
        for r in FAMILIES.iter().filter_map(|f| f.rollup.as_ref()) {
            for d in digests.values() {
                (r.absorb)(&mut t.merged, d);
            }
        }
        t
    }
}

/// Render the cluster rollup as Prometheus text-format families
/// (`sdvm_cluster_*`), appended after the per-site families on
/// `GET /metrics`. Quantiles are estimated from the merged buckets via
/// [`HistogramSnapshot::quantile`] and exposed as plain gauges with a
/// `q` label (summaries can't be aggregated; these are honest
/// bucket-merge estimates, labelled as such in HELP).
pub fn cluster_prometheus_text(t: &ClusterTotals) -> String {
    let mut out = String::with_capacity(4096);
    write_header(
        &mut out,
        "sdvm_cluster_sites",
        "Sites contributing a metrics digest to this rollup.",
        "gauge",
    );
    let _ = writeln!(out, "sdvm_cluster_sites {}", t.sites);
    for f in FAMILIES {
        let Some(r) = &f.rollup else { continue };
        write_header(&mut out, r.name, r.help, f.kind);
        match (f.value)(&t.merged) {
            Value::Scalar(v) => {
                let _ = writeln!(out, "{} {v}", r.name);
            }
            Value::Histogram(h) => {
                write_merged_histogram(&mut out, r.name, h);
                if let Some((name, help)) = r.quantiles {
                    write_header(&mut out, name, help, "gauge");
                    for (label, p) in [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)] {
                        let _ = writeln!(out, "{name}{{q=\"{label}\"}} {}", h.quantile(p));
                    }
                }
            }
            // The table's `rollup` mark exists for counters and
            // histograms only.
            Value::Labelled(..) => {}
        }
    }
    out
}

/// One unlabeled cluster histogram: cumulative `_bucket{le=...}` rows
/// over the log2 boundaries, then `_sum` and `_count`.
fn write_merged_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for i in 0..HISTOGRAM_BUCKETS {
        cumulative += h.buckets.get(i).copied().unwrap_or(0);
        if i + 1 == HISTOGRAM_BUCKETS {
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        } else {
            let le = if i == 0 { 0 } else { 1u64 << i };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
    }
    let _ = writeln!(out, "{name}_sum {}", h.sum_us);
    let _ = writeln!(out, "{name}_count {}", h.count);
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    fn digest(base: u64, buckets: Vec<u64>) -> WireMetricsSummary {
        WireMetricsSummary {
            messages_sent: base,
            messages_received: base + 1,
            frames_executed: base + 2,
            frames_retried: 0,
            frames_quarantined: 0,
            crashes_declared: 0,
            help_requests: base,
            help_granted: base,
            career_sum_us: base * 100,
            career_buckets: buckets,
            help_rtt_sum_us: 0,
            help_rtt_buckets: vec![],
        }
    }

    #[test]
    fn totals_sum_counters_and_merge_buckets() {
        let r = ClusterRollup::new();
        r.record(SiteId(1), digest(10, vec![0, 2, 4]));
        r.record(SiteId(2), digest(5, vec![1, 1, 1, 8]));
        let t = r.totals();
        assert_eq!(t.sites, 2);
        let t = t.merged;
        assert_eq!(t.messages_sent, 15);
        assert_eq!(t.frames_executed, 19, "base+2 from each of the two digests");
        assert_eq!(t.career_total_us.sum_us, 1500);
        assert_eq!(t.career_total_us.count, 17);
        assert_eq!(&t.career_total_us.buckets[..4], &[1, 3, 5, 8]);
        assert_eq!(t.career_total_us.buckets.len(), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn latest_wins_and_forget_drops() {
        let r = ClusterRollup::new();
        r.record(SiteId(1), digest(10, vec![]));
        r.record(SiteId(1), digest(20, vec![]));
        assert_eq!(r.totals().merged.messages_sent, 20, "latest digest wins");
        r.forget(SiteId(1));
        assert_eq!(r.totals().sites, 0);
    }

    #[test]
    fn oversized_wire_buckets_clamp_into_overflow() {
        let r = ClusterRollup::new();
        r.record(SiteId(1), digest(0, vec![1; HISTOGRAM_BUCKETS + 10]));
        let t = r.totals().merged.career_total_us;
        assert_eq!(t.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(t.buckets[HISTOGRAM_BUCKETS - 1], 11);
        assert_eq!(t.count, (HISTOGRAM_BUCKETS + 10) as u64);
    }

    #[test]
    fn cluster_text_renders_all_families() {
        let r = ClusterRollup::new();
        r.record(SiteId(1), digest(3, vec![0, 1, 2, 3]));
        let text = cluster_prometheus_text(&r.totals());
        for fam in [
            "sdvm_cluster_sites",
            "sdvm_cluster_messages_sent_total",
            "sdvm_cluster_messages_received_total",
            "sdvm_cluster_frames_executed_total",
            "sdvm_cluster_frames_retried_total",
            "sdvm_cluster_frames_quarantined_total",
            "sdvm_cluster_crashes_declared_total",
            "sdvm_cluster_help_requests_total",
            "sdvm_cluster_help_granted_total",
            "sdvm_cluster_frame_career_us",
            "sdvm_cluster_help_rtt_us",
            "sdvm_cluster_frame_career_quantile_us",
            "sdvm_cluster_help_rtt_quantile_us",
        ] {
            assert!(
                text.contains(&format!("# TYPE {fam} ")),
                "missing TYPE for {fam}"
            );
            assert!(
                text.contains(&format!("# HELP {fam} ")),
                "missing HELP for {fam}"
            );
        }
        assert!(text.contains("sdvm_cluster_frame_career_us_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("sdvm_cluster_frame_career_quantile_us{q=\"0.5\"}"));
        assert!(text.contains("sdvm_cluster_frame_career_quantile_us{q=\"0.999\"}"));
    }

    #[test]
    fn digest_of_copies_the_right_fields() {
        let m = Metrics::new();
        m.messages_sent.add(7);
        m.frames_executed.add(3);
        m.help_denied.inc(); // not rollup-marked: stays out of the digest
        m.career_total_us.observe(900);
        m.help_rtt_us.observe(5);
        let d = digest_of(&m);
        assert_eq!(d.messages_sent, 7);
        assert_eq!(d.frames_executed, 3);
        assert_eq!(d.career_sum_us, 900);
        assert_eq!(d.career_buckets, m.career_total_us.snapshot().buckets);
        assert_eq!(d.help_rtt_sum_us, 5);
        assert_eq!(d.help_rtt_buckets.iter().sum::<u64>(), 1);
    }
}
