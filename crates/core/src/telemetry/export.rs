//! Telemetry exporters: Perfetto/Chrome `trace.json` and Prometheus
//! text exposition.
//!
//! Both formats are assembled by hand (the repo deliberately carries no
//! serde); the JSON emitted is the Chrome trace-event format that
//! `ui.perfetto.dev` and `chrome://tracing` load directly, and the text
//! exposition follows the Prometheus 0.0.4 format.

use crate::telemetry::metrics::{
    HistogramSnapshot, SiteMetrics, Value, FAMILIES, HISTOGRAM_BUCKETS,
};
use crate::trace::{BusEvent, TraceEvent};
use sdvm_types::{GlobalAddress, SiteId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Escape a label *value* for the Prometheus text format: backslash,
/// double quote and newline must be backslash-escaped inside the
/// quoted value; everything else passes through.
pub fn prom_label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The deterministic trace id minted for a frame: its home site
/// partitions the id space, its local index is the 32-bit id. Every site
/// derives the same id for the same frame without coordination; this is
/// the id stamped into the wire [`TraceContext`] of messages that move
/// the frame or its results.
///
/// [`TraceContext`]: sdvm_wire::TraceContext
pub fn trace_id_of(frame: GlobalAddress) -> u32 {
    frame.local as u32
}

/// Per-(site, frame) career marks while building slices.
#[derive(Default, Clone, Copy)]
struct SliceMarks {
    created: Option<u64>,
    executable: Option<u64>,
    ready: Option<u64>,
}

/// Render a recorded event stream as a Chrome/Perfetto `trace.json`
/// document: one "process" (track group) per site, with career slices
/// (tid 1), message-hop instants (tid 2) and, on the cluster track
/// (tid 3), an instant for every event the event table labels. A migrated frame's spans appear on every site that
/// hosted part of its career, tied together by the frame's trace id in
/// the slice args and by flow arrows from `HelpGranted` on the granter
/// to `FrameExecuted` on the adopter.
pub fn perfetto_trace_json(events: &[BusEvent]) -> String {
    let mut entries: Vec<String> = Vec::new();
    let mut sites_seen: Vec<SiteId> = Vec::new();
    // Career marks per (site, frame): a migrated frame restarts its
    // career on the adopting site, so marks are per-site.
    let mut marks: HashMap<(SiteId, GlobalAddress), SliceMarks> = HashMap::new();
    // Frames with a migration in flight: HelpGranted seen, flow arrow
    // open until the adopter executes the frame.
    let mut open_flows: HashMap<GlobalAddress, u32> = HashMap::new();

    let note_site = |sites_seen: &mut Vec<SiteId>, s: SiteId| {
        if !sites_seen.contains(&s) {
            sites_seen.push(s);
        }
    };

    let slice = |entries: &mut Vec<String>,
                 site: SiteId,
                 name: &str,
                 from: u64,
                 to: u64,
                 frame: GlobalAddress| {
        entries.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"career\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
\"pid\":{},\"tid\":1,\"args\":{{\"frame\":\"{}.{}\",\"trace_id\":{}}}}}",
            json_escape(name),
            from,
            to.saturating_sub(from).max(1),
            site.0,
            frame.home.0,
            frame.local,
            trace_id_of(frame)
        ));
    };

    for b in events {
        let site = b.site;
        note_site(&mut sites_seen, site);
        let ts = b.at_micros;
        match &b.event {
            TraceEvent::FrameCreated { frame, .. } => {
                marks.entry((site, *frame)).or_default().created = Some(ts);
            }
            TraceEvent::FrameExecutable { frame, .. } => {
                let m = marks.entry((site, *frame)).or_default();
                m.executable = Some(ts);
                if let Some(created) = m.created {
                    slice(&mut entries, site, "wait params", created, ts, *frame);
                }
            }
            TraceEvent::FrameReady { frame, .. } => {
                let m = marks.entry((site, *frame)).or_default();
                m.ready = Some(ts);
                if let Some(executable) = m.executable {
                    slice(&mut entries, site, "fetch code", executable, ts, *frame);
                }
            }
            TraceEvent::FrameExecuted { frame, .. } => {
                let m = marks.remove(&(site, *frame)).unwrap_or_default();
                let from = m.ready.or(m.executable).or(m.created).unwrap_or(ts);
                slice(&mut entries, site, "run", from, ts, *frame);
                if let Some(id) = open_flows.remove(frame) {
                    entries.push(format!(
                        "{{\"name\":\"migration\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\
\"id\":{id},\"ts\":{ts},\"pid\":{},\"tid\":1}}",
                        site.0
                    ));
                }
            }
            TraceEvent::HelpGranted {
                frame, requester, ..
            } => {
                note_site(&mut sites_seen, *requester);
                let id = trace_id_of(*frame);
                open_flows.insert(*frame, id);
                entries.push(format!(
                    "{{\"name\":\"migration\",\"cat\":\"flow\",\"ph\":\"s\",\
\"id\":{id},\"ts\":{ts},\"pid\":{},\"tid\":1,\
\"args\":{{\"frame\":\"{}.{}\",\"to\":{}}}}}",
                    site.0, frame.home.0, frame.local, requester.0
                ));
            }
            TraceEvent::MessageHop {
                manager,
                payload,
                outgoing,
                trace,
            } => {
                let dir = if *outgoing { "out" } else { "in" };
                entries.push(format!(
                    "{{\"name\":\"{} {} ({:?})\",\"cat\":\"hops\",\"ph\":\"i\",\"s\":\"t\",\
\"ts\":{ts},\"pid\":{},\"tid\":2,\"args\":{{\"trace_id\":{}}}}}",
                    json_escape(payload),
                    dir,
                    manager,
                    site.0,
                    trace
                ));
            }
            other => {
                // Everything the event table labels: process-scoped
                // instants on the cluster track.
                let Some(name) = other.label() else { continue };
                entries.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"cluster\",\"ph\":\"i\",\"s\":\"p\",\
\"ts\":{ts},\"pid\":{},\"tid\":3}}",
                    json_escape(&name),
                    site.0
                ));
            }
        }
    }

    // Track metadata: name each site's process and its three tracks.
    sites_seen.sort();
    for s in &sites_seen {
        // SiteId 0 is the not-yet-assigned id a site carries while
        // signing on; give that track an honest name.
        let pname = if s.0 == 0 {
            "site ? (signing on)".to_string()
        } else {
            format!("site {}", s.0)
        };
        entries.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
\"args\":{{\"name\":\"{}\"}}}}",
            s.0, pname
        ));
        for (tid, tname) in [(1, "careers"), (2, "hops"), (3, "cluster")] {
            entries.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{tid},\
\"args\":{{\"name\":\"{tname}\"}}}}",
                s.0
            ));
        }
    }

    let mut out = String::with_capacity(entries.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

/// Write a family's `# HELP` and `# TYPE` lines.
pub(crate) fn write_header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Write the sample lines of one series: a scalar is one line, a
/// histogram its cumulative buckets then `_sum` and `_count`, and a
/// labelled value recurses once per label value with the pair appended
/// to `labels`.
fn write_series(out: &mut String, name: &str, labels: &str, value: &Value<'_>) {
    match value {
        Value::Scalar(v) => {
            let _ = writeln!(out, "{name}{{{labels}}} {v}");
        }
        Value::Histogram(h) => {
            let mut cumulative = 0u64;
            for i in 0..HISTOGRAM_BUCKETS {
                cumulative += h.buckets.get(i).copied().unwrap_or(0);
                let le = HistogramSnapshot::le_label(i);
                let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum_us);
            let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count);
        }
        Value::Labelled(key, series) => {
            for (label, v) in series {
                let labels = format!("{labels},{key}=\"{}\"", prom_label_escape(label));
                write_series(out, name, &labels, v);
            }
        }
    }
}

/// Render per-site metric snapshots in the Prometheus text exposition
/// format: one block per [`FAMILIES`] entry, one series per site.
/// Histogram buckets are cumulative with power-of-two `le` boundaries
/// (microseconds).
pub fn prometheus_text(sites: &[(SiteId, SiteMetrics)]) -> String {
    let mut out = String::new();
    for f in FAMILIES {
        write_header(&mut out, f.name, f.help, f.kind);
        for (site, m) in sites {
            write_series(
                &mut out,
                f.name,
                &format!("site=\"{}\"", site.0),
                &(f.value)(m),
            );
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use crate::telemetry::metrics::Metrics;
    use crate::trace::TraceLog;
    use sdvm_types::{ManagerId, MicrothreadId, ProgramId};

    fn run_career(log: &TraceLog, site: SiteId, frame: GlobalAddress) {
        let thread = MicrothreadId::new(ProgramId(1), 0);
        log.emit(
            site,
            TraceEvent::FrameCreated {
                frame,
                thread,
                slots: 1,
            },
        );
        log.emit(site, TraceEvent::FrameExecutable { frame });
        log.emit(site, TraceEvent::FrameReady { frame });
        log.emit(site, TraceEvent::FrameExecuted { frame, thread });
    }

    #[test]
    fn perfetto_export_has_tracks_slices_and_flows() {
        let log = TraceLog::new();
        let frame = GlobalAddress::new(SiteId(1), 7);
        run_career(&log, SiteId(1), frame);
        log.emit(
            SiteId(1),
            TraceEvent::HelpGranted {
                requester: SiteId(2),
                frame,
                score: 1,
            },
        );
        run_career(&log, SiteId(2), frame);
        log.emit(
            SiteId(1),
            TraceEvent::MessageHop {
                manager: ManagerId::Message,
                payload: "HelpReply",
                outgoing: true,
                trace: trace_id_of(frame),
            },
        );
        let json = perfetto_trace_json(&log.timestamped());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"site 1\""));
        assert!(json.contains("\"name\":\"site 2\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains(&format!("\"trace_id\":{}", trace_id_of(frame))));
        // Balanced braces/brackets — cheap structural sanity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn prometheus_export_renders_families() {
        let m = Metrics::new();
        m.help_requests.inc();
        m.detection_latency_us.observe(344_000);
        m.career_total_us.observe(120);
        m.mem_replica_hits.inc();
        m.mem_replica_misses.inc();
        m.mem_invalidations.inc();
        m.mem_chase_hops.observe(1);
        m.replicas_dispatched.inc();
        m.result_divergence.inc();
        m.hedges_fired.inc();
        m.hedge_wins.inc();
        m.hedge_delay_us.observe(2_000);
        m.drain_started.inc();
        m.drain_completed.inc();
        m.drain_objects_relocated.add(4);
        m.drain_frames_relocated.add(2);
        m.drain_dead_letters_swept.inc();
        m.drain_duration_us.observe(9_000);
        m.checkpoint_incremental_cuts.inc();
        m.checkpoint_incremental_shards_captured.add(3);
        m.checkpoint_incremental_shards_reused.add(13);
        m.checkpoint_incremental_block_us.observe(40);
        let mut snap = m.snapshot();
        snap.mem_shard_contention = vec![0, 3];
        snap.bus_dropped = 2;
        snap.bus_tap_dropped = 5;
        let text = prometheus_text(&[(SiteId(1), snap)]);
        assert!(text.contains("# TYPE sdvm_help_requests_total counter"));
        assert!(text.contains("sdvm_help_requests_total{site=\"1\"} 1"));
        assert!(text.contains("# TYPE sdvm_detector_detection_latency_us histogram"));
        assert!(text.contains("sdvm_detector_detection_latency_us_count{site=\"1\"} 1"));
        assert!(text.contains("sdvm_frame_career_us_bucket{site=\"1\",le=\"127\"} 1"));
        assert!(text.contains("le=\"+Inf\"} 1"));
        assert!(text.contains("manager=\"Scheduling\""));
        assert!(text.contains("sdvm_mem_replica_hits_total{site=\"1\"} 1"));
        assert!(text.contains("sdvm_mem_replica_misses_total{site=\"1\"} 1"));
        assert!(text.contains("sdvm_mem_invalidations_total{site=\"1\"} 1"));
        assert!(text.contains("sdvm_mem_chase_hops_count{site=\"1\"} 1"));
        assert!(text.contains("sdvm_replicas_dispatched_total{site=\"1\"} 1"));
        assert!(text.contains("sdvm_result_divergence_total{site=\"1\"} 1"));
        assert!(text.contains("sdvm_hedges_fired_total{site=\"1\"} 1"));
        assert!(text.contains("sdvm_hedge_wins_total{site=\"1\"} 1"));
        assert!(text.contains("sdvm_hedge_delay_us_count{site=\"1\"} 1"));
        assert!(text.contains("sdvm_mem_shard_contention{site=\"1\",shard=\"1\"} 3"));
        assert!(text.contains("sdvm_bus_dropped_total{site=\"1\"} 2"));
        assert!(text.contains("sdvm_bus_tap_dropped_total{site=\"1\"} 5"));
        assert!(text.contains("sdvm_drain_started_total{site=\"1\"} 1"));
        assert!(text.contains("sdvm_drain_completed_total{site=\"1\"} 1"));
        assert!(text.contains("sdvm_drain_objects_relocated_total{site=\"1\"} 4"));
        assert!(text.contains("sdvm_drain_frames_relocated_total{site=\"1\"} 2"));
        assert!(text.contains("sdvm_drain_dead_letters_swept_total{site=\"1\"} 1"));
        assert!(text.contains("sdvm_drain_duration_us_count{site=\"1\"} 1"));
        assert!(text.contains("sdvm_checkpoint_incremental_cuts_total{site=\"1\"} 1"));
        assert!(text.contains("sdvm_checkpoint_incremental_shards_captured_total{site=\"1\"} 3"));
        assert!(text.contains("sdvm_checkpoint_incremental_shards_reused_total{site=\"1\"} 13"));
        assert!(text.contains("sdvm_checkpoint_incremental_block_us_count{site=\"1\"} 1"));
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
