//! The crash-triggered flight recorder (ops plane).
//!
//! A site configured with [`postmortem_dir`] keeps a black box: when a
//! crash verdict lands, a frame is quarantined as poison, replicated
//! execution detects result divergence, or the watchdog declares a
//! program stuck, the recorder dumps the trace-bus tail, a metrics
//! snapshot, the membership view and the config into
//! `postmortem-<site>-<seq>.json` — the evidence an operator needs
//! *after* the incident, captured at the moment it happened.
//!
//! The dump itself runs on a helper thread (via `Task::Run`), so the
//! emitting hot path pays one branch and one channel send; it is
//! rate-limited and bounded in file count so a crash storm cannot fill
//! the disk; and each file is written to a temp name and renamed, so a
//! half-written postmortem is never observed.
//!
//! [`postmortem_dir`]: crate::config::SiteConfig::postmortem_dir

use crate::site::SiteInner;
use crate::telemetry::export::json_escape;
use crate::trace::TraceEvent;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on postmortem files one recorder writes over its life —
/// a crash storm must not fill the disk.
pub const MAX_POSTMORTEM_FILES: u64 = 16;

/// Minimum spacing between two dumps; triggers inside the window are
/// counted but not dumped (the next dump's `suppressed` field says how
/// many).
pub const POSTMORTEM_MIN_INTERVAL: Duration = Duration::from_secs(1);

/// How many trailing bus events a postmortem captures.
pub const POSTMORTEM_EVENT_WINDOW: usize = 512;

/// Classify a trace event as a flight-recorder trigger. Returns the
/// trigger name (stable, machine-matchable) and a human detail line.
pub(crate) fn trigger_of(ev: &TraceEvent) -> Option<(&'static str, String)> {
    match ev {
        TraceEvent::SiteGone {
            gone,
            crashed: true,
            ..
        } => Some((
            "declare_crashed",
            format!("site {} declared crashed", gone.0),
        )),
        TraceEvent::FrameQuarantined {
            frame,
            thread,
            cause,
            ..
        } => Some((
            "frame_quarantined",
            format!("frame {frame} thread {thread} quarantined: {cause}"),
        )),
        TraceEvent::ResultDivergence { frame, thread, .. } => Some((
            "result_divergence",
            format!("replica results diverged for frame {frame} thread {thread}"),
        )),
        TraceEvent::ProgramStuck { program, .. } => {
            Some(("program_stuck", format!("program {} stuck", program.0)))
        }
        _ => None,
    }
}

/// The per-site flight recorder. Cheap when idle: the emit path only
/// checks an `Option<FlightRecorder>` and matches the event kind.
pub struct FlightRecorder {
    dir: PathBuf,
    seq: AtomicU64,
    written: AtomicU64,
    suppressed: AtomicU64,
    last_dump: Mutex<Option<Instant>>,
}

impl FlightRecorder {
    /// Recorder writing into `dir` (created on first dump).
    pub fn new(dir: PathBuf) -> Self {
        FlightRecorder {
            dir,
            seq: AtomicU64::new(0),
            written: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            last_dump: Mutex::new(None),
        }
    }

    /// Directory the recorder writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Postmortems written so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Try to claim a dump slot: enforces the file-count bound and the
    /// rate limit. Suppressed triggers are counted into the next dump.
    pub(crate) fn try_claim(&self) -> bool {
        if self.written.load(Ordering::Relaxed) >= MAX_POSTMORTEM_FILES {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut last = self.last_dump.lock();
        if let Some(at) = *last {
            if at.elapsed() < POSTMORTEM_MIN_INTERVAL {
                self.suppressed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        *last = Some(Instant::now());
        self.written.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Write one postmortem file. Runs on a helper thread — never on
    /// the thread that emitted the trigger. Returns the final path, or
    /// `None` when the filesystem refused (reported to stderr; the
    /// daemon must not die over its own black box).
    pub fn record(&self, site: &SiteInner, trigger: &str, detail: &str) -> Option<PathBuf> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let body = render_postmortem(site, trigger, detail, seq, self);
        let name = format!("postmortem-{}-{}.json", site.my_id().0, seq);
        let path = self.dir.join(&name);
        let tmp = self.dir.join(format!(".{name}.tmp"));
        let result = std::fs::create_dir_all(&self.dir)
            .and_then(|()| std::fs::write(&tmp, body))
            .and_then(|()| std::fs::rename(&tmp, &path));
        match result {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!(
                    "sdvm: flight recorder failed to write {}: {e}",
                    path.display()
                );
                let _ = std::fs::remove_file(&tmp);
                None
            }
        }
    }
}

/// Assemble the postmortem JSON by hand (the codebase's exporters are
/// deliberately serde-free; the black box follows suit).
fn render_postmortem(
    site: &SiteInner,
    trigger: &str,
    detail: &str,
    seq: u64,
    rec: &FlightRecorder,
) -> String {
    let status = site.site_mgr.status(site);
    let m = &status.metrics;
    let view = site.cluster.membership_view();
    let wall_micros = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut out = String::with_capacity(64 * 1024);
    let _ = write!(
        out,
        "{{\n  \"schema\": \"sdvm-postmortem-v1\",\n  \"seq\": {seq},\n  \"trigger\": \"{}\",\n  \"detail\": \"{}\",\n  \"wall_unix_micros\": {wall_micros},\n  \"suppressed_since_last\": {},\n",
        json_escape(trigger),
        json_escape(detail),
        rec.suppressed.swap(0, Ordering::Relaxed),
    );
    let _ = write!(
        out,
        "  \"site\": {},\n  \"incarnation\": {},\n  \"running\": {},\n  \"draining\": {},\n",
        site.my_id().0,
        site.my_incarnation(),
        site.is_running(),
        site.is_draining(),
    );
    // Config highlights: the knobs that decide crash behavior.
    let c = &site.config;
    let _ = writeln!(
        out,
        "  \"config\": {{\"slots\": {}, \"crash_tolerance\": {}, \"suspicion\": {}, \"heartbeat_interval_ms\": {}, \"suspect_timeout_ms\": {}, \"crash_timeout_ms\": {}, \"max_frame_retries\": {}, \"mem_shards\": {}}},",
        c.slots,
        c.crash_tolerance,
        c.suspicion,
        c.heartbeat_interval.as_millis(),
        c.suspect_timeout.as_millis(),
        c.crash_timeout.as_millis(),
        c.max_frame_retries,
        c.mem_shards,
    );
    let _ = writeln!(
        out,
        "  \"status\": {{\"queued_frames\": {}, \"busy_slots\": {}, \"objects\": {}, \"incomplete_frames\": {}, \"programs\": {}, \"known_sites\": {}, \"outbound_queued\": {}, \"dead_letters\": {}, \"delayed_frames\": {}}},",
        status.queued_frames,
        status.busy_slots,
        status.objects,
        status.incomplete_frames,
        status.programs,
        status.known_sites,
        status.outbound_queued,
        status.dead_letters,
        status.delayed_frames,
    );
    let _ = writeln!(
        out,
        "  \"metrics\": {{\"messages_sent\": {}, \"messages_received\": {}, \"frames_executed\": {}, \"frames_retried\": {}, \"frames_quarantined\": {}, \"crashes_declared\": {}, \"programs_stuck\": {}, \"result_divergence\": {}, \"bus_dropped\": {}, \"career_p50_us\": {}, \"career_p99_us\": {}}},",
        m.messages_sent,
        m.messages_received,
        m.frames_executed,
        m.frames_retried,
        m.frames_quarantined,
        m.crashes_declared,
        m.programs_stuck,
        m.result_divergence,
        m.bus_dropped,
        m.career_total_us.quantile(0.5),
        m.career_total_us.quantile(0.99),
    );
    out.push_str("  \"membership\": {\"members\": [");
    for (i, mv) in view.members.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"site\": {}, \"incarnation\": {}, \"suspected\": {}, \"accusers\": {}, \"silent_ms\": {}, \"queued_frames\": {}}}",
            mv.site.0,
            mv.incarnation,
            mv.suspected,
            mv.accusers,
            mv.silent_for.as_millis(),
            mv.load.queued_frames,
        );
    }
    out.push_str("], \"dead\": [");
    for (i, d) in view.dead.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"site\": {}, \"floor\": {}}}", d.site.0, d.floor);
    }
    out.push_str("], \"succession\": [");
    for (i, (from, to)) in view.succession.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{}, {}]", from.0, to.0);
    }
    out.push_str("]},\n");
    // Trace-bus tail: the last events before the trigger, wall-clocked.
    out.push_str("  \"events\": [");
    if let Some(t) = &site.trace {
        let events = t.timestamped();
        let skip = events.len().saturating_sub(POSTMORTEM_EVENT_WINDOW);
        for (i, e) in events[skip..].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"seq\": {}, \"site_seq\": {}, \"at_micros\": {}, \"event\": \"{}\"}}",
                e.seq,
                e.site_seq,
                e.at_micros,
                json_escape(&format!("{:?}", e.event)),
            );
        }
        if events.len() > skip {
            out.push('\n');
        }
        out.push_str("  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use sdvm_types::{GlobalAddress, MicrothreadId, ProgramId, SiteId};
    use std::sync::Arc;

    #[test]
    fn triggers_classify_the_four_black_box_events() {
        let gone = TraceEvent::SiteGone {
            site: SiteId(1),
            gone: SiteId(2),
            crashed: true,
        };
        assert_eq!(trigger_of(&gone).unwrap().0, "declare_crashed");
        let benign = TraceEvent::SiteGone {
            site: SiteId(1),
            gone: SiteId(2),
            crashed: false,
        };
        assert!(
            trigger_of(&benign).is_none(),
            "orderly sign-off is no incident"
        );
        let q = TraceEvent::FrameQuarantined {
            site: SiteId(1),
            frame: GlobalAddress::new(SiteId(1), 7),
            thread: MicrothreadId::new(ProgramId(1), 0),
            cause: Arc::new("poison".to_string()),
        };
        assert_eq!(trigger_of(&q).unwrap().0, "frame_quarantined");
        let d = TraceEvent::ResultDivergence {
            site: SiteId(1),
            frame: GlobalAddress::new(SiteId(1), 7),
            thread: MicrothreadId::new(ProgramId(1), 0),
        };
        assert_eq!(trigger_of(&d).unwrap().0, "result_divergence");
        let s = TraceEvent::ProgramStuck {
            site: SiteId(1),
            program: ProgramId(3),
        };
        assert_eq!(trigger_of(&s).unwrap().0, "program_stuck");
    }

    #[test]
    fn rate_limit_and_file_cap_claiming() {
        let r = FlightRecorder::new(std::env::temp_dir().join("sdvm-pm-test-claim"));
        assert!(r.try_claim(), "first claim passes");
        assert!(
            !r.try_claim(),
            "second claim inside the interval is suppressed"
        );
        assert_eq!(r.suppressed.load(Ordering::Relaxed), 1);
        // Exhaust the file budget: claims after the cap always fail.
        r.written.store(MAX_POSTMORTEM_FILES, Ordering::Relaxed);
        *r.last_dump.lock() = None;
        assert!(!r.try_claim(), "file cap wins even with the window open");
    }
}
