//! One run of one workload: set up, warm up, measure for a fixed time,
//! stop the chains, check the outputs, tear down.

use crate::cluster::{Cluster, Counters};
use crate::record::{drain_spans, rounds_for, set_tracing, RoundStats, Span};
use crate::util::now_ns;
use crate::workloads::{Launched, RunCtl, Verdict, Workload};
use sdvm_types::Value;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Longest a warm-up may take before the run is given up.
const WARMUP_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest the programs may take to settle after the stop flag.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Room in a round's sample slots, as a multiple of the frames the
/// warm-up's rate predicts for it.
const SLOT_HEADROOM: f64 = 3.0;
const MIN_SLOTS: usize = 4096;

/// How to run a workload.
#[derive(Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Fresh clusters the timed section is split over.
    pub sections: usize,
    /// Wrap the transports in taps and record spans.
    pub traced: bool,
    pub break_check: bool,
}

/// Everything one run measured.
pub struct Measured {
    /// Section start → timed-section start, one per section.
    pub setup_s: Vec<f64>,
    pub form_ms: f64,
    pub slots: usize,
    pub rounds: RoundStats,
    pub timed_frames: u64,
    /// Site counters over the timed section.
    pub counters: Counters,
    /// Process CPU time over the timed section.
    pub cpu_s: f64,
    pub verdict: Verdict,
    /// Messages and plaintext bytes by payload kind over the timed
    /// section of a traced run.
    pub by_kind: Option<HashMap<&'static str, (u64, u64)>>,
    pub spans: Vec<Span>,
}

/// User + system CPU seconds of this process so far (`/proc/self/stat`).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12th and 13th after the name.
    let after = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<u64>().ok())
        .sum();
    // USER_HZ is 100 on every Linux this runs on.
    ticks as f64 / 100.0
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One set-up brought to the start of its timed section.
struct Ready {
    cluster: Cluster,
    ctl: Arc<RunCtl>,
    launched: Launched,
    setup_s: f64,
}

fn set_up(w: &Workload, o: &Options, seconds: f64) -> Result<Ready, String> {
    let began = now_ns();
    let cluster = Cluster::form(w.sites, o.traced).map_err(|e| format!("forming cluster: {e}"))?;
    let ctl = RunCtl::new(o.seed, o.traced, o.break_check);
    let launched = (w.launch)(&cluster, &ctl).map_err(|e| format!("launching: {e}"))?;
    let launched_at = now_ns();
    while ctl.rec.warm() < w.warmup_frames {
        if now_ns() - began > WARMUP_TIMEOUT.as_nanos() as u64 {
            ctl.stop.store(true, Ordering::SeqCst);
            cluster.teardown();
            return Err(format!(
                "warm-up stalled at {} of {} frames",
                ctl.rec.warm(),
                w.warmup_frames
            ));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    let now = now_ns();
    let rate = ctl.rec.warm() as f64 / ((now - launched_at).max(1) as f64 / 1e9);
    let rounds = rounds_for(seconds);
    let window_s = seconds / rounds as f64;
    let slots = ((rate * window_s * SLOT_HEADROOM) as usize).max(MIN_SLOTS);
    ctl.rec
        .start(now_ns(), rounds, (window_s * 1e9) as u64, slots);
    Ok(Ready {
        cluster,
        ctl,
        launched,
        setup_s: (now_ns() - began) as f64 / 1e9,
    })
}

/// End the chains, collect the programs' results, check them.
fn settle(w: &Workload, ready: Ready) -> (Verdict, Cluster) {
    let Ready {
        cluster,
        ctl,
        launched,
        ..
    } = ready;
    ctl.stop.store(true, Ordering::SeqCst);
    let mut results: Vec<Value> = Vec::new();
    let mut errors = Vec::new();
    for (i, h) in launched.handles.iter().enumerate() {
        match h.wait(SETTLE_TIMEOUT) {
            Ok(v) => results.push(v),
            Err(e) => errors.push(format!("program {i} did not settle: {e}")),
        }
    }
    let mut verdict = if errors.is_empty() {
        (launched.verify)(&results)
    } else {
        // Nothing the programs claim can be trusted: every chain's frame
        // in flight counts as failed.
        let verified = ctl.rec.total_frames();
        Verdict {
            expected: verified + w.window as u64,
            verified,
            ..Verdict::default()
        }
    };
    verdict.problems.extend(errors);
    let bad = ctl.bad.load(Ordering::Relaxed);
    verdict.check(bad == 0, || format!("{bad} frames failed verification"));
    let (expected, verified) = (verdict.expected, verdict.verified);
    verdict.check(expected == verified, || {
        format!("{expected} frames expected, {verified} verified")
    });
    (verdict, cluster)
}

/// One section: a fresh cluster measured for `seconds`.
fn section(w: &Workload, o: &Options, seconds: f64) -> Result<Measured, String> {
    let ready = set_up(w, o, seconds)?;
    let setup_s = ready.setup_s;
    let form_ms = ready.cluster.form_ms;
    let slots = ready.cluster.slots();
    let kinds_before = ready.cluster.tapped.as_ref().map(|t| t.by_kind());
    let counters_before = ready.cluster.counters();
    let cpu_before = process_cpu_s();
    set_tracing(o.traced);

    std::thread::sleep(Duration::from_secs_f64(seconds));

    set_tracing(false);
    let cpu_s = process_cpu_s() - cpu_before;
    let counters = ready.cluster.counters().since(&counters_before);
    let by_kind = ready
        .cluster
        .tapped
        .as_ref()
        .zip(kinds_before)
        .map(|(t, before)| {
            let mut by_kind = t.by_kind();
            for (kind, (n, bytes)) in &mut by_kind {
                let (n0, b0) = before.get(kind).copied().unwrap_or((0, 0));
                *n -= n0;
                *bytes -= b0;
            }
            by_kind
        });

    let ctl = ready.ctl.clone();
    let (verdict, cluster) = settle(w, ready);
    cluster.teardown();
    Ok(Measured {
        setup_s: vec![setup_s],
        form_ms,
        slots,
        rounds: ctl.rec.round_stats(),
        timed_frames: ctl.rec.timed_frames(),
        counters,
        cpu_s,
        verdict,
        by_kind,
        spans: drain_spans(),
    })
}

/// Run workload `w` once: `o.sections` fresh clusters, each set up,
/// warmed up, measured for an equal share of `o.seconds`, checked and
/// torn down. Rounds, counts and checks of all sections are pooled;
/// `form_ms`, the tap counts and the spans are the last section's.
pub fn measure(w: &Workload, o: &Options) -> Result<Measured, String> {
    let sections = o.sections.max(1);
    let seconds = o.seconds / sections as f64;
    let mut total = section(w, o, seconds)?;
    for _ in 1..sections {
        let next = section(w, o, seconds)?;
        total.setup_s.extend(next.setup_s);
        total.form_ms = next.form_ms;
        total.rounds.frames_per_s.extend(next.rounds.frames_per_s);
        total.rounds.p50_us.extend(next.rounds.p50_us);
        total.rounds.p99_us.extend(next.rounds.p99_us);
        total.rounds.samples += next.rounds.samples;
        total.rounds.dropped += next.rounds.dropped;
        total.timed_frames += next.timed_frames;
        total.counters = total.counters.plus(&next.counters);
        total.cpu_s += next.cpu_s;
        total.verdict.expected += next.verdict.expected;
        total.verdict.verified += next.verdict.verified;
        total.verdict.problems.extend(next.verdict.problems);
        total.verdict.extras = next.verdict.extras;
        total.by_kind = next.by_kind;
        total.spans = next.spans;
    }
    Ok(total)
}
