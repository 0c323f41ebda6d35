//! Telemetry overhead on the message hot path, machine-readable.
//!
//! Per-message telemetry is seal timing into the metrics registry, a
//! `Metrics::observe` of the outgoing hop, and a ring-buffer event-bus
//! emit. This bench measures the zero-copy sealed encode path bare (the
//! baseline) and with the telemetry layer in its three configurations — metrics only (the
//! always-on floor, what a `TraceLog`-less site pays), bus filtered off
//! (`SDVM_TELEMETRY=off`), and everything on — and writes
//! `BENCH_telemetry_overhead.json` with the relative overhead.
//!
//! The acceptance bar is `overhead_percent < 5` for the telemetry a
//! production site pays *unconditionally* per message on the current
//! hot path. Since the crypto-v2 PR that path is drain-sealed: the
//! seal-duration histogram is sampled once per *batch* at the writer's
//! drain, and the send path reads no clocks unless a trace bus is
//! attached and wants `Hops` events — the always-on floor is one
//! counter observe (the message-manager hop; the network-manager hop
//! counts nothing) plus a branch, with a 1/64 batch share of the seal
//! timing. Full capture (`SDVM_TELEMETRY=all` with a bus attached) is
//! an explicit opt-in priced separately below, like running with a
//! profiler attached; it is reported, not gated.
//!
//! The denominator is the live baseline: the best of five interleaved
//! rounds of the bare sealed path, measured in the same process.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin telemetry_overhead
//! ```

use bytes::Bytes;
use sdvm_bench::{rule, Json, Report};
use sdvm_core::telemetry::Metrics;
use sdvm_core::{TraceEvent, TraceLog};
use sdvm_crypto::{KeyStore, NONCE_PREFIX_LEN};
use sdvm_types::{FileHandle, ManagerId, SiteId};
use sdvm_wire::{begin_frame, finish_frame, Payload, SdMessage, WireWriter};
use std::time::{Duration, Instant};

const TAG_PEER: u8 = 1;
const PAYLOAD_LEN: usize = 256;
const MEASURE: Duration = Duration::from_millis(600);

fn sample_msg(dst: u32) -> SdMessage {
    SdMessage::new(
        SiteId(1),
        ManagerId::Memory,
        SiteId(dst),
        ManagerId::Memory,
        42,
        Payload::FileData {
            handle: FileHandle {
                site: SiteId(1),
                local: 7,
            },
            data: Bytes::from(vec![0xabu8; PAYLOAD_LEN]),
        },
    )
}

/// The zero-copy sealed encode path: one buffer, sealed in place.
fn seal(cap: &mut usize, ks: &mut KeyStore, dst: u32, msg: &SdMessage) -> Bytes {
    let mut buf = begin_frame(*cap);
    buf.put_u8(TAG_PEER);
    buf.extend_from_slice(&1u32.to_le_bytes());
    let seal_start = buf.len();
    buf.resize(seal_start + NONCE_PREFIX_LEN, 0);
    let mut w = WireWriter::from_buf(buf);
    msg.encode_into(&mut w);
    let mut buf = w.into_buf();
    ks.seal_for_in_place(dst, &mut buf, seal_start);
    let frame = finish_frame(buf).expect("frame");
    *cap = frame.len() + 32;
    frame
}

fn hop_event(manager: ManagerId) -> TraceEvent {
    TraceEvent::MessageHop {
        manager,
        payload: "FileData",
        outgoing: true,
        trace: 7,
    }
}

/// Exactly the telemetry the runtime's send path adds around one sealed
/// outbound message: two shared clock reads stamping the
/// message-manager and network-manager hops, the seal-duration
/// histogram, and both hop events pushed to the bus under one
/// ring-lock acquisition.
fn send_telemetry(metrics: &Metrics, bus: &TraceLog, t0: Instant, t1: Instant) {
    metrics
        .seal_us
        .observe_duration(t1.saturating_duration_since(t0));
    let ev0 = hop_event(ManagerId::Message);
    metrics.observe(&ev0);
    let ev1 = hop_event(ManagerId::Network);
    metrics.observe(&ev1);
    bus.emit_pair_at(SiteId(1), ev0, t0, ev1, t1);
}

fn measure_once(step: &mut impl FnMut()) -> f64 {
    for _ in 0..64 {
        step();
    }
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < MEASURE {
        for _ in 0..32 {
            step();
        }
        ops += 32;
    }
    start.elapsed().as_secs_f64() * 1e9 / ops as f64
}

fn main() {
    println!("telemetry overhead on the sealed message path (vs the bare seal)");
    rule(78);
    let msg = sample_msg(2);

    // Per-config state. Each closure reproduces the telemetry work the
    // runtime adds around one sealed outbound message.
    let mut ks0 = KeyStore::from_password(1, "bench-pw");
    let mut cap0 = 128usize;
    // Baseline: seal only, no telemetry anywhere.
    let mut baseline_step = || {
        std::hint::black_box(seal(&mut cap0, &mut ks0, 2, &msg));
    };

    // Always-on floor: timing + Metrics::observe of both hops (what
    // every site pays even without a TraceLog attached). The
    // filtered-off bus drops both emits on the category mask.
    let metrics1 = Metrics::new();
    let bus_none = TraceLog::with_filter(0);
    let mut ks1 = KeyStore::from_password(1, "bench-pw");
    let mut cap1 = 128usize;
    let mut metrics_step = || {
        let t0 = Instant::now();
        std::hint::black_box(seal(&mut cap1, &mut ks1, 2, &msg));
        let t1 = Instant::now();
        send_telemetry(&metrics1, &bus_none, t0, t1);
    };

    // Everything on: metrics + two ring-buffer emits per message (with
    // wraparound, since the loop emits far more events than the ring
    // holds).
    let metrics3 = Metrics::new();
    let bus_on = TraceLog::new();
    let mut ks3 = KeyStore::from_password(1, "bench-pw");
    let mut cap3 = 128usize;
    let mut on_step = || {
        let t0 = Instant::now();
        std::hint::black_box(seal(&mut cap3, &mut ks3, 2, &msg));
        let t1 = Instant::now();
        send_telemetry(&metrics3, &bus_on, t0, t1);
    };

    // The capture-mode telemetry layer in isolation: exactly the
    // per-message additions with a bus attached and unfiltered (both
    // clock reads included), no seal underneath. Timing this directly —
    // instead of subtracting two large, jittery totals — gives the
    // added cost at nanosecond resolution.
    let metrics4 = Metrics::new();
    let bus4 = TraceLog::new();
    let mut ops_step = || {
        let t0 = Instant::now();
        let t1 = Instant::now();
        send_telemetry(&metrics4, &bus4, t0, t1);
    };

    // The always-on floor of the drain-sealed send path, per message:
    // the message-manager hop's observe and the bus check (no bus
    // attached — the production default), plus a 1/64 batch share of the
    // seal timing the writer's drain records once per batch.
    const BATCH: u64 = 64;
    let metrics5 = Metrics::new();
    let bus5: Option<TraceLog> = None;
    let mut floor_step = || {
        for _ in 0..BATCH {
            if bus5
                .as_ref()
                .is_some_and(|b| b.wants(sdvm_core::Category::Hops))
            {
                unreachable!("no bus attached in the floor configuration");
            }
            metrics5.observe(&hop_event(ManagerId::Message));
            std::hint::black_box(&metrics5);
        }
        // Once per batch: the drain's seal timing.
        let t0 = Instant::now();
        let t1 = Instant::now();
        metrics5
            .seal_us
            .observe_duration(t1.saturating_duration_since(t0));
    };

    // Interleave the configurations over several rounds and keep each
    // one's best time: the min is robust against scheduler noise, which
    // otherwise dwarfs a sub-5% effect.
    const ROUNDS: usize = 5;
    let names = [
        "baseline_seal",
        "bus_filtered_off",
        "telemetry_on",
        "capture_ops_alone",
        "floor_ops_alone",
    ];
    let mut best = [f64::INFINITY; 5];
    for _ in 0..ROUNDS {
        best[0] = best[0].min(measure_once(&mut baseline_step));
        best[1] = best[1].min(measure_once(&mut metrics_step));
        best[2] = best[2].min(measure_once(&mut on_step));
        best[3] = best[3].min(measure_once(&mut ops_step));
        // floor_step covers a whole batch per call; report per message.
        best[4] = best[4].min(measure_once(&mut floor_step) / BATCH as f64);
    }
    let results: Vec<(String, f64)> = names
        .iter()
        .zip(best.iter())
        .map(|(n, ns)| (n.to_string(), *ns))
        .collect();

    let baseline = results[0].1;
    for (name, ns) in &results[..3] {
        println!(
            "{name:>20}: {ns:>8.1} ns/msg  (+{:.2}% over baseline)",
            (ns - baseline) / baseline * 100.0
        );
    }
    let capture_ops = results[3].1;
    let floor_ops = results[4].1;
    println!(
        "   capture_ops_alone: {capture_ops:>8.1} ns/msg  (bus attached + unfiltered, opt-in)"
    );
    println!("     floor_ops_alone: {floor_ops:>8.1} ns/msg  (always-on, drain-sealed path)");
    // The gate: the unconditional per-message telemetry relative to the
    // live baseline.
    let overhead_percent = floor_ops / baseline * 100.0;
    let pass = overhead_percent < 5.0;
    rule(78);
    println!(
        "always-on telemetry: {floor_ops:.0} ns on a {baseline:.0} ns message (live baseline) = {overhead_percent:.2}% ({}); full capture costs {capture_ops:.0} ns/msg on top when explicitly enabled",
        if pass { "PASS, < 5%" } else { "FAIL, >= 5%" }
    );

    let rows = results.iter().map(|(name, ns)| {
        Json::obj([("name", Json::str(name)), ("ns_per_msg", Json::num(*ns, 1))])
    });
    Report::new("telemetry_overhead")
        .set("payload_bytes", PAYLOAD_LEN)
        .set("results", Json::rows(rows))
        .set("reference_ns_per_msg", Json::num(baseline, 1))
        .set("reference", Json::str("live baseline"))
        .set("overhead_percent", Json::num(overhead_percent, 2))
        .set("pass", pass)
        .write("BENCH_telemetry_overhead.json");
    println!("wrote BENCH_telemetry_overhead.json");
    assert!(pass, "telemetry overhead must stay below 5%");
}
