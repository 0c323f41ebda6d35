//! The ops console: a chaos-stressed cluster observed end to end
//! through its *live* ops plane — every site runs an HTTP listener
//! serving `GET /metrics` (Prometheus text, including the
//! `sdvm_cluster_*` rollup merged from heartbeat-piggybacked digests),
//! `/healthz` (200/503) and `/status` (membership JSON) — plus the
//! crash-triggered flight recorder, the timestamped event bus (with a
//! live subscriber tap) and the Perfetto + Prometheus exporters.
//!
//! Unlike a test harness poking `site.inner()`, this example watches
//! the cluster the way an operator would: it scrapes its own HTTP
//! endpoints while a partition heals and a paused site gets declared
//! dead, then checks that the flight recorder left a postmortem black
//! box behind.
//!
//! The event-bus filter honors `SDVM_TELEMETRY` (comma-separated
//! categories: `career,help,code,hops,membership,detector,recovery`,
//! or `all` / `off`). Note that filtering only trims the *event bus*;
//! the metrics registry and the ops plane are always on.
//!
//! ```text
//! cargo run --release --example cluster_monitor [-- OUT_DIR]
//! SDVM_TELEMETRY=career,detector cargo run --release --example cluster_monitor
//! ```
//!
//! Writes `OUT_DIR/trace.json` (open at <https://ui.perfetto.dev>),
//! `OUT_DIR/metrics.prom` (Prometheus text exposition),
//! `OUT_DIR/families.txt` (the registry table's family names) and
//! `OUT_DIR/postmortems/postmortem-*.json` (the flight recorder's
//! black boxes). `OUT_DIR` defaults to the current directory.

use sdvm::apps::primes::PrimesProgram;
use sdvm::core::telemetry::FAMILIES;
use sdvm::core::{
    perfetto_trace_json, prometheus_text, ChaosAction, ChaosScenario, InProcessCluster, SiteConfig,
    SiteMetrics, TraceEvent, TraceLog,
};
use sdvm::types::SiteId;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CATEGORY_NAMES: [&str; 7] = [
    "career",
    "help",
    "code",
    "hops",
    "membership",
    "detector",
    "recovery",
];

/// Plain HTTP GET against an ops listener: `(status, body)`. Errors
/// (refused, timed out — e.g. the site is frozen) become status 0.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let attempt = || -> std::io::Result<(u16, String)> {
        let mut s = TcpStream::connect_timeout(&addr, Duration::from_millis(500))?;
        s.set_read_timeout(Some(Duration::from_millis(500)))?;
        s.set_write_timeout(Some(Duration::from_millis(500)))?;
        write!(s, "GET {path} HTTP/1.1\r\nHost: sdvm\r\n\r\n")?;
        let mut raw = String::new();
        s.read_to_string(&mut raw)?;
        let code = raw
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let body = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        Ok((code, body))
    };
    attempt().unwrap_or((0, String::new()))
}

/// Pull one un-labelled or single-series sample out of a Prometheus
/// text body: the last whitespace-separated token of the first sample
/// line whose name matches.
fn sample(body: &str, family: &str) -> u64 {
    body.lines()
        .find(|l| {
            !l.starts_with('#')
                && (l.starts_with(&format!("{family}{{")) || l.starts_with(&format!("{family} ")))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0) as u64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let pm_dir = format!("{out_dir}/postmortems");
    let _ = std::fs::remove_dir_all(&pm_dir);

    // The event bus, filtered by SDVM_TELEMETRY (unset = everything).
    let trace = TraceLog::from_env();

    // A live, non-blocking tap: a monitoring thread counts events per
    // category as they happen. If it fell behind, events would be
    // dropped for the tap only (counted), never stalling the sites.
    let tap = trace.subscribe();
    let tap_counts: Arc<[AtomicU64; 7]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
    {
        let counts = tap_counts.clone();
        std::thread::spawn(move || {
            while let Ok(b) = tap.recv() {
                let idx = (b.event.category() as u32).trailing_zeros() as usize;
                counts[idx.min(6)].fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    // Four sites with the fast failure detector, crash tolerance, an
    // ops-plane HTTP listener each, and the flight recorder armed.
    let mut cfg = SiteConfig::default()
        .with_crash_tolerance()
        .with_ops_addr("127.0.0.1:0")
        .with_postmortem_dir(&pm_dir);
    cfg.heartbeat_interval = Duration::from_millis(50);
    cfg.suspect_timeout = Duration::from_millis(200);
    cfg.crash_timeout = Duration::from_millis(1_000);
    let cluster = InProcessCluster::with_configs(vec![cfg; 4], Some(trace.clone()))?;
    let ops: Vec<SocketAddr> = (0..cluster.len())
        .map(|i| cluster.site(i).ops_addr().expect("ops listener bound"))
        .collect();
    println!(
        "ops plane up: {}",
        ops.iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );

    // The workload: the paper's prime-search, slow enough that frames
    // migrate between sites via help requests.
    let prog = PrimesProgram {
        p: 60,
        width: 12,
        spin: 0,
        sleep_us: 10_000,
    };

    // The chaos schedule: a link partition that heals (suspicion raised,
    // then refuted through indirect probes) and a long pause that gets
    // site 3 declared dead (detection latency!), fenced as a zombie on
    // resume, and re-admitted at a bumped incarnation. The crash verdict
    // is exactly what trips the survivors' flight recorders.
    let scenario = ChaosScenario::new()
        .at(
            Duration::from_millis(300),
            ChaosAction::Partition {
                a: 0,
                b: 1,
                heal_after: Duration::from_millis(1_200),
            },
        )
        .at(
            Duration::from_millis(800),
            ChaosAction::Pause {
                site: 3,
                for_: Duration::from_millis(2_500),
            },
        );

    let started = Instant::now();
    let result = std::thread::scope(|s| -> Result<_, Box<dyn std::error::Error>> {
        s.spawn(|| scenario.run(&cluster));
        let handle = prog.launch(cluster.site(0))?;

        // Watch the cluster through its own HTTP endpoints while the
        // chaos plays out — metrics scraped, health checked, exactly
        // what a Prometheus + load-balancer pair would see.
        for tick in 0..4 {
            std::thread::sleep(Duration::from_millis(600));
            println!(
                "── tick {tick} (+{:?}) ─────────────────────────────────────────",
                started.elapsed()
            );
            println!(
                "{:>6} {:>8} {:>6} {:>6} {:>6} {:>8} {:>9} {:>9}",
                "site", "healthz", "execd", "sent", "recvd", "suspect", "declared", "clust-ex"
            );
            for (i, addr) in ops.iter().enumerate() {
                let (health, hbody) = http_get(*addr, "/healthz");
                let (_, mbody) = http_get(*addr, "/metrics");
                let health = match health {
                    200 => "ok".to_string(),
                    0 => "frozen".to_string(),
                    c => format!("{c}"),
                };
                println!(
                    "{:>6} {:>8} {:>6} {:>6} {:>6} {:>8} {:>9} {:>9}",
                    cluster.site(i).id().to_string(),
                    health,
                    sample(&mbody, "sdvm_frames_executed_total"),
                    sample(&mbody, "sdvm_messages_sent_total"),
                    sample(&mbody, "sdvm_messages_received_total"),
                    sample(&mbody, "sdvm_detector_suspicions_raised_total"),
                    sample(&mbody, "sdvm_detector_crashes_declared_total"),
                    sample(&mbody, "sdvm_cluster_frames_executed_total"),
                );
                if health != "ok" && !hbody.is_empty() {
                    println!("       └─ {}", hbody.trim());
                }
            }
        }
        Ok(handle.wait(Duration::from_secs(600))?)
    })?;
    println!();
    println!(
        "the {}-th prime is {} — found in {:?} despite a partition and a paused site",
        prog.p,
        result.as_u64()?,
        started.elapsed()
    );

    // Let the paused site's zombie fencing / rejoin play out before the
    // final snapshot, so the detector metrics show the full story.
    std::thread::sleep(Duration::from_millis(1_200));

    // ---- the flight recorder's verdict ----
    // Site 3's 2.5 s freeze outlived the 1 s crash timeout, so a
    // survivor declared it crashed — and its recorder must have dumped
    // a black box naming that verdict.
    let postmortems: Vec<_> = std::fs::read_dir(&pm_dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| {
                    e.file_name().to_string_lossy().starts_with("postmortem-")
                        && e.file_name().to_string_lossy().ends_with(".json")
                })
                .collect()
        })
        .unwrap_or_default();
    assert!(
        !postmortems.is_empty(),
        "the crash verdict must leave a postmortem in {pm_dir}"
    );
    let first = std::fs::read_to_string(postmortems[0].path())?;
    assert!(
        first.contains("\"schema\": \"sdvm-postmortem-v1\""),
        "postmortem must carry its schema marker"
    );
    let trigger = first
        .lines()
        .find(|l| l.trim_start().starts_with("\"trigger\""))
        .unwrap_or("")
        .trim();
    println!();
    println!(
        "flight recorder: {} black box(es) in {pm_dir} — first: {} ({trigger})",
        postmortems.len(),
        postmortems[0].file_name().to_string_lossy(),
    );

    // The cluster rollup, scraped from one site like Prometheus would.
    let (_, rollup) = http_get(ops[0], "/metrics");
    println!(
        "cluster rollup via site {}: sites={} frames={} messages={} career-p99={}µs",
        cluster.site(0).id(),
        sample(&rollup, "sdvm_cluster_sites"),
        sample(&rollup, "sdvm_cluster_frames_executed_total"),
        sample(&rollup, "sdvm_cluster_messages_sent_total"),
        sample(&rollup, "sdvm_cluster_frame_career_quantile_us{q=\"0.99\"}"),
    );

    // ---- export ----
    let events = trace.timestamped();
    let migrations: Vec<_> = events
        .iter()
        .filter_map(|b| match &b.event {
            TraceEvent::HelpGranted { frame, .. } => Some(*frame),
            _ => None,
        })
        .collect();

    let trace_path = format!("{out_dir}/trace.json");
    std::fs::write(&trace_path, perfetto_trace_json(&events))?;

    let snapshots: Vec<(SiteId, SiteMetrics)> = (0..cluster.len())
        .map(|i| {
            let site = cluster.site(i);
            let inner = site.inner();
            let st = inner.site_mgr.status(inner);
            (st.id, st.metrics)
        })
        .collect();
    let prom_path = format!("{out_dir}/metrics.prom");
    std::fs::write(&prom_path, prometheus_text(&snapshots))?;
    // The registry table's family names, one per line: CI holds the
    // exposition above against this rather than against a name list.
    let families: String = FAMILIES.iter().map(|f| format!("{}\n", f.name)).collect();
    std::fs::write(format!("{out_dir}/families.txt"), families)?;

    println!();
    println!(
        "telemetry bus: {} events recorded ({} overwritten by the ring, {} dropped by slow taps)",
        trace.total_emitted(),
        trace.dropped(),
        trace.tap_dropped()
    );
    print!("live tap saw:");
    for (i, name) in CATEGORY_NAMES.iter().enumerate() {
        let n = tap_counts[i].load(Ordering::Relaxed);
        if n > 0 {
            print!(" {name}={n}");
        }
    }
    println!();
    println!(
        "{} frame migrations; their careers are stitched across sites by trace id in {trace_path}",
        migrations.len()
    );
    println!("wrote {trace_path} (open at https://ui.perfetto.dev) and {prom_path}");
    Ok(())
}
