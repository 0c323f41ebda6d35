//! E7 — crash management (paper §2.2/§6, \[4\]): "even crashes of
//! individual sites may be overcome without loss of data", at the price
//! that "a recovery costs time and resources".
//!
//! Simulated: the prime search on 8 sites with 1/2/3 sites crashing
//! mid-run, sweeping the crash-detection timeout — the recovery cost the
//! paper trades off. Also runs a *real* crash on the threaded runtime
//! and reports the backup/recovery counters.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e7
//! ```

use sdvm_apps::primes::{nth_prime, PrimesProgram};
use sdvm_bench::{cluster_config, primes_graph, rule, simulate, Json, Report};
use sdvm_core::{InProcessCluster, SiteConfig, TraceEvent, TraceLog};
use std::time::Duration;

pub fn run() {
    println!("E7: crash management — recovery cost (simulated primes p=500 w=20, 8 sites)");
    rule(76);
    let g = primes_graph(500, 20);
    let baseline = simulate(cluster_config(8), g.clone()).makespan;
    println!("no crash: {baseline:.1}s");
    println!();
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>12}",
        "crashes", "detect (s)", "makespan", "vs baseline", "re-executed"
    );
    rule(76);
    for &crashes in &[1usize, 2, 3] {
        for &detect in &[0.1f64, 0.5, 2.0] {
            let mut cfg = cluster_config(8);
            cfg.crash_detect = detect;
            for i in 0..crashes {
                cfg.sites[7 - i].crash_at = Some(baseline * 0.3 + i as f64 * 0.05);
            }
            let m = simulate(cfg, g.clone());
            println!(
                "{:>8} {:>12.1} {:>11.1}s {:>13.1}% {:>12}",
                crashes,
                detect,
                m.makespan,
                (m.makespan / baseline - 1.0) * 100.0,
                m.reexecutions
            );
        }
    }
    rule(76);

    // Real runtime: crash one of three sites mid-run, program finishes.
    println!();
    println!("real runtime: 3 sites, site 3 crashes mid-run (crash tolerance on)");
    let trace = TraceLog::new();
    const CRASH_TIMEOUT_MS: u64 = 300;
    let mut cfg = SiteConfig::default().with_crash_tolerance();
    cfg.heartbeat_interval = Duration::from_millis(50);
    cfg.crash_timeout = Duration::from_millis(CRASH_TIMEOUT_MS);
    let cluster =
        InProcessCluster::with_configs(vec![cfg; 3], Some(trace.clone())).expect("cluster");
    let prog = PrimesProgram {
        p: 60,
        width: 16,
        spin: 0,
        sleep_us: 8_000,
    };
    let handle = prog.launch(cluster.site(0)).expect("launch");
    // Crash only once the victim demonstrably received work.
    let victim = cluster.site(2).id();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while trace
        .filter(|e| matches!(e, TraceEvent::HelpGranted { requester, .. } if *requester == victim))
        .is_empty()
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(50));
    let crashed_at = std::time::Instant::now();
    cluster.crash(2);
    // Watch for the death verdict concurrently with the program so the
    // detection latency is measured when the event lands, not when we
    // happen to look.
    let detection_latency = {
        let trace = trace.clone();
        std::thread::spawn(move || {
            let deadline = crashed_at + Duration::from_secs(10);
            loop {
                if !trace
                    .filter(|e| matches!(e, TraceEvent::SiteGone { gone, crashed: true, .. } if *gone == victim))
                    .is_empty()
                {
                    return Some(crashed_at.elapsed());
                }
                if std::time::Instant::now() > deadline {
                    return None;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let result = handle
        .wait(Duration::from_secs(120))
        .expect("recovered result");
    let makespan = crashed_at.elapsed();
    assert_eq!(result.as_u64().unwrap(), nth_prime(60));
    let detection_latency = detection_latency.join().expect("detector watcher");
    let detected = trace
        .filter(|e| matches!(e, TraceEvent::SiteGone { crashed: true, .. }))
        .len();
    // Any declared death of a site that never crashed is a false positive
    // of the suspicion detector (the whole point of two-phase detection
    // is to keep this at zero).
    let false_positives = trace
        .filter(
            |e| matches!(e, TraceEvent::SiteGone { gone, crashed: true, .. } if *gone != victim),
        )
        .len();
    let recovered: usize = trace
        .filter(|e| matches!(e, TraceEvent::Recovered { .. }))
        .iter()
        .map(|e| match e {
            TraceEvent::Recovered {
                frames, objects, ..
            } => frames + objects,
            _ => 0,
        })
        .sum();
    println!(
        "result correct: {} (the 60th prime)",
        result.as_u64().unwrap()
    );
    println!("crash detections observed : {detected}");
    println!("backup entries revived    : {recovered}");
    match detection_latency {
        Some(d) => println!(
            "detection latency         : {:.0} ms",
            d.as_secs_f64() * 1e3
        ),
        None => println!("detection latency         : not observed within 10s"),
    }
    println!("false positives           : {false_positives}");
    println!(
        "recovery makespan         : {:.0} ms (crash to result delivery)",
        makespan.as_secs_f64() * 1e3
    );
    rule(76);

    Report::new("crash_recovery")
        .set("sites", 3u64)
        .set("crash_timeout_ms", CRASH_TIMEOUT_MS)
        .set(
            "detection_latency_ms",
            detection_latency.map(|d| Json::num(d.as_secs_f64() * 1e3, 1)),
        )
        .set("false_positives", false_positives)
        .set("crash_detections", detected)
        .set("backup_entries_revived", recovered)
        .set(
            "recovery_makespan_ms",
            Json::num(makespan.as_secs_f64() * 1e3, 1),
        )
        .write("BENCH_crash_recovery.json");
    println!("wrote BENCH_crash_recovery.json");
}
