//! E10 — hedged dispatch and replication overhead.
//!
//! Tail latency: a four-site cluster with one pathologically slow site
//! (a straggler, not a crash — it heartbeats fine) runs a fan-out
//! program repeatedly, hedging off vs on. Hedging bounds the tail at
//! roughly `hedge delay + fast execution`, where the unhedged runs
//! eat the straggler's full service time whenever work lands on it.
//!
//! Overhead: on a healthy cluster, the same fan under k = 2 and k = 3
//! voting, reported as a makespan factor over `Off` — the price of the
//! silent-data-corruption defence when nothing is wrong.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin hedged_tail
//! ```

#![allow(clippy::field_reassign_with_default)] // config structs are built by mutation by design

use sdvm_bench::{rule, Json, Report};
use sdvm_core::{
    AppBuilder, ExecCtx, InProcessCluster, ProgramHandle, ReplicaSelector, ReplicationPolicy,
    SiteConfig,
};
use sdvm_types::{SchedulingHint, SiteId, Value};
use std::time::{Duration, Instant};

const SITES: usize = 4;
const FRAMES: usize = 16;
const BASE_MS: u64 = 10;
const SLOW_MS: u64 = 250;
const HEDGE_DELAY_MS: u64 = 30;

fn iters() -> usize {
    std::env::var("SDVM_BENCH_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20)
}

fn bench_config() -> SiteConfig {
    let mut cfg = SiteConfig::default();
    // Maintenance tick drives hedge deadlines; keep it well under the
    // hedge delay so firing jitter stays small.
    cfg.heartbeat_interval = Duration::from_millis(10);
    cfg
}

/// The measured program: FRAMES squaring leaves into one sticky join.
/// Leaves sleep `base` everywhere except `slow_site`, where they sleep
/// `slow` — the straggler.
fn fan_app(
    policy: ReplicationPolicy,
    slow_site: Option<SiteId>,
    base: u64,
    slow: u64,
) -> AppBuilder {
    let mut app = AppBuilder::new("hedged-tail").replicate(policy);
    app.thread("work", move |ctx: &mut ExecCtx<'_>| {
        let v = ctx.param(0)?.as_u64()?;
        let slot = ctx.param(1)?.as_u64()? as u32;
        let ms = if Some(ctx.site_id()) == slow_site {
            slow
        } else {
            base
        };
        std::thread::sleep(Duration::from_millis(ms));
        ctx.send(ctx.target(0)?, slot, Value::from_u64(v * v))
    });
    app.thread("join", |ctx| {
        let mut acc = 0;
        for i in 0..ctx.param_count() as u32 {
            acc += ctx.param(i)?.as_u64()?;
        }
        ctx.send(ctx.target(0)?, 0, Value::from_u64(acc))
    });
    app
}

fn launch(cluster: &InProcessCluster, app: &AppBuilder) -> ProgramHandle {
    cluster
        .site(0)
        .launch(app, move |ctx, result| {
            let sticky = SchedulingHint {
                sticky: true,
                ..Default::default()
            };
            let join = ctx.create_frame(1, FRAMES, vec![result], sticky);
            for i in 0..FRAMES {
                let w = ctx.create_frame(0, 2, vec![join], Default::default());
                ctx.send(w, 0, Value::from_u64(i as u64))?;
                ctx.send(w, 1, Value::from_u64(i as u64))?;
            }
            Ok(())
        })
        .expect("launch")
}

/// Run `iters` makespans of the fan on `cluster` and return them (ms).
fn makespans(cluster: &InProcessCluster, app: &AppBuilder, iters: usize) -> Vec<f64> {
    let expect: u64 = (0..FRAMES as u64).map(|i| i * i).sum();
    (0..iters)
        .map(|_| {
            let started = Instant::now();
            let handle = launch(cluster, app);
            let r = handle.wait(Duration::from_secs(60)).expect("result");
            assert_eq!(r.as_u64().expect("u64"), expect, "wrong sum");
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Nearest-rank percentile of a sample (p in [0, 100]).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn stats(mut v: Vec<f64>) -> (f64, f64, f64) {
    v.sort_by(|a, b| a.total_cmp(b));
    (
        percentile(&v, 50.0),
        percentile(&v, 99.0),
        percentile(&v, 99.9),
    )
}

fn main() {
    let iters = iters();
    println!(
        "E10: hedged dispatch — {SITES} sites, one straggler ({SLOW_MS}ms vs {BASE_MS}ms), \
{FRAMES}-frame fan, {iters} runs"
    );
    rule(76);

    // Tail latency, hedging off vs on, same straggler.
    let mut tails: Vec<(String, f64, f64, f64)> = Vec::new();
    let mut hedge_counters = (0u64, 0u64);
    for hedged in [false, true] {
        let cluster =
            InProcessCluster::with_configs(vec![bench_config(); SITES], None).expect("cluster");
        let slow = cluster.site(SITES - 1).id();
        let policy = if hedged {
            ReplicationPolicy::Hedge {
                delay: Duration::from_millis(HEDGE_DELAY_MS),
                selector: ReplicaSelector::Thread(0),
            }
        } else {
            ReplicationPolicy::Off
        };
        let app = fan_app(policy, Some(slow), BASE_MS, SLOW_MS);
        let (p50, p99, p999) = stats(makespans(&cluster, &app, iters));
        if hedged {
            for i in 0..SITES {
                let s = cluster.site(i).inner().metrics.snapshot();
                hedge_counters.0 += s.hedges_fired;
                hedge_counters.1 += s.hedge_wins;
            }
        }
        tails.push((
            if hedged { "hedged" } else { "off" }.to_string(),
            p50,
            p99,
            p999,
        ));
    }
    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "hedging", "p50 (ms)", "p99 (ms)", "p999 (ms)"
    );
    for (name, p50, p99, p999) in &tails {
        println!("{name:>8} {p50:>10.1} {p99:>10.1} {p999:>10.1}");
    }
    println!(
        "hedges fired: {}, hedge wins: {}",
        hedge_counters.0, hedge_counters.1
    );
    rule(76);

    // Replication overhead on a healthy cluster: median factor over Off.
    println!("replication overhead (no straggler, median of {iters} runs)");
    let mut medians: Vec<(String, f64)> = Vec::new();
    for (name, policy) in [
        ("off".to_string(), ReplicationPolicy::Off),
        (
            "k2".to_string(),
            ReplicationPolicy::Replicate {
                k: 2,
                selector: ReplicaSelector::Thread(0),
            },
        ),
        (
            "k3".to_string(),
            ReplicationPolicy::Replicate {
                k: 3,
                selector: ReplicaSelector::Thread(0),
            },
        ),
    ] {
        let cluster =
            InProcessCluster::with_configs(vec![bench_config(); SITES], None).expect("cluster");
        let app = fan_app(policy, None, BASE_MS, BASE_MS);
        let (p50, _, _) = stats(makespans(&cluster, &app, iters));
        medians.push((name, p50));
    }
    let base = medians[0].1;
    for (name, p50) in &medians {
        println!("{name:>8}: {p50:>8.1} ms   ({:.2}x vs off)", p50 / base);
    }
    rule(76);

    let mut report = Report::new("hedged_tail");
    report
        .set("sites", SITES)
        .set("frames", FRAMES)
        .set("iters", iters)
        .set("base_ms", BASE_MS)
        .set("slow_ms", SLOW_MS)
        .set("hedge_delay_ms", HEDGE_DELAY_MS);
    for (name, p50, p99, p999) in &tails {
        let tail = [("p50_ms", *p50), ("p99_ms", *p99), ("p999_ms", *p999)];
        report.set(name, Json::obj(tail.map(|(k, v)| (k, Json::num(v, 1)))));
    }
    report
        .set("hedges_fired", hedge_counters.0)
        .set("hedge_wins", hedge_counters.1)
        .set("overhead_factor_k2", Json::num(medians[1].1 / base, 3))
        .set("overhead_factor_k3", Json::num(medians[2].1 / base, 3))
        .write("BENCH_hedge.json");
    println!("wrote BENCH_hedge.json");
}
