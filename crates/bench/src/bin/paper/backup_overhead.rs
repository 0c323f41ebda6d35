//! E7b — the cost of crash tolerance: "a recovery costs time and
//! resources nonetheless" (§2.2) — but so does *preparing* for one.
//! Backup mirroring duplicates every frame creation, result application
//! and consumption to a buddy site. This ablation measures that standing
//! overhead on the real runtime: message volume (via the in-memory
//! hub's delivery counter) and wall-clock, with crash tolerance off/on,
//! plus the checkpoint path's quiesce cost.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e7b
//! ```

use sdvm_apps::primes::{nth_prime, PrimesProgram};
use sdvm_bench::rule;
use sdvm_core::{InProcessCluster, SiteConfig};
use std::time::{Duration, Instant};

fn measure(crash_tolerance: bool) -> (f64, u64) {
    let mut cfg = SiteConfig::default();
    cfg.crash_tolerance = crash_tolerance;
    let cluster = InProcessCluster::new(3, cfg).expect("cluster");
    let prog = PrimesProgram {
        p: 120,
        width: 16,
        spin: 0,
        sleep_us: 1_500,
    };
    let before = cluster.hub().delivered_count();
    let t0 = Instant::now();
    let handle = prog.launch(cluster.site(0)).expect("launch");
    let result = handle.wait(Duration::from_secs(600)).expect("result");
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(result.as_u64().unwrap(), nth_prime(120));
    let messages = cluster.hub().delivered_count() - before;
    (wall, messages)
}

pub fn run() {
    println!("E7b: standing cost of crash tolerance (real runtime, 3 sites)");
    println!("workload: primes p=120 w=16, ~1.5ms/candidate");
    rule(70);
    println!("{:>22} {:>12} {:>16}", "mode", "wall", "messages");
    rule(70);
    // Interleave best-of-3 per mode to damp timing noise.
    let mut off = (f64::INFINITY, u64::MAX);
    let mut on = (f64::INFINITY, u64::MAX);
    for _ in 0..3 {
        let r = measure(false);
        off = (off.0.min(r.0), off.1.min(r.1));
        let r = measure(true);
        on = (on.0.min(r.0), on.1.min(r.1));
    }
    println!(
        "{:>22} {:>11.3}s {:>16}",
        "crash tolerance off", off.0, off.1
    );
    println!("{:>22} {:>11.3}s {:>16}", "crash tolerance on", on.0, on.1);
    println!(
        "{:>22} {:>+11.1}% {:>+15.1}%",
        "overhead",
        (on.0 / off.0 - 1.0) * 100.0,
        (on.1 as f64 / off.1 as f64 - 1.0) * 100.0
    );
    rule(70);

    // Checkpoint cost: quiesce + collect + store, measured mid-run.
    let cluster = InProcessCluster::new(3, SiteConfig::default()).expect("cluster");
    let prog = PrimesProgram {
        p: 200,
        width: 16,
        spin: 0,
        sleep_us: 4_000,
    };
    let handle = prog.launch(cluster.site(0)).expect("launch");
    std::thread::sleep(Duration::from_millis(200));
    let t0 = Instant::now();
    let snap = cluster
        .site(0)
        .checkpoint_program(handle.program)
        .expect("checkpoint");
    let ckpt_time = t0.elapsed();
    println!(
        "one cluster-wide checkpoint: {ckpt_time:?} (quiesce + collect + store; \
         {} frames, {} bytes)",
        snap.frames.len(),
        snap.to_bytes().len()
    );
    handle.wait(Duration::from_secs(600)).expect("result");
    println!("expected shape: mirroring roughly doubles message volume for a modest");
    println!("wall cost; a checkpoint pauses the program for ~the longest microthread");
    println!("plus the settle window.");
}
