//! Drain makespan and online-checkpoint pause, machine-readable.
//!
//! Two questions about the zero-downtime operations work, answered with
//! numbers in `BENCH_drain.json`:
//!
//! 1. **How long does a graceful drain take as a function of how much
//!    the departing site owns?** A three-site cluster is loaded with N
//!    objects on the drained site; the reported makespan covers the
//!    whole planned departure — Draining gossip, quiesce, duty
//!    hand-offs, relocation to the successor, SignOff, outbound flush.
//!
//! 2. **What does a checkpoint cost the running program?** The classic
//!    cut (`checkpoint_program`) pauses the program cluster-wide for
//!    the whole collect round; the incremental cut
//!    (`snapshot_program_incremental`) never stops execution and only
//!    holds one memory shard lock at a time. The bench reports the
//!    full-checkpoint pause next to the incremental cut's worst
//!    single-shard hold — the longest a concurrent worker could have
//!    been blocked — and **asserts the hold stays under 1 ms**.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin drain_makespan
//! ```

use sdvm_apps::primes::PrimesProgram;
use sdvm_bench::{Json, Report};
use sdvm_core::{InProcessCluster, SiteConfig};
use sdvm_types::{ProgramId, Value};
use std::time::{Duration, Instant};

/// Worst single-shard lock hold allowed for the incremental cut.
const BLOCK_BUDGET_US: u128 = 1_000;

fn drain_config() -> SiteConfig {
    // The drain sleeps one help_timeout to let in-flight help replies
    // settle; keep that constant small so the curve shows the
    // size-dependent part (relocation) instead of a fixed sleep.
    SiteConfig {
        help_timeout: Duration::from_millis(10),
        ..SiteConfig::default()
    }
}

/// Time a full planned departure of a site owning `n` objects.
fn drain_once(n: usize) -> (f64, u64) {
    let cluster = InProcessCluster::new(3, drain_config()).expect("cluster");
    let s1 = cluster.site(1).inner();
    for i in 0..n {
        s1.memory.alloc(s1, ProgramId(1), Value::from_u64(i as u64));
    }
    let start = Instant::now();
    cluster.site(1).drain().expect("drain");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let relocated = cluster
        .site(1)
        .inner()
        .metrics
        .drain_objects_relocated
        .get();
    // Keep the cluster handle alive until after the measurement; the
    // remaining two sites wind down on drop.
    drop(cluster);
    (ms, relocated)
}

fn main() {
    println!("drain makespan and checkpoint pause");
    sdvm_bench::rule(72);

    // Part 1: drain time vs owned-object count.
    let sizes = [0usize, 500, 8_000, 50_000];
    let mut drains = Vec::new();
    for &n in &sizes {
        let (ms, relocated) = drain_once(n);
        println!("drain with {n:>5} owned objects: {ms:>8.1} ms ({relocated} relocated)");
        drains.push((n, ms, relocated));
    }

    // Part 2: checkpoint pause, full vs incremental, on a loaded
    // cluster with a program mid-flight.
    let cluster = InProcessCluster::new(3, drain_config()).expect("cluster");
    // Long enough that both checkpoints land mid-flight.
    let prog = PrimesProgram {
        p: 60,
        width: 16,
        spin: 0,
        sleep_us: 8_000,
    };
    let handle = prog.launch(cluster.site(0)).expect("launch");
    let program = handle.program;
    // Give the snapshot something to carry beyond the program's own
    // frames: a few thousand objects spread over the shards.
    let s0 = cluster.site(0).inner();
    for i in 0..4_000u64 {
        s0.memory.alloc(s0, program, Value::from_u64(i));
    }
    std::thread::sleep(Duration::from_millis(100));

    let start = Instant::now();
    let full = cluster
        .site(0)
        .checkpoint_program(program)
        .expect("full checkpoint");
    let full_pause_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(
        !full.objects.is_empty(),
        "full checkpoint must land mid-flight (program finished too early)"
    );

    let start = Instant::now();
    let incr = cluster
        .site(0)
        .checkpoint_program_incremental(program)
        .expect("incremental checkpoint");
    let incr_wall_ms = start.elapsed().as_secs_f64() * 1e3;

    // The worker-visible cost of the incremental cut: the longest any
    // single shard lock was held. Measured directly per site (the cut
    // reports it), dirty shards re-captured after 100 ms of execution.
    std::thread::sleep(Duration::from_millis(100));
    let mut worst_block = Duration::ZERO;
    for i in 0..3 {
        let cut = cluster
            .site(i)
            .inner()
            .memory
            .snapshot_program_incremental(program);
        worst_block = worst_block.max(cut.max_block);
    }
    let worst_block_us = worst_block.as_micros();
    println!(
        "full checkpoint pause: {full_pause_ms:.1} ms ({} frames, {} objects)",
        full.frames.len(),
        full.objects.len()
    );
    println!(
        "incremental cut wall:  {incr_wall_ms:.1} ms ({} frames, {} objects), worst single-shard hold {worst_block_us} µs",
        incr.frames.len(),
        incr.objects.len()
    );
    let pass = worst_block_us < BLOCK_BUDGET_US;
    sdvm_bench::rule(72);
    println!(
        "incremental cut worker block: {worst_block_us} µs against a {BLOCK_BUDGET_US} µs budget ({})",
        if pass { "PASS, < 1 ms" } else { "FAIL, >= 1 ms" }
    );
    handle
        .wait(Duration::from_secs(120))
        .expect("program finishes after both checkpoints");

    let drains = drains.iter().map(|&(n, ms, relocated)| {
        Json::obj([
            ("objects", Json::from(n)),
            ("drain_ms", Json::num(ms, 1)),
            ("relocated", Json::from(relocated)),
        ])
    });
    let checkpoint = Json::obj([
        ("full_pause_ms", Json::num(full_pause_ms, 1)),
        ("incremental_wall_ms", Json::num(incr_wall_ms, 1)),
        ("incremental_worst_block_us", Json::from(worst_block_us)),
        ("block_budget_us", Json::from(BLOCK_BUDGET_US)),
    ]);
    Report::new("drain_makespan")
        .set("drain", Json::rows(drains))
        .set("checkpoint", checkpoint)
        .set("pass", pass)
        .write("BENCH_drain.json");
    println!("wrote BENCH_drain.json");
    assert!(
        pass,
        "incremental cut must never block a worker for 1 ms or more"
    );
}
