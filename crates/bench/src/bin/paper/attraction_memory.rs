//! E14 — attraction memory v2 (paper §4, extension): replica reads and
//! the sharded store, machine-readable.
//!
//! Two experiments, both on the real site stack (managers, wire codec,
//! in-process transport):
//!
//! 1. **Read-mostly remote reads** — two sites repeatedly read an
//!    object owned by a third, with an occasional owner-side write
//!    mixed in (1 write per 100 read rounds). Compared with versioned
//!    read replicas off vs on: with replicas every read after the
//!    first is a local version-checked hit until the next
//!    invalidation, without them every read is a full network
//!    round-trip.
//! 2. **Sharded store under local contention** — four threads, started
//!    together, hammer read/write mixes against one site's store with 1
//!    shard vs 8 shards, reporting both throughput and the contention
//!    counters the shards expose (`MemStats::shard_contention`). Each
//!    shard count runs three times and reports its median-contention
//!    run: a single short run's count depends on whether the host
//!    happened to run the threads in parallel.
//!
//! Writes `BENCH_attraction_memory.json` into the working directory.
//!
//! Check: replicas on read at least 1.5× the reads/s of replicas off, and
//! 8 shards count less lock contention than 1. A violation exits
//! non-zero.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e14
//! ```

use sdvm_bench::{rule, Json, Report};
use sdvm_core::{InProcessCluster, SiteConfig};
use sdvm_types::{ProgramId, Value};
use std::sync::Arc;
use std::time::Instant;

const READ_ROUNDS: u64 = 2_000;
const WRITE_EVERY: u64 = 100;
const LOCAL_THREADS: usize = 4;
const LOCAL_OPS: u64 = 300_000;
/// The least replica-read speedup the check accepts (3.4× to 5.5×
/// measured).
const MIN_REPLICA_SPEEDUP: f64 = 1.5;

struct BenchResult {
    name: String,
    ops_per_sec: f64,
    ns_per_op: f64,
    contention: Option<u64>,
}

/// Read-mostly fan-in: sites 1 and 2 read an object homed at site 0,
/// the owner writing once per `WRITE_EVERY` rounds. Returns ops/sec
/// over all remote reads.
fn bench_remote_reads(replicas: bool) -> BenchResult {
    let config = if replicas {
        SiteConfig::default()
    } else {
        SiteConfig::default().without_replica_reads()
    };
    let cluster = Arc::new(InProcessCluster::new(3, config).expect("cluster"));
    let s0 = cluster.site(0).inner();
    let addr = s0.memory.alloc(s0, ProgramId(1), Value::from_u64(0));
    // Warm the path (and the copyset, when replicas are on).
    for i in 1..3 {
        let site = cluster.site(i).inner();
        site.memory.read(site, addr, false).expect("warm-up read");
    }

    let start = Instant::now();
    let mut handles = Vec::new();
    for r in 1..3usize {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let site = cluster.site(r).inner();
            for i in 0..READ_ROUNDS {
                site.memory
                    .read(site, addr, false)
                    .unwrap_or_else(|e| panic!("reader {r} round {i}: {e}"));
            }
        }));
    }
    {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let site = cluster.site(0).inner();
            for i in 0..READ_ROUNDS / WRITE_EVERY {
                site.memory
                    .write(site, addr, Value::from_u64(i + 1))
                    .unwrap_or_else(|e| panic!("writer round {i}: {e}"));
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }));
    }
    for h in handles {
        h.join().expect("bench thread");
    }
    let secs = start.elapsed().as_secs_f64();
    let reads = (READ_ROUNDS * 2) as f64;
    BenchResult {
        name: format!(
            "remote_read/replicas_{}",
            if replicas { "on" } else { "off" }
        ),
        ops_per_sec: reads / secs,
        ns_per_op: secs * 1e9 / reads,
        contention: None,
    }
}

/// Local mixed read/write traffic from `LOCAL_THREADS` threads against
/// one site's store, parameterized by shard count. Reports the
/// aggregate contention counter next to throughput: a single shard
/// serializes every operation, the sharded store spreads them.
fn bench_local_contention(shards: usize) -> BenchResult {
    let config = SiteConfig::default().with_mem_shards(shards);
    let cluster = Arc::new(InProcessCluster::new(1, config).expect("cluster"));
    let site = cluster.site(0).inner();
    let addrs: Vec<_> = (0..64)
        .map(|i| site.memory.alloc(site, ProgramId(1), Value::from_u64(i)))
        .collect();
    let addrs = Arc::new(addrs);

    let start_line = Arc::new(std::sync::Barrier::new(LOCAL_THREADS));
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..LOCAL_THREADS {
        let cluster = Arc::clone(&cluster);
        let addrs = Arc::clone(&addrs);
        let start_line = Arc::clone(&start_line);
        handles.push(std::thread::spawn(move || {
            let site = cluster.site(0).inner();
            start_line.wait();
            for i in 0..LOCAL_OPS {
                let addr = addrs[((i as usize) * LOCAL_THREADS + t) % addrs.len()];
                if i % 8 == t as u64 % 8 {
                    site.memory
                        .write(site, addr, Value::from_u64(i))
                        .unwrap_or_else(|e| panic!("local writer {t}: {e}"));
                } else {
                    site.memory
                        .read(site, addr, false)
                        .unwrap_or_else(|e| panic!("local reader {t}: {e}"));
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("bench thread");
    }
    let secs = start.elapsed().as_secs_f64();
    let ops = (LOCAL_OPS * LOCAL_THREADS as u64) as f64;
    let contention: u64 = site.memory.stats().shard_contention.iter().sum();
    BenchResult {
        name: format!("local_mix/shards_{shards}"),
        ops_per_sec: ops / secs,
        ns_per_op: secs * 1e9 / ops,
        contention: Some(contention),
    }
}

/// The run with the median contention count of three: one run's count
/// depends on how the host happened to overlap the threads.
fn median_contention(shards: usize) -> BenchResult {
    let mut runs: Vec<BenchResult> = (0..3).map(|_| bench_local_contention(shards)).collect();
    runs.sort_by_key(|r| r.contention);
    runs.swap_remove(1)
}

pub fn run() {
    println!("E14: attraction memory v2, replica reads and sharded store");
    rule(90);
    let results = vec![
        bench_remote_reads(false),
        bench_remote_reads(true),
        median_contention(1),
        median_contention(8),
    ];
    for r in &results {
        let contention = r
            .contention
            .map(|c| format!("  contention={c}"))
            .unwrap_or_default();
        println!(
            "{:>26}: {:>12.0} ops/s  {:>10.0} ns/op{}",
            r.name, r.ops_per_sec, r.ns_per_op, contention
        );
    }
    let replica_speedup = results[1].ops_per_sec / results[0].ops_per_sec;
    let shard_speedup = results[3].ops_per_sec / results[2].ops_per_sec;
    println!("replica read speedup: {replica_speedup:.2}x   shard speedup: {shard_speedup:.2}x");
    rule(90);

    let rows = results.iter().map(|r| {
        let mut row = vec![
            ("name", Json::str(&r.name)),
            ("ops_per_sec", Json::num(r.ops_per_sec, 1)),
            ("ns_per_op", Json::num(r.ns_per_op, 1)),
        ];
        row.extend(r.contention.map(|c| ("shard_contention", Json::from(c))));
        Json::obj(row)
    });
    Report::new("attraction_memory")
        .set("read_rounds", READ_ROUNDS)
        .set("write_every", WRITE_EVERY)
        .set("local_threads", LOCAL_THREADS)
        .set("replica_read_speedup", Json::num(replica_speedup, 2))
        .set("shard_speedup", Json::num(shard_speedup, 2))
        .set("results", Json::rows(rows))
        .write("BENCH_attraction_memory.json");
    println!("wrote BENCH_attraction_memory.json");

    let mut violations = Vec::new();
    if replica_speedup < MIN_REPLICA_SPEEDUP {
        violations.push(format!(
            "replica reads {replica_speedup:.2}x the reads/s without replicas, expected >= {MIN_REPLICA_SPEEDUP}x"
        ));
    }
    let contention = |r: &BenchResult| r.contention.unwrap_or_default();
    let (one, eight) = (contention(&results[2]), contention(&results[3]));
    if eight >= one {
        violations.push(format!(
            "contention with 8 shards ({eight}) not below 1 shard ({one})"
        ));
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("E14 check failed: {v}");
        }
        std::process::exit(1);
    }
}
