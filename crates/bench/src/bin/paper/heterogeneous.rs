//! E9 — heterogeneous clusters and load adaptation (paper §3.5): "Sites
//! having less computing power are relieved while more powerful sites
//! get more work due to the load balancing mechanism."
//!
//! Simulated: mixed-speed clusters on the prime search; compares each
//! site's share of executed tasks with its share of the cluster's total
//! speed, plus the makespan against the equivalent-total-speed
//! homogeneous cluster.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e9
//! ```

use sdvm_bench::{cluster_config, primes_graph, rule, simulate};
use sdvm_sim::SimSite;

fn run_mix(name: &str, speeds: &[f64]) {
    let g = primes_graph(500, 20);
    let mut cfg = cluster_config(speeds.len());
    cfg.sites = speeds.iter().map(|&s| SimSite::with_speed(s)).collect();
    let m = simulate(cfg, g);
    let total_speed: f64 = speeds.iter().sum();
    println!("cluster: {name} (total speed {total_speed:.1})");
    println!(
        "{:>6} {:>7} {:>12} {:>12} {:>12}",
        "site", "speed", "speed share", "work share", "busy (s)"
    );
    let total_tasks: u64 = m.executed_per_site.iter().sum();
    for (i, &s) in speeds.iter().enumerate() {
        println!(
            "{:>6} {:>7.1} {:>11.1}% {:>11.1}% {:>12.1}",
            i,
            s,
            100.0 * s / total_speed,
            100.0 * m.executed_per_site[i] as f64 / total_tasks as f64,
            m.busy[i]
        );
    }
    println!("makespan: {:.1}s  (tasks: {total_tasks})", m.makespan);
    rule(64);
}

pub fn run() {
    println!("E9: heterogeneous clusters — work follows speed (simulated)");
    rule(64);
    run_mix("4 equal sites", &[1.0, 1.0, 1.0, 1.0]);
    run_mix("1 fast + 3 slow", &[4.0, 1.0, 1.0, 1.0]);
    run_mix("stair", &[4.0, 2.0, 1.0, 0.5]);
    run_mix("one very slow straggler", &[1.0, 1.0, 1.0, 0.1]);
    println!("expected shape: work share tracks speed share; a straggler is");
    println!("relieved (its share collapses) instead of gating the makespan.");
}
