//! E3 — the paper's §4 finding: "Tests showed that a number of about 5
//! microthreads run in (virtual) parallel produce good results."
//!
//! Sweeps the processing manager's slot count on a latency-bound
//! workload (tasks blocking on remote memory accesses): too few slots
//! leave the CPU idle during blocks; beyond the knee more slots add
//! nothing (and in the real system would add switching overhead and
//! starve other sites).
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e3
//! ```

use sdvm_bench::{cluster_config, rule};
use sdvm_cdag::generators;
use sdvm_sim::{Simulation, TaskCostModel};

pub fn run() {
    println!("E3: makespan vs processing slots (paper: ~5 is a good value)");
    println!("workload: 4 sites, tasks with 4 blocking remote reads each");
    rule(60);
    println!("{:>6} {:>12} {:>12}", "slots", "makespan", "vs slots=5");
    rule(60);
    // Tasks: 10 ms CPU in 5 segments, separated by 4 × 10 ms blocking
    // remote reads — i.e. ~80% of a task's life is waiting.
    let g = generators::iterative_fork_join(8, 24, 10_000);
    let mut results = Vec::new();
    for slots in [1usize, 2, 3, 4, 5, 6, 8, 10, 12, 16] {
        let mut cfg = cluster_config(4);
        cfg.slots = slots;
        cfg.cost = TaskCostModel {
            remote_reads: 4,
            read_latency: 1e-2,
            msg_overhead: cfg.cost.msg_overhead,
            ..TaskCostModel::default()
        };
        let m = Simulation::new(cfg, g.clone()).run();
        results.push((slots, m.makespan));
    }
    let at5 = results
        .iter()
        .find(|(s, _)| *s == 5)
        .map(|(_, t)| *t)
        .expect("slots=5 in sweep");
    for (slots, t) in results {
        println!("{:>6} {:>11.3}s {:>11.2}x", slots, t, t / at5);
    }
    rule(60);
    println!("expected shape: steep improvement to ~5 slots, flat beyond");
}
