//! E1 — reproduce **Table 1** of the paper: "Exemplary speedup of the
//! SDVM": the parallel prime search for p ∈ {100, 200, 500, 1000},
//! width ∈ {10, 20}, on clusters of 1, 4 and 8 identical sites.
//!
//! The cluster is simulated (virtual time) with the calibrated cost
//! model of `sdvm-bench` — see DESIGN.md §1 for why this substitution
//! preserves the result shape. Expected shape (paper): speedups around
//! 3.4–3.6 on 4 sites and 6.4–7.0 on 8 sites, rising slightly with `p`
//! and with width 20 over width 10 at 8 sites.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e1
//! ```

use sdvm_bench::{cluster_config, primes_graph, rule, secs, simulate, speedup};

pub fn run() {
    println!("Table 1: Exemplary speedup of the SDVM (simulated cluster, virtual time)");
    println!("workload: first p primes, width candidates tested in parallel per round");
    rule(78);
    println!(
        "{:>5} {:>6} {:>10} {:>16} {:>16}",
        "p", "width", "1 site", "4 sites (Speedup)", "8 sites (Speedup)"
    );
    rule(78);
    for &width in &[10usize, 20] {
        for &p in &[100u64, 200, 500, 1000] {
            let g = primes_graph(p, width);
            let t1 = simulate(cluster_config(1), g.clone()).makespan;
            let t4 = simulate(cluster_config(4), g.clone()).makespan;
            let t8 = simulate(cluster_config(8), g).makespan;
            println!(
                "{:>5} {:>6} {:>10} {:>10} {:>5} {:>10} {:>5}",
                p,
                width,
                secs(t1),
                secs(t4),
                speedup(t1, t4),
                secs(t8),
                speedup(t1, t8),
            );
        }
    }
    rule(78);
    println!("paper (Pentium-IV LAN): 3.4–3.6 at 4 sites, 6.4–7.0 at 8 sites");
}
