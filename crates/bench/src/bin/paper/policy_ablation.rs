//! E4 — scheduling-policy ablation (paper §3.3/§4): the SDVM uses FIFO
//! for local scheduling ("to avoid starving of microframes") and LIFO
//! for answering help requests ("to hide the communication latencies"),
//! and leaves the policy space as "room for more research". This
//! experiment walks that space, including the CDAG-priority policy fed
//! by scheduling hints (§3.3).
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e4
//! ```

use sdvm_bench::{cluster_config, primes_graph, rule};
use sdvm_cdag::generators;
use sdvm_sim::Simulation;
use sdvm_types::QueuePolicy;

const POLICIES: [QueuePolicy; 3] = [QueuePolicy::Fifo, QueuePolicy::Lifo, QueuePolicy::Priority];

fn run_case(name: &str, graph: sdvm_cdag::Cdag, sites: usize) {
    println!("workload: {name} on {sites} sites");
    rule(66);
    println!(
        "{:>10} {:>10} {:>12} {:>10} {:>10}",
        "local", "help", "makespan", "migrations", "help-req"
    );
    rule(66);
    let mut best: Option<(f64, QueuePolicy, QueuePolicy)> = None;
    for local in POLICIES {
        for help in POLICIES {
            let mut cfg = cluster_config(sites);
            cfg.local_policy = local;
            cfg.help_policy = help;
            let m = Simulation::new(cfg, graph.clone()).run();
            println!(
                "{:>10} {:>10} {:>11.3}s {:>10} {:>10}",
                local.to_string(),
                help.to_string(),
                m.makespan,
                m.migrations,
                m.help_requests
            );
            if best.map(|(t, _, _)| m.makespan < t).unwrap_or(true) {
                best = Some((m.makespan, local, help));
            }
        }
    }
    if let Some((t, l, h)) = best {
        println!("best: local={l} help={h} ({t:.3}s)");
    }
    rule(66);
}

pub fn run() {
    println!("E4: queue-policy ablation (paper default: local=fifo, help=lifo)");
    println!();
    run_case("primes p=200 width=10", primes_graph(200, 10), 4);
    println!();
    run_case(
        "layered random DAG (12 layers × 32)",
        generators::layered_random(12, 32, 42),
        4,
    );
    println!();
    run_case("wavefront 24×24", generators::wavefront(24, 40_000), 4);
}
