//! E6 — dynamic entry and exit at runtime (paper §3.4): "If sites join
//! or leave the cluster, the running application is transparently
//! redistributed on the newly structured cluster."
//!
//! Simulated: the prime search on 4 founding sites, with 4 more sites
//! joining mid-run (growth), 2 of 8 leaving mid-run (shrink), compared
//! to static 4- and 8-site clusters. A late joiner should push the
//! makespan toward the static-8 figure; an orderly leaver should cost
//! little beyond the lost capacity.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e6
//! ```

use sdvm_bench::{cluster_config, primes_graph, rule, simulate};
use sdvm_sim::SimSite;

pub fn run() {
    println!("E6: dynamic entry/exit at runtime (simulated, primes p=500 width=20)");
    rule(72);
    let g = primes_graph(500, 20);
    let t4 = simulate(cluster_config(4), g.clone()).makespan;
    let t8 = simulate(cluster_config(8), g.clone()).makespan;

    // Growth: 4 founders + 4 joining at 25% of the static-4 makespan.
    let mut grow = cluster_config(8);
    for i in 4..8 {
        grow.sites[i] = SimSite {
            join_at: t4 * 0.25,
            ..SimSite::reference()
        };
    }
    let tg = simulate(grow, g.clone());

    // Shrink: 8 founders, 2 leave orderly at 25% of the static-8 makespan.
    let mut shrink = cluster_config(8);
    shrink.sites[6].leave_at = Some(t8 * 0.25);
    shrink.sites[7].leave_at = Some(t8 * 0.25);
    let ts = simulate(shrink, g.clone());

    // Churn: one joins, one leaves, one crashes.
    let mut churn = cluster_config(6);
    churn.sites[4] = SimSite {
        join_at: t4 * 0.2,
        ..SimSite::reference()
    };
    churn.sites[5].leave_at = Some(t4 * 0.5);
    churn.sites[3].crash_at = Some(t4 * 0.35);
    let tc = simulate(churn, g.clone());

    println!("static 4 sites                        : {t4:>8.1}s");
    println!("static 8 sites                        : {t8:>8.1}s");
    println!(
        "4 sites + 4 join at 25%               : {:>8.1}s (between static 4 and 8)",
        tg.makespan
    );
    println!(
        "8 sites, 2 leave orderly at 25%       : {:>8.1}s (all work preserved: {} tasks)",
        ts.makespan, ts.tasks_executed
    );
    println!(
        "6 sites: 1 joins, 1 leaves, 1 crashes : {:>8.1}s ({} re-executions)",
        tc.makespan, tc.reexecutions
    );
    rule(72);
    assert!(
        tg.makespan < t4 && tg.makespan > t8 * 0.95,
        "growth lands between static sizes"
    );
    println!("the application finished correctly under every membership change");
}
