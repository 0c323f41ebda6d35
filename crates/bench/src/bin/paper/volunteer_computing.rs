//! E13 (extension) — the paper's public-resource-computing proposal
//! (§2.2): "The SDVM is run on a core of reliable sites [...] and unsafe
//! sites. If an unsafe site crashes, the crash may be intercepted [...]
//! This would enhance the usability of public resource computing, as it
//! eliminates the need to run only easily scalable applications."
//!
//! Simulated: a reliable core plus volunteer sites that join late and
//! crash at random (seeded) times, on a *data-dependent* workload (the
//! primes pipeline — precisely the kind Seti@Home-style systems cannot
//! run). Completion is guaranteed; the cost of volunteer churn is
//! measured.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e13
//! ```

use sdvm_bench::{cluster_config, primes_graph, rule};
use sdvm_sim::{SimSite, Simulation};

pub fn run() {
    println!("E13 (extension): reliable core + crashing volunteers (§2.2)");
    println!("workload: primes p=500 w=20 — data-dependent, not Seti@Home-partitionable");
    rule(78);
    let g = primes_graph(500, 20);
    let core_only = Simulation::new(cluster_config(2), g.clone()).run();
    println!(
        "reliable core alone (2 sites)          : {:>7.1}s",
        core_only.makespan
    );

    println!(
        "{:>10} {:>12} {:>12} {:>14} {:>12}",
        "volunteers", "churn", "makespan", "vs core-only", "re-executed"
    );
    rule(78);
    for &volunteers in &[2usize, 6, 12] {
        for &churny in &[false, true] {
            let mut cfg = cluster_config(2 + volunteers);
            // Volunteers are slower home machines joining over time.
            let mut rng = 0x9e3779b97f4a7c15u64;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            for v in 0..volunteers {
                let join = (next() % 1000) as f64 / 1000.0 * core_only.makespan * 0.3;
                let crash = if churny {
                    // Every volunteer eventually dies mid-run.
                    Some(join + 2.0 + (next() % 1000) as f64 / 1000.0 * core_only.makespan * 0.4)
                } else {
                    None
                };
                cfg.sites[2 + v] = SimSite {
                    speed: 0.5 + (next() % 100) as f64 / 100.0,
                    join_at: join.max(1e-3),
                    crash_at: crash,
                    ..SimSite::reference()
                };
            }
            let m = Simulation::new(cfg, g.clone()).run();
            println!(
                "{:>10} {:>12} {:>11.1}s {:>13.1}% {:>12}",
                volunteers,
                if churny { "all crash" } else { "none" },
                m.makespan,
                (m.makespan / core_only.makespan - 1.0) * 100.0,
                m.reexecutions
            );
        }
    }
    rule(78);
    println!("expected shape: volunteers speed the run up even though every one of");
    println!("them eventually crashes — their completed work survives, lost frames");
    println!("re-execute on the reliable core. Without SDVM-style recovery, a");
    println!("data-dependent application could not use unreliable machines at all.");
}
