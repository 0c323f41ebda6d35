//! E8 — the three site-id allocation concepts (paper §4, cluster
//! manager): a central contact site ("obviously leads to a central point
//! of failure"), id contingents distributed to several servers, and a
//! fixed number of modulo servers.
//!
//! Real runtime: joins a burst of sites under each strategy, measures
//! join latency, then removes the *first* site and tries to join again —
//! demonstrating the central strategy's point of failure and the
//! distributed strategies' survival.
//!
//! Check: ids are unique under every concept, the central concept refuses
//! the join after site 1 crashes, and the other two accept it. A
//! violation exits non-zero.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e8
//! ```

use sdvm_bench::rule;
use sdvm_core::{InProcessCluster, SiteConfig};
use sdvm_types::IdAllocStrategy;
use std::time::Instant;

pub fn run() {
    let mut violations = Vec::new();
    println!("E8: site-id allocation strategies (real runtime, in-process cluster)");
    rule(76);
    println!(
        "{:>18} {:>8} {:>14} {:>12} {:>18}",
        "strategy", "joins", "total join", "ids unique", "join after s1 gone"
    );
    rule(76);
    for strategy in [
        IdAllocStrategy::CentralServer,
        IdAllocStrategy::Contingents,
        IdAllocStrategy::Modulo { servers: 3 },
    ] {
        let mut cfg = SiteConfig::default();
        cfg.id_alloc = strategy;
        let mut cluster = InProcessCluster::new(1, cfg.clone()).expect("cluster");
        let joins = 9usize;
        let t0 = Instant::now();
        for _ in 0..joins {
            cluster.add_site(cfg.clone()).expect("join");
        }
        let join_time = t0.elapsed().as_secs_f64();
        let mut ids: Vec<u32> = (0..cluster.len()).map(|i| cluster.site(i).id().0).collect();
        ids.sort_unstable();
        let unique = {
            let mut v = ids.clone();
            v.dedup();
            v.len() == ids.len()
        };
        // Kill the first site (the central id server under the central
        // strategy) and try to join through site 1.
        cluster.crash(0);
        let contact = cluster.site(1).addr();
        let after = cluster.add_site_via(cfg.clone(), &contact);
        let refused_expected = strategy == IdAllocStrategy::CentralServer;
        if !unique {
            violations.push(format!("{strategy}: duplicate ids {ids:?}"));
        }
        if after.is_err() != refused_expected {
            violations.push(format!(
                "{strategy}: join after s1 crashed {}, expected {}",
                if after.is_err() {
                    "refused"
                } else {
                    "accepted"
                },
                if refused_expected {
                    "refused"
                } else {
                    "accepted"
                },
            ));
        }
        let verdict = match after {
            Ok(_) => "OK (cluster survives)",
            Err(_) => "REFUSED (central point of failure)",
        };
        println!(
            "{:>18} {:>8} {:>13.3}s {:>12} {:>24}",
            strategy.to_string(),
            joins,
            join_time,
            unique,
            verdict
        );
    }
    rule(76);
    println!("paper: the central concept \"obviously leads to a central point of failure\";");
    println!("contingents and modulo servers keep accepting new sites.");
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("E8 check failed: {v}");
        }
        std::process::exit(1);
    }
}
