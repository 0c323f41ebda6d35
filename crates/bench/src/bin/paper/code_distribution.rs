//! E10 — code distribution and compile-on-the-fly (paper §4, code
//! manager): binaries are fetched from code distribution sites; a site
//! of a platform nobody compiled for yet receives *source* and compiles
//! it on the fly — "fast enough not to slow the system too much, mainly
//! since microthreads are short code fragments".
//!
//! Simulated: homogeneous vs foreign-platform sites under varying
//! compile costs; plus the real runtime's code-manager counters on a
//! mixed-platform cluster.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e10
//! ```

use sdvm_apps::primes::PrimesProgram;
use sdvm_bench::{cluster_config, primes_graph, rule, simulate};
use sdvm_core::{InProcessCluster, SiteConfig};
use sdvm_types::PlatformId;
use std::time::Duration;

pub fn run() {
    println!("E10: code distribution — binary fetch vs compile on the fly");
    rule(72);
    let g = primes_graph(200, 10);
    let base = simulate(cluster_config(4), g.clone());
    println!(
        "4 same-platform sites : {:>7.1}s  (binary fetches: {}, compiles: {})",
        base.makespan, base.binary_fetches, base.compiles
    );
    for &foreign in &[1usize, 2, 3] {
        for &compile in &[0.05f64, 0.5, 2.0] {
            let mut cfg = cluster_config(4);
            cfg.compile = compile;
            for i in 0..foreign {
                cfg.sites[3 - i].platform = 9;
            }
            let m = simulate(cfg, g.clone());
            println!(
                "{foreign} foreign site(s), compile {compile:>4.2}s : {:>7.1}s  (compiles: {})",
                m.makespan, m.compiles
            );
        }
    }
    rule(72);
    println!("expected shape: compiles are one-off per (microthread, site); even a");
    println!("2 s compile barely moves the makespan of a long run — the paper's");
    println!("\"fast enough\" observation.");
    println!();

    // Real runtime: 1 home-platform + 2 foreign-platform sites.
    let mut cfg_home = SiteConfig::default();
    cfg_home.platform = PlatformId(1);
    let mut cfg_foreign = SiteConfig::default();
    cfg_foreign.platform = PlatformId(2);
    cfg_foreign.compile_latency = Duration::from_millis(10);
    let cluster =
        InProcessCluster::with_configs(vec![cfg_home, cfg_foreign.clone(), cfg_foreign], None)
            .expect("cluster");
    let prog = PrimesProgram {
        p: 60,
        width: 8,
        spin: 0,
        sleep_us: 4_000,
    };
    let handle = prog.launch(cluster.site(0)).expect("launch");
    handle.wait(Duration::from_secs(120)).expect("result");
    println!("real runtime, mixed platforms (1×home + 2×foreign):");
    for i in 0..3 {
        let s = cluster.site(i).inner();
        let stats = s.code.stats();
        println!(
            "  site {}: on-the-fly compiles = {}, remote code fetches = {}",
            cluster.site(i).id(),
            stats.compiles,
            stats.remote_fetches
        );
    }
    rule(72);
}
