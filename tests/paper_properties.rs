//! The paper's headline quantitative claims, asserted as properties of
//! this reproduction (fast versions of the experiment binaries; see
//! EXPERIMENTS.md for the full numbers).

use sdvm::cdag::generators;
use sdvm::sim::{Simulation, TaskCostModel};
use sdvm_bench::{cluster_config as cfg, primes_graph, MSG_OVERHEAD};

fn primes_makespan(p: u64, width: usize, sites: usize) -> f64 {
    Simulation::new(cfg(sites), primes_graph(p, width))
        .run()
        .makespan
}

#[test]
fn table1_single_site_times_match_paper_within_15_percent() {
    // Paper, width 10: 33.9 / 71.9 / 207.0 / 455.9 seconds.
    for (p, expect) in [(100u64, 33.9f64), (200, 71.9), (500, 207.0)] {
        let t = primes_makespan(p, 10, 1);
        let err = (t - expect).abs() / expect;
        assert!(
            err < 0.15,
            "p={p}: {t:.1}s vs paper {expect}s ({:.0}% off)",
            err * 100.0
        );
    }
}

#[test]
fn table1_speedup_bands() {
    // Paper: 3.4–3.6 at 4 sites, 6.4–7.0 at 8 sites. Allow a ±0.4 band
    // around the paper's range — the substrate is a simulator.
    let t1 = primes_makespan(200, 10, 1);
    let s4 = t1 / primes_makespan(200, 10, 4);
    let s8 = t1 / primes_makespan(200, 10, 8);
    assert!(
        (3.0..=4.0).contains(&s4),
        "4-site speedup {s4:.2} outside band"
    );
    assert!(
        (6.0..=7.4).contains(&s8),
        "8-site speedup {s8:.2} outside band"
    );
    assert!(s8 > s4, "more sites must help");
}

#[test]
fn speedup_rises_with_p() {
    // Paper: speedup grows slightly with p (startup amortizes).
    let s = |p: u64| primes_makespan(p, 10, 8);
    let s100 = primes_makespan(100, 10, 1) / s(100);
    let s1000 = primes_makespan(1000, 10, 1) / s(1000);
    assert!(
        s1000 >= s100 - 0.15,
        "speedup should not degrade with p: p=100 → {s100:.2}, p=1000 → {s1000:.2}"
    );
}

#[test]
fn five_slots_beat_one_on_latency_bound_work() {
    // §4: "about 5 microthreads run in (virtual) parallel produce good
    // results" — with blocking remote reads, 5 slots must clearly beat 1
    // and be within noise of 8.
    let g = generators::iterative_fork_join(6, 24, 10_000);
    let run = |slots: usize| {
        let mut c = cfg(4);
        c.slots = slots;
        c.cost = TaskCostModel {
            remote_reads: 4,
            read_latency: 1e-2,
            msg_overhead: MSG_OVERHEAD,
            ..TaskCostModel::default()
        };
        Simulation::new(c, g.clone()).run().makespan
    };
    let (t1, t5, t8) = (run(1), run(5), run(8));
    assert!(
        t5 < t1 * 0.75,
        "5 slots ({t5:.3}) must clearly beat 1 ({t1:.3})"
    );
    assert!(
        t8 > t5 * 0.85,
        "beyond ~5 slots the gain flattens ({t5:.3} vs {t8:.3})"
    );
}

#[test]
fn work_share_tracks_speed_share() {
    // §3.5: slower sites are relieved, faster sites get more work.
    use sdvm::sim::SimSite;
    let g = primes_graph(100, 20);
    let mut c = cfg(3);
    c.sites = vec![
        SimSite::with_speed(4.0),
        SimSite::with_speed(1.0),
        SimSite::with_speed(1.0),
    ];
    let m = Simulation::new(c, g).run();
    let total: u64 = m.executed_per_site.iter().sum();
    let fast_share = m.executed_per_site[0] as f64 / total as f64;
    assert!(
        fast_share > 0.45,
        "the 4x site (66% of total speed) must take the lion's share, got {:.0}%",
        fast_share * 100.0
    );
}

#[test]
fn growing_the_cluster_mid_run_helps() {
    // §3.4: resources added at runtime speed the running application up.
    use sdvm::sim::SimSite;
    let g = primes_graph(200, 20);
    let t2 = Simulation::new(cfg(2), g.clone()).run().makespan;
    let mut grown = cfg(4);
    grown.sites[2] = SimSite {
        join_at: t2 * 0.2,
        ..SimSite::reference()
    };
    grown.sites[3] = SimSite {
        join_at: t2 * 0.2,
        ..SimSite::reference()
    };
    let tg = Simulation::new(grown, g.clone()).run().makespan;
    let t4 = Simulation::new(cfg(4), g).run().makespan;
    assert!(
        tg < t2 * 0.85,
        "joiners must speed things up: {tg:.1} vs static-2 {t2:.1}"
    );
    assert!(
        tg > t4 * 0.95,
        "but not beat a cluster that was large from the start"
    );
}
