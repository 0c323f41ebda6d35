//! E-scale — validate the scale-out transport plane at 1000 sites.
//!
//! Three questions, answered headless in the discrete-event simulator
//! (1000 real sockets-and-threads sites do not fit one CI box; the
//! simulator runs the runtime's own queue order, help-target choice and
//! Vivaldi update from `sdvm-types`, and models its driver capacity —
//! DESIGN.md §9):
//!
//! 1. **Table-1 shape survives the event-driven driver.** With the
//!    poller-capacity model switched on (4 modelled drivers per site,
//!    a fixed per-message service time), small clusters must still show
//!    the paper's near-linear speedup at 2/4/8 sites.
//! 2. **Speedup keeps rising to 1000 sites, sublinearly.** A wide
//!    fork/join (8000 independent tasks) on 250/500/1000 sites must
//!    give monotonically rising, sublinear speedup — the paper's
//!    Table-1 shape extrapolated two orders of magnitude, limited by
//!    one-frame-per-grant distribution and driver serialization.
//! 3. **Proximity routing beats uniform at scale.** On a clustered
//!    topology (10 islands of 100 sites on a 20 ms-radius circle,
//!    0–3 ms intra-island spread), Vivaldi-ranked help targeting must
//!    deliver a measurably lower median help RTT than uniform
//!    selection, with everything else identical.
//!
//! Writes `BENCH_scale.json`; the final asserts make this binary the
//! CI gate (`scale_sim` job).
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin scale_sim
//! ```

use sdvm_bench::rule;
use sdvm_cdag::generators::{fork_join, iterative_fork_join};
use sdvm_sim::{SimConfig, SimMetrics, SimSite, Simulation};

/// Driver occupancy per handled message (s): a poller moving one
/// coalesced write plus dispatch, tens of microseconds on 2005-era
/// hardware. Divided by `net_drivers` to get effective service time.
const DRIVER_SERVICE: f64 = 4.0e-5;

/// Modelled pollers per site — matches the runtime's
/// `TcpTransport::DEFAULT_POLLERS`.
const NET_DRIVERS: usize = 4;

/// Per-worker cost of the wide fork/join (work units; 0.1 s at speed 1).
const WORKER_COST: u64 = 100_000;

fn capacity_cfg(n: usize) -> SimConfig {
    let mut cfg = SimConfig::homogeneous(n);
    cfg.net_drivers = NET_DRIVERS;
    cfg.driver_service = DRIVER_SERVICE;
    cfg
}

fn run(cfg: SimConfig, graph: sdvm_cdag::Cdag) -> SimMetrics {
    Simulation::new(cfg, graph).run()
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v[v.len() / 2]
}

/// 10 islands of `per_island` sites each: islands sit on a 20 ms-radius
/// circle in the x/y latency plane (island gaps ≈ 12–40 ms); members
/// spread 0–3 ms along z so intra-island RTTs are non-degenerate —
/// Vivaldi's *relative* fit error cannot converge when every near pair
/// measures the identical RTT.
fn island_sites(islands: usize, per_island: usize) -> Vec<SimSite> {
    let mut sites = Vec::with_capacity(islands * per_island);
    for k in 0..islands {
        let theta = 2.0 * std::f64::consts::PI * k as f64 / islands as f64;
        let (x, y) = (0.020 * theta.cos(), 0.020 * theta.sin());
        for m in 0..per_island {
            sites.push(SimSite::at((x, y, m as f64 * 5.0e-5)));
        }
    }
    sites
}

fn main() {
    let mut json = String::from("{\n  \"bench\": \"scale_sim\",\n");
    let mut pass = true;

    // ---- 1. Table-1 shape with the driver-capacity model on --------
    println!("scale_sim: event-driven transport plane at scale (simulated, virtual time)");
    rule(72);
    println!("Table-1 shape, driver capacity modelled ({NET_DRIVERS} pollers/site)");
    println!(
        "{:>6} {:>12} {:>9} {:>11}",
        "sites", "makespan", "speedup", "efficiency"
    );
    let small_graph = fork_join(0, 512, WORKER_COST, 100);
    let t1 = run(capacity_cfg(1), small_graph.clone()).makespan;
    json.push_str("  \"table1_shape\": [\n");
    let mut small_rows = Vec::new();
    for &n in &[1usize, 2, 4, 8] {
        let m = run(capacity_cfg(n), small_graph.clone());
        let s = t1 / m.makespan;
        let eff = s / n as f64;
        println!(
            "{:>6} {:>11.2}s {:>9.2} {:>10.1}%",
            n,
            m.makespan,
            s,
            eff * 100.0
        );
        small_rows.push((n, s));
        json.push_str(&format!(
            "    {{\"sites\": {}, \"makespan_s\": {:.4}, \"speedup\": {:.3}, \"efficiency\": {:.3}}}{}\n",
            n,
            m.makespan,
            s,
            eff,
            if n == 8 { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    let s2 = small_rows[1].1;
    let s4 = small_rows[2].1;
    let s8 = small_rows[3].1;
    // Paper Table 1: ≈1.9–2.0 at 2 sites (implied), 3.4–3.6 at 4,
    // 6.4–7.0 at 8. Gate on the shape with slack for the driver model.
    let shape_ok = s2 > 1.7 && s4 > 3.0 && s8 > 5.5 && s8 < 8.01;
    println!("  shape gate (s2>1.7, s4>3.0, 5.5<s8<8.01): {shape_ok}");
    pass &= shape_ok;

    // ---- 2. Scale-out: 250 / 500 / 1000 sites ----------------------
    rule(72);
    println!("scale-out, 8000-task fork/join, drivers modelled");
    println!(
        "{:>6} {:>12} {:>9} {:>14}",
        "sites", "makespan", "speedup", "drv queue (s)"
    );
    let wide_graph = fork_join(0, 8000, WORKER_COST, 100);
    let t1_wide = run(capacity_cfg(1), wide_graph.clone()).makespan;
    json.push_str("  \"scale\": [\n");
    let mut scale_rows = Vec::new();
    for &n in &[250usize, 500, 1000] {
        let m = run(capacity_cfg(n), wide_graph.clone());
        let s = t1_wide / m.makespan;
        println!(
            "{:>6} {:>11.3}s {:>9.1} {:>14.4}",
            n, m.makespan, s, m.driver_queueing
        );
        scale_rows.push((n, s, m.driver_queueing));
        json.push_str(&format!(
            "    {{\"sites\": {}, \"makespan_s\": {:.4}, \"speedup\": {:.2}, \"driver_queueing_s\": {:.4}}}{}\n",
            n,
            m.makespan,
            s,
            m.driver_queueing,
            if n == 1000 { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    let (s250, s500, s1000) = (scale_rows[0].1, scale_rows[1].1, scale_rows[2].1);
    let monotone = s250 < s500 && s500 < s1000;
    let sublinear = s1000 < 1000.0 && s500 < 500.0 && s250 < 250.0;
    let useful = s1000 > 100.0;
    println!("  scale gate (monotone {monotone}, sublinear {sublinear}, s1000>100 {useful})");
    pass &= monotone && sublinear && useful;

    // Fewer pollers must mean more queueing at 1000 sites (the
    // capacity limit the fixed pool trades against thread count).
    let mut one_driver = capacity_cfg(1000);
    one_driver.net_drivers = 1;
    let m1d = run(one_driver, wide_graph.clone());
    let q4 = scale_rows[2].2;
    let q1 = m1d.driver_queueing;
    let capacity_ok = q1 > q4;
    println!("  driver capacity: queueing 1 poller {q1:.4}s vs {NET_DRIVERS} pollers {q4:.4}s → {capacity_ok}");
    json.push_str(&format!(
        "  \"driver_capacity\": {{\"queueing_1_poller_s\": {q1:.4}, \"queueing_{NET_DRIVERS}_pollers_s\": {q4:.4}}},\n"
    ));
    pass &= capacity_ok;

    // ---- 3. Proximity vs uniform help routing at 1000 sites --------
    rule(72);
    println!("proximity routing, 10 islands x 100 sites, iterative fork/join");
    // Width below the site count: most sites are idle each round, so
    // help targeting is dominated by the rotate-fallback path — the one
    // proximity routing changes. (With width >= sites, nearly every
    // request chases the known-busiest site and routing is moot.)
    // Driver capacity stays off here: queueing delay at the saturated
    // fork site inflates measured help RTTs with load-dependent noise
    // that stalls Vivaldi's relative fit error (the runtime filters the
    // same way by learning from lightweight probe/heartbeat RTTs, not
    // from data-plane transfer times). Part 2 covers the capacity model.
    let prox_graph = iterative_fork_join(80, 600, 50_000);
    let mut medians = Vec::new();
    for &prox in &[false, true] {
        let mut cfg = SimConfig {
            sites: island_sites(10, 100),
            proximity_routing: prox,
            net_drivers: NET_DRIVERS,
            driver_service: 0.0,
            ..SimConfig::default()
        };
        cfg.help_backoff = 1e-3;
        let m = run(cfg, prox_graph.clone());
        // Steady-state median: the last quarter of samples, after the
        // Vivaldi warm-up (coordinates need a few hundred observations
        // each at this scale before the convergence gate opens — until
        // then proximity routing deliberately falls back to uniform).
        let tail: Vec<f64> = m.help_rtt[m.help_rtt.len() * 3 / 4..].to_vec();
        let steady = median(tail);
        println!(
            "  {:<9} median help RTT {:>8.3} ms whole-run, {:>8.3} ms steady-state  ({} samples, makespan {:.2}s)",
            if prox { "proximity" } else { "uniform" },
            m.help_rtt_median() * 1e3,
            steady * 1e3,
            m.help_rtt.len(),
            m.makespan
        );
        medians.push((m.help_rtt_median(), steady, m.help_rtt.len()));
    }
    let (uni_med, uni_steady, uni_n) = medians[0];
    let (prox_med, prox_steady, prox_n) = medians[1];
    let enough_samples = uni_n > 1000 && prox_n > 1000;
    let ratio = if uni_steady > 0.0 {
        prox_steady / uni_steady
    } else {
        1.0
    };
    let prox_ok = ratio < 0.5 && enough_samples;
    println!("  proximity gate (steady-state median <0.5x uniform, >1000 samples each): {prox_ok} (ratio {ratio:.2})");
    json.push_str(&format!(
        "  \"proximity\": {{\"uniform_median_ms\": {:.4}, \"proximity_median_ms\": {:.4}, \
         \"uniform_steady_ms\": {:.4}, \"proximity_steady_ms\": {:.4}, \"steady_ratio\": {:.3}, \
         \"uniform_samples\": {}, \"proximity_samples\": {}}},\n",
        uni_med * 1e3,
        prox_med * 1e3,
        uni_steady * 1e3,
        prox_steady * 1e3,
        ratio,
        uni_n,
        prox_n
    ));
    pass &= prox_ok;

    json.push_str(&format!("  \"pass\": {pass}\n}}\n"));
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    rule(72);
    println!("wrote BENCH_scale.json (pass={pass})");
    assert!(
        pass,
        "scale gate failed: table1 shape {shape_ok}, monotone {monotone}, sublinear {sublinear}, \
         s1000>100 {useful}, capacity {capacity_ok}, proximity {prox_ok}"
    );
}
