//! E12 (extension) — the paper's SoC / organic-computing proposal
//! (§2.2): "If sufficient performance is available and a fast execution
//! is needed, all sites on a chip get activated. If the system's power
//! supply is low or sites are out of work, some sites are switched to a
//! sleep state" — the system "autonomously adapt\[s\] to changing
//! environmental conditions".
//!
//! Simulated: an 8-core SDVM-on-SoC running a bursty workload, sweeping
//! the sleep-after threshold. Reported: makespan (performance) vs energy
//! (consumption) — the self-adaptation trade-off.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e12
//! ```

use sdvm_bench::rule;
use sdvm_cdag::Cdag;
use sdvm_sim::{NetworkModel, PowerModel, SimConfig, Simulation};

/// Bursty workload: serial stretches punctuated by wide parallel phases
/// (an interactive device: mostly idle, occasionally hot).
fn bursty() -> Cdag {
    let mut g = Cdag::new();
    let mut prev = g.add_node("start", 0, 50_000);
    for burst in 0..6 {
        // Quiet serial stretch.
        for i in 0..4 {
            let n = g.add_node(format!("serial{burst}.{i}"), 0, 100_000);
            g.add_edge(prev, n, 0, 8).expect("edge");
            prev = n;
        }
        // Hot parallel burst.
        let join = g.add_node(format!("join{burst}"), 1, 10_000);
        for i in 0..24 {
            let w = g.add_node(format!("burst{burst}.{i}"), 2, 150_000);
            g.add_edge(prev, w, 0, 8).expect("edge");
            g.add_edge(w, join, i, 8).expect("edge");
        }
        prev = join;
    }
    g
}

fn config(cores: usize, sleep_after: Option<f64>) -> SimConfig {
    let mut cfg = SimConfig::homogeneous(cores);
    // On-chip interconnect: microseconds, not LAN milliseconds.
    cfg.net = NetworkModel {
        latency: 2e-6,
        bandwidth: 1e9,
    };
    cfg.cost.msg_overhead = 2e-6;
    for s in &mut cfg.sites {
        s.power = sleep_after.map(|after| PowerModel {
            sleep_after: after,
            ..PowerModel::embedded()
        });
    }
    cfg
}

pub fn run() {
    println!("E12 (extension): SDVM-on-SoC — sleep states vs performance (§2.2)");
    println!("workload: bursty (serial stretches + 24-wide bursts), 8 cores");
    rule(78);
    println!(
        "{:>18} {:>12} {:>12} {:>12} {:>14}",
        "sleep-after", "makespan", "energy (J)", "avg slept", "vs always-on"
    );
    rule(78);
    let g = bursty();
    // Baseline: power-modelled but never sleeping (idle burn).
    let base = Simulation::new(config(8, Some(f64::INFINITY)), g.clone()).run();
    println!(
        "{:>18} {:>11.3}s {:>12.3} {:>11.1}% {:>13.1}%",
        "never (always-on)",
        base.makespan,
        base.total_energy(),
        0.0,
        0.0,
    );
    for sleep_after in [50e-3f64, 10e-3, 2e-3, 0.5e-3] {
        let m = Simulation::new(config(8, Some(sleep_after)), g.clone()).run();
        let slept_frac = m.slept.iter().sum::<f64>() / (8.0 * m.makespan.max(1e-12)) * 100.0;
        println!(
            "{:>16.1}ms {:>11.3}s {:>12.3} {:>11.1}% {:>13.1}%",
            sleep_after * 1e3,
            m.makespan,
            m.total_energy(),
            slept_frac,
            (m.total_energy() / base.total_energy() - 1.0) * 100.0,
        );
    }
    rule(78);
    println!("expected shape: aggressive sleeping cuts energy hard (idle cores draw");
    println!("30x sleep power) at a small makespan cost from wake latencies — the");
    println!("autonomous adaptation the paper attributes to organic computing.");

    // Second axis: dark-silicon style — fewer active cores vs energy.
    println!();
    println!("cores powered (sleep-after 2ms):");
    for cores in [2usize, 4, 8, 16] {
        let m = Simulation::new(config(cores, Some(2e-3)), bursty()).run();
        println!(
            "  {cores:>2} cores: makespan {:>7.3}s  energy {:>8.3} J",
            m.makespan,
            m.total_energy()
        );
    }
}
