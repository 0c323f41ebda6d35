//! F4 — a figure generator: an ASCII Gantt chart of a simulated SDVM run —
//! the execution cycle of Fig. 4 made visible as per-site activity over
//! virtual time, including the idle-steal ramp-up at the start and the
//! window-limited pipeline shape of the primes workload.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- f4 [sites] [width]
//! ```

use sdvm_bench::{cluster_config, primes_graph};
use sdvm_sim::Simulation;

const COLS: usize = 96;

/// Draw the chart for primes p=60 at `width` on `sites` sites.
pub fn run(sites: usize, width: usize) {
    let g = primes_graph(60, width);
    let mut cfg = cluster_config(sites);
    cfg.record_timeline = true;
    let test_nodes: Vec<bool> = g.node_ids().map(|n| g.node(n).thread_index == 0).collect();
    let m = Simulation::new(cfg, g).run();

    println!(
        "timeline: primes p=60 width={width} on {sites} sites — makespan {:.2}s (virtual)",
        m.makespan
    );
    println!(
        "each column ≈ {:.0} ms;  █ = testing a candidate, ▒ = collect/bookkeeping",
        m.makespan / COLS as f64 * 1e3
    );
    println!();
    for (i, lanes) in m.timeline.iter().enumerate() {
        let mut row = vec![' '; COLS];
        for &(start, end, node) in lanes {
            let a = ((start / m.makespan) * COLS as f64) as usize;
            let b = (((end / m.makespan) * COLS as f64) as usize).min(COLS - 1);
            let glyph = if test_nodes[node] { '█' } else { '▒' };
            for cell in row.iter_mut().take(b + 1).skip(a) {
                // Tests dominate visually; don't let bookkeeping overdraw.
                if *cell != '█' {
                    *cell = glyph;
                }
            }
        }
        let line: String = row.into_iter().collect();
        println!(
            "site{:<2} │{line}│ {:>5.1}% busy",
            i + 1,
            m.busy[i] / m.makespan * 100.0
        );
    }
    println!();
    println!(
        "tasks per site: {:?};  help requests: {} ({} granted)",
        m.executed_per_site, m.help_requests, m.help_granted
    );
}
