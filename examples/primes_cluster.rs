//! The paper's evaluation application (§5): parallel prime search on a
//! real (in-process) SDVM cluster, with the work distribution shown per
//! site afterwards.
//!
//! ```text
//! cargo run --release --example primes_cluster [p] [width] [sites]
//! ```

use sdvm::apps::primes::{nth_prime, PrimesProgram};
use sdvm::core::{InProcessCluster, SiteConfig, TraceEvent, TraceLog};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let p: u64 = args.next().map(|a| a.parse()).transpose()?.unwrap_or(100);
    let width: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(10);
    let sites: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(4);

    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![SiteConfig::default(); sites], Some(trace.clone()))?;

    // sleep_us gives each candidate test measurable duration while
    // yielding the CPU, so the whole cluster's threads stay schedulable
    // on small machines.
    let prog = PrimesProgram {
        p,
        width,
        spin: 0,
        sleep_us: 2_000,
    };
    let t0 = Instant::now();
    let handle = prog.launch(cluster.site(0))?;
    let result = handle.wait(Duration::from_secs(600))?;
    let elapsed = t0.elapsed();

    println!(
        "the {p}-th prime is {} (found in {elapsed:?})",
        result.as_u64()?
    );
    assert_eq!(result.as_u64()?, nth_prime(p));

    // Where did the microthreads actually run?
    let mut per_site = std::collections::BTreeMap::new();
    for b in trace.timestamped() {
        if let TraceEvent::FrameExecuted { .. } = b.event {
            *per_site.entry(b.site).or_insert(0u64) += 1;
        }
    }
    println!("microthreads executed per site:");
    for (site, count) in per_site {
        println!("  {site}: {count}");
    }
    let grants = trace
        .filter(|e| matches!(e, TraceEvent::HelpGranted { .. }))
        .len();
    let denials = trace
        .filter(|e| matches!(e, TraceEvent::HelpDenied { .. }))
        .len();
    println!("help requests granted: {grants}, denied: {denials}");
    Ok(())
}
