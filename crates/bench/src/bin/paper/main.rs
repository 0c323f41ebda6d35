//! The paper's evaluation, one subcommand per experiment: Table 1 and
//! the design claims of §3–§5, indexed as E1–E14, E7b and F4 in
//! DESIGN.md §3. Each module's doc comment quotes the paper and states
//! the expected shape; EXPERIMENTS.md records paper against measured.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e1     # one experiment
//! cargo run --release -p sdvm-bench --bin paper -- f4 8 20  # Gantt: sites, width
//! cargo run --release -p sdvm-bench --bin paper -- sim    # every simulated one
//! ```

#![allow(clippy::field_reassign_with_default)] // config structs are built by mutation by design

mod attraction_memory;
mod backup_overhead;
mod code_distribution;
mod crash_recovery;
mod crypto_overhead;
mod dynamic_cluster;
mod heterogeneous;
mod idalloc_compare;
mod overhead;
mod policy_ablation;
mod power_soc;
mod slots_sweep;
mod table1;
mod timeline;
mod transport_faults;
mod volunteer_computing;

/// The purely simulated experiments, in the order `paper sim` runs them.
const SIMULATED: [(&str, fn()); 8] = [
    ("e1", table1::run),
    ("e3", slots_sweep::run),
    ("e4", policy_ablation::run),
    ("e6", dynamic_cluster::run),
    ("e9", heterogeneous::run),
    ("e12", power_soc::run),
    ("e13", volunteer_computing::run),
    ("f4", || timeline::run(4, 10)),
];

/// The experiments that run the real runtime (E7 and E10 add a
/// simulated sweep to it).
const RUNTIME: [(&str, fn()); 8] = [
    ("e2", overhead::run),
    ("e5", crypto_overhead::run),
    ("e7", crash_recovery::run),
    ("e7b", backup_overhead::run),
    ("e8", idalloc_compare::run),
    ("e10", code_distribution::run),
    ("e11", transport_faults::run),
    ("e14", attraction_memory::run),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg =
        |i: usize, default: usize| args.get(i).and_then(|a| a.parse().ok()).unwrap_or(default);
    match args.first().map(String::as_str) {
        Some("sim") => SIMULATED.iter().for_each(|(_, run)| run()),
        Some("f4") => timeline::run(arg(1, 4), arg(2, 10)),
        Some(cmd) => match SIMULATED
            .iter()
            .chain(&RUNTIME)
            .find(|(name, _)| *name == cmd)
        {
            Some((_, run)) => run(),
            None => usage(),
        },
        None => usage(),
    }
}

fn usage() {
    let names: Vec<&str> = SIMULATED.iter().chain(&RUNTIME).map(|(n, _)| *n).collect();
    eprintln!(
        "usage: paper <sim | {}> (f4 takes [sites] [width])",
        names.join(" | ")
    );
    std::process::exit(2);
}
