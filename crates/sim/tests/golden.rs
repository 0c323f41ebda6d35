//! Bit-exact pins of simulator runs with proximity routing off.
//!
//! Every decision the simulator makes — which site a help request goes
//! to, which queued frame a slot or a help grant takes — shows up in the
//! event count, the per-site execution split, the help/migration counts
//! and the makespan's exact bits. These pins therefore fail on *any*
//! change of scheduling behaviour, however small, while staying blind to
//! how the policies are written. Re-pin only for an intended behaviour
//! change: the failure message prints the new row.

#![allow(clippy::field_reassign_with_default)] // config structs are built by mutation by design

use sdvm_bench::{cluster_config, primes_graph};
use sdvm_cdag::{generators, Cdag};
use sdvm_sim::{PowerModel, SimConfig, SimMetrics, Simulation};
use sdvm_types::QueuePolicy;

/// One pinned run: `(makespan bits, events, executed per site,
/// help requests, help granted, migrations)`.
type Pin = (u64, u64, &'static [u64], u64, u64, u64);

fn pin_of(m: &SimMetrics) -> (u64, u64, Vec<u64>, u64, u64, u64) {
    (
        m.makespan.to_bits(),
        m.events,
        m.executed_per_site.clone(),
        m.help_requests,
        m.help_granted,
        m.migrations,
    )
}

fn check(name: &str, cfg: SimConfig, graph: Cdag, want: Pin) {
    assert!(!cfg.proximity_routing, "{name}: pins cover the uniform arm");
    let m = Simulation::new(cfg, graph).run();
    assert!(m.tasks_executed > 0, "{name}: nothing ran");
    let got = pin_of(&m);
    let want = (want.0, want.1, want.2.to_vec(), want.3, want.4, want.5);
    assert_eq!(
        got, want,
        "{name} drifted (makespan {} s); new pin: ({:#x}, {}, &{:?}, {}, {}, {})",
        m.makespan, got.0, got.1, got.2, got.3, got.4, got.5
    );
}

#[test]
fn table1_cells() {
    let cases: [(usize, Pin); 3] = [
        (1, (0x4041336b228dc964, 1100, &[1080], 0, 0, 0)),
        (
            4,
            (
                0x40230e5ea3fa45bf,
                16482,
                &[270, 270, 272, 268],
                4619,
                1098,
                1098,
            ),
        ),
        (
            8,
            (
                0x401552147227e5b2,
                20153,
                &[138, 133, 136, 130, 134, 137, 134, 138],
                5951,
                1099,
                1099,
            ),
        ),
    ];
    for (sites, want) in cases {
        check(
            &format!("table1 p=100 width=10 on {sites} sites"),
            cluster_config(sites),
            primes_graph(100, 10),
            want,
        );
    }
}

#[test]
fn policy_ablation_with_hints() {
    let cases: [(QueuePolicy, Pin); 3] = [
        (
            QueuePolicy::Fifo,
            (0x3fc98f3160cb1bf4, 1363, &[116, 96, 85, 87], 228, 151, 151),
        ),
        (
            QueuePolicy::Lifo,
            (0x3fc9a0a175b1071e, 1336, &[110, 116, 87, 71], 213, 160, 160),
        ),
        (
            QueuePolicy::Priority,
            (0x3fc72f50fb702354, 1122, &[115, 91, 75, 103], 152, 113, 113),
        ),
    ];
    for (policy, want) in cases {
        let mut cfg = cluster_config(4);
        cfg.local_policy = policy;
        cfg.help_policy = policy;
        check(
            &format!("policy {policy} with hints"),
            cfg,
            generators::layered_random(12, 32, 42),
            want,
        );
    }
}

#[test]
fn orderly_leave() {
    let mut cfg = SimConfig::homogeneous(3);
    cfg.sites[2].leave_at = Some(0.05);
    check(
        "leave_at",
        cfg,
        generators::fork_join(10, 64, 500_000, 10),
        (0x402e0042cb56ab0a, 309, &[32, 29, 5], 66, 36, 36),
    );
}

#[test]
fn crash_and_reexecution() {
    let mut cfg = SimConfig::homogeneous(3);
    cfg.sites[2].crash_at = Some(0.05);
    check(
        "crash_at",
        cfg,
        generators::fork_join(10, 64, 500_000, 10),
        (0x403000db8fb33bd9, 290, &[34, 32, 0], 59, 39, 39),
    );
}

#[test]
fn power_model() {
    let mut cfg = SimConfig::homogeneous(4);
    for s in &mut cfg.sites {
        s.power = Some(PowerModel::embedded());
    }
    check(
        "power model",
        cfg,
        generators::iterative_fork_join(6, 16, 100_000),
        (0x400818cc199e8c97, 1178, &[33, 25, 25, 25], 289, 75, 75),
    );
}
