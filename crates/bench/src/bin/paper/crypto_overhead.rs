//! E5 — the security manager's cost (paper §4): "If a cluster can be
//! judged secure [...] the security manager can be disabled in favor of
//! a performance gain."
//!
//! Measured for real (wall clock): site-manager ping/pong round trips
//! on a 2-site in-process cluster with and without the start password.
//! The raw primitives (ChaCha20, HMAC, seal/open) are timed by the
//! criterion bench `crypto_primitives`.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e5
//! ```

use sdvm_bench::rule;
use sdvm_core::{InProcessCluster, SiteConfig};
use std::time::{Duration, Instant};

pub fn run() {
    println!("E5: security manager overhead (encryption on vs off)");
    rule(72);

    // Manager-to-manager message round trips, encrypted vs plaintext:
    // the cost sits between the message and network managers, so
    // request/response traffic shows it directly.
    let round_trips = 5_000u32;
    let run = |password: Option<&str>| -> f64 {
        let mut cfg = SiteConfig::default();
        if let Some(pw) = password {
            cfg = cfg.with_password(pw);
        }
        let cluster = InProcessCluster::new(2, cfg).expect("cluster");
        let a = cluster.site(0).inner();
        let b_id = cluster.site(1).id();
        let t0 = Instant::now();
        for token in 0..round_trips {
            let reply = a
                .request(
                    b_id,
                    sdvm_types::ManagerId::Site,
                    sdvm_types::ManagerId::Site,
                    sdvm_wire::Payload::Ping {
                        token: u64::from(token),
                    },
                    Duration::from_secs(10),
                )
                .expect("pong");
            assert!(matches!(reply.payload, sdvm_wire::Payload::Pong { .. }));
        }
        t0.elapsed().as_secs_f64()
    };
    let plain = run(None);
    let sealed = run(Some("cluster-secret"));
    println!("{round_trips} site-manager ping/pong round trips (2 sites):");
    println!(
        "  plaintext : {plain:.3} s ({:.1} µs/round trip)",
        plain * 1e6 / f64::from(round_trips)
    );
    println!(
        "  encrypted : {sealed:.3} s ({:.1} µs/round trip)",
        sealed * 1e6 / f64::from(round_trips)
    );
    println!(
        "security manager cost: {:+.1}%  (paper: disabling is a \"performance gain\")",
        (sealed / plain - 1.0) * 100.0
    );
    rule(72);
}
