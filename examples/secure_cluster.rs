//! A *real TCP* SDVM cluster with the security manager enabled: three
//! daemons on localhost sockets, keyed by a shared start password,
//! running the prime search over encrypted connections (paper §4,
//! security + network managers; message delivery as in Fig. 6).
//!
//! In a real deployment each daemon runs in its own process/machine; the
//! sites here share a process but talk *only* through TCP.
//!
//! ```text
//! cargo run --release --example secure_cluster [-- --trace]
//! ```

use sdvm::apps::primes::{nth_prime, PrimesProgram};
use sdvm::core::{AppRegistry, Site, SiteConfig, TraceEvent, TraceLog};
use sdvm::net::TcpTransport;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let want_trace = std::env::args().any(|a| a == "--trace");
    let trace = TraceLog::new();
    let registry = AppRegistry::new();
    let cfg = SiteConfig::default().with_password("start-password-by-hand");

    // Three daemons, each on its own TCP socket.
    let mk = |cfg: &SiteConfig| -> Result<Site, Box<dyn std::error::Error>> {
        let transport = TcpTransport::bind("127.0.0.1:0")?;
        Ok(Site::new(
            cfg.clone(),
            transport as Arc<dyn sdvm::net::Transport>,
            registry.clone(),
            Some(trace.clone()),
        ))
    };
    let first = mk(&cfg)?;
    first.start_first();
    println!("first site {} listening on {}", first.id(), first.addr());

    let second = mk(&cfg)?;
    second.sign_on(&first.addr())?;
    println!("site {} signed on via TCP ({})", second.id(), second.addr());

    let third = mk(&cfg)?;
    // Join through the *second* site: any member can be the contact.
    third.sign_on(&second.addr())?;
    println!("site {} signed on via TCP ({})", third.id(), third.addr());

    // A wrong password cannot join: its sign-on is undecryptable noise.
    let intruder = mk(&SiteConfig::default().with_password("wrong"))?;
    match intruder.sign_on(&first.addr()) {
        Err(e) => println!("intruder with wrong password rejected: {e}"),
        Ok(()) => unreachable!("intruder must not join"),
    }

    let prog = PrimesProgram {
        p: 50,
        width: 10,
        spin: 0,
        sleep_us: 2_000,
    };
    let handle = prog.launch(&first)?;
    let result = handle.wait(Duration::from_secs(600))?;
    println!(
        "the {}-th prime is {} — computed over encrypted TCP",
        prog.p,
        result.as_u64()?
    );
    assert_eq!(result.as_u64()?, nth_prime(prog.p));

    if want_trace {
        println!();
        println!("=== message delivery through the manager stack (Fig. 6) ===");
        for b in trace
            .timestamped()
            .into_iter()
            .filter(|b| matches!(b.event, TraceEvent::MessageHop { .. }))
            .take(20)
        {
            if let TraceEvent::MessageHop {
                manager,
                payload,
                outgoing,
                ..
            } = b.event
            {
                let dir = if outgoing { "send" } else { "recv" };
                println!("{} {dir:<4} [{manager}] {payload}", b.site);
            }
        }
    }

    third.sign_off()?;
    second.sign_off()?;
    println!("sites signed off; done");
    Ok(())
}
