//! E11 — the paper's transport finding (§4, network manager): UDP
//! "proved not usable at the current expansion stage": packets may be
//! lost or reordered and the SDVM has no resequencing layer, so it runs
//! on TCP.
//!
//! Demonstrated on the in-memory transport's fault injection: the same
//! message stream under reliable (TCP-like) semantics and under
//! UDP-like loss/duplication/reordering, with the delivered-stream
//! damage quantified.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin paper -- e11
//! ```

use sdvm_bench::rule;
use sdvm_net::{FaultPlan, MemHub, Transport};
use sdvm_types::PhysicalAddr;

fn run_plan(name: &str, plan: FaultPlan) {
    let hub = MemHub::new();
    let a = hub.endpoint();
    let b = hub.endpoint();
    let (PhysicalAddr::Mem(aid), PhysicalAddr::Mem(bid)) = (a.local_addr(), b.local_addr()) else {
        unreachable!("mem transport yields mem addresses");
    };
    hub.set_link_plan(aid, bid, plan);
    const N: u32 = 100_000;
    for i in 0..N {
        a.send_body(&b.local_addr(), &i.to_le_bytes())
            .expect("send");
    }
    let rx = b.incoming();
    let mut got = Vec::new();
    while let Ok(m) = rx.try_recv() {
        got.push(u32::from_le_bytes(m[..].try_into().expect("4 bytes")));
    }
    let mut seen = vec![0u32; N as usize];
    let mut out_of_order = 0u32;
    let mut last = None;
    for &v in &got {
        seen[v as usize] += 1;
        if let Some(prev) = last {
            if v < prev {
                out_of_order += 1;
            }
        }
        last = Some(v);
    }
    let lost = seen.iter().filter(|&&c| c == 0).count();
    let duplicated = seen.iter().filter(|&&c| c > 1).count();
    println!(
        "{name:>22}: delivered {:>6}/{N}  lost {:>5} ({:.2}%)  dup {:>4}  reordered {:>5}",
        got.len(),
        lost,
        100.0 * lost as f64 / N as f64,
        duplicated,
        out_of_order
    );
}

pub fn run() {
    println!("E11: transport semantics — why the SDVM runs on TCP, not UDP");
    rule(90);
    run_plan("reliable (TCP-like)", FaultPlan::reliable());
    run_plan("udp-like (seed 1)", FaultPlan::udp_like(1));
    run_plan("udp-like (seed 2)", FaultPlan::udp_like(2));
    let heavy = FaultPlan {
        drop_prob: 0.05,
        dup_prob: 0.02,
        reorder_prob: 0.15,
        seed: 3,
        ..FaultPlan::reliable()
    };
    run_plan("congested udp-like", heavy);
    rule(90);
    println!("every lost message is a lost microframe parameter: the waiting frame");
    println!("never fires and the application hangs — exactly the paper's verdict that");
    println!("UDP needs a resequencing/retransmission layer the SDVM does not have.");
}
