//! Figures 4 & 5 of the paper, reproduced as a machine-checkable event
//! trace: the *execution cycle* through the managers and the *career of
//! microframes* — incomplete → executable → ready → executed — including
//! a migration via help request on a 2-site cluster.
//!
//! ```text
//! cargo run --release --example trace_career
//! ```

use sdvm::core::{AppBuilder, InProcessCluster, SiteConfig, TraceEvent, TraceLog};
use sdvm::types::Value;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![SiteConfig::default(); 2], Some(trace.clone()))?;

    let mut app = AppBuilder::new("career-demo");
    let work = app.thread("work", |ctx| {
        std::thread::sleep(Duration::from_millis(15));
        let n = ctx.param(0)?.as_u64()?;
        let slot = ctx.param(1)?.as_u64()? as u32;
        ctx.send(ctx.target(0)?, slot, Value::from_u64(n * 10))
    });
    let join = app.thread("join", |ctx| {
        let mut acc = 0;
        for i in 0..ctx.param_count() as u32 {
            acc += ctx.param(i)?.as_u64()?;
        }
        ctx.send(ctx.target(0)?, 0, Value::from_u64(acc))
    });

    let n = 12usize;
    let handle = cluster.site(0).launch(&app, |ctx, result| {
        let j = ctx.create_frame(join, n, vec![result], Default::default());
        for i in 0..n {
            let w = ctx.create_frame(work, 2, vec![j], Default::default());
            ctx.send(w, 0, Value::from_u64(i as u64))?;
            ctx.send(w, 1, Value::from_u64(i as u64))?;
        }
        Ok(())
    })?;
    handle.wait(Duration::from_secs(60))?;

    // Figure 5: the career of each microframe.
    println!("=== career of microframes (Fig. 5) ===");
    let created: Vec<_> = trace
        .filter(|e| matches!(e, TraceEvent::FrameCreated { slots: 2, .. }))
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::FrameCreated { frame, .. } => Some(frame),
            _ => None,
        })
        .collect();
    for frame in &created {
        println!("{frame}: {}", trace.career_of(*frame).join(" → "));
    }
    let migrated = created
        .iter()
        .filter(|f| trace.career_of(**f).contains(&"migrated".to_string()))
        .count();
    println!(
        "({migrated} of {} frames migrated to the other site via help requests)",
        created.len()
    );

    // Figure 4: one frame's walk through the managers.
    println!();
    println!("=== execution-cycle manager hops (Fig. 4/6), first 14 events ===");
    for b in trace
        .timestamped()
        .into_iter()
        .filter(|b| matches!(b.event, TraceEvent::MessageHop { .. }))
        .take(14)
    {
        if let TraceEvent::MessageHop {
            manager,
            payload,
            outgoing,
            ..
        } = b.event
        {
            let dir = if outgoing { "→" } else { "←" };
            println!("{} {dir} [{manager}] {payload}", b.site);
        }
    }
    Ok(())
}
