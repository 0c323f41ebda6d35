//! PR 3 telemetry integration tests: ring-buffer semantics, subscriber
//! taps, and cross-site causal trace stitching through a real
//! `HelpGranted` migration on an in-process cluster.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use sdvm_core::telemetry::trace_id_of;
use sdvm_core::{
    perfetto_trace_json, AppBuilder, InProcessCluster, SiteConfig, TraceEvent, TraceLog,
};
use sdvm_types::{SiteId, Value};
use std::time::{Duration, Instant};

fn membership_event(i: u32) -> TraceEvent {
    TraceEvent::SiteJoined {
        site: SiteId(1),
        joined: SiteId(100 + i),
    }
}

#[test]
fn ring_wraparound_keeps_newest_and_counts_drops() {
    let log = TraceLog::with_capacity(4);
    for i in 0..10 {
        log.emit(membership_event(i));
    }
    assert_eq!(log.len(), 4, "ring must stay bounded");
    assert_eq!(log.dropped(), 6, "wraparound must count overwritten events");
    assert_eq!(log.total_emitted(), 10);
    let evs = log.timestamped();
    // The survivors are the newest four, in order, with their original
    // bus sequence numbers intact.
    assert_eq!(evs.first().unwrap().seq, 6);
    assert_eq!(evs.last().unwrap().seq, 9);
    for w in evs.windows(2) {
        assert_eq!(w[1].seq, w[0].seq + 1);
        assert!(w[1].at_micros >= w[0].at_micros);
    }
}

#[test]
fn subscriber_tap_is_live_and_never_blocks_the_emitter() {
    let log = TraceLog::new();
    // Events emitted before subscribing are not replayed to the tap.
    log.emit(membership_event(0));
    let rx = log.subscribe_with_capacity(2);
    for i in 1..6 {
        log.emit(membership_event(i));
    }
    // The emitter never blocked: all five post-subscribe events are in
    // the ring, but the depth-2 tap only holds the first two; the other
    // three were dropped for the tap and counted.
    assert_eq!(log.len(), 6);
    assert_eq!(log.tap_dropped(), 3);
    let got: Vec<_> = rx.try_iter().collect();
    assert_eq!(got.len(), 2);
    assert_eq!(got[0].seq, 1);
    assert_eq!(got[1].seq, 2);
    // After draining, the tap fills again.
    log.emit(membership_event(9));
    let next = rx.try_recv().expect("tap refills after draining");
    assert_eq!(next.seq, 6);
}

/// Drive a 2-site cluster until at least one frame migrates via a help
/// request, then assert the frame's career can be stitched across both
/// sites by its deterministic trace id — in the raw events, in the
/// message hops that carried the wire `TraceContext`, and in the
/// Perfetto export (flow arrow from granter to adopter).
#[test]
fn migrated_frame_career_is_stitched_across_sites_by_trace_id() {
    // Migration is load-dependent; retry the workload a few times rather
    // than flake. In practice the first round migrates several frames.
    for attempt in 0..5 {
        let trace = TraceLog::new();
        let cluster =
            InProcessCluster::with_configs(vec![SiteConfig::default(); 2], Some(trace.clone()))
                .expect("cluster");

        let mut app = AppBuilder::new("stitch-demo");
        let work = app.thread("work", |ctx| {
            std::thread::sleep(Duration::from_millis(10));
            let n = ctx.param(0)?.as_u64()?;
            let slot = ctx.param(1)?.as_u64()? as u32;
            ctx.send(ctx.target(0)?, slot, Value::from_u64(n))
        });
        let join = app.thread("join", |ctx| {
            let mut acc = 0;
            for i in 0..ctx.param_count() as u32 {
                acc += ctx.param(i)?.as_u64()?;
            }
            ctx.send(ctx.target(0)?, 0, Value::from_u64(acc))
        });

        let n = 16usize;
        let handle = cluster
            .site(0)
            .launch(&app, move |ctx, result| {
                let j = ctx.create_frame(join, n, vec![result], Default::default());
                for i in 0..n {
                    let w = ctx.create_frame(work, 2, vec![j], Default::default());
                    ctx.send(w, 0, Value::from_u64(i as u64))?;
                    ctx.send(w, 1, Value::from_u64(i as u64))?;
                }
                Ok(())
            })
            .expect("launch");
        handle.wait(Duration::from_secs(60)).expect("result");

        let events = trace.timestamped();
        let migration = events.iter().find_map(|b| match &b.event {
            TraceEvent::HelpGranted {
                site,
                requester,
                frame,
                ..
            } => Some((*site, *requester, *frame)),
            _ => None,
        });
        let Some((granter, adopter, frame)) = migration else {
            assert!(attempt < 4, "no migration observed in 5 workload rounds");
            continue;
        };
        assert_ne!(granter, adopter);
        let id = trace_id_of(frame);

        // The migrated frame's `FrameExecuted` is emitted after its
        // handler returns, so it can reach the bus after the program's
        // result does: poll until it is there.
        let deadline = Instant::now() + Duration::from_secs(10);
        let (events, executed_on) = loop {
            let events = trace.timestamped();
            let executed = events.iter().find_map(|b| match &b.event {
                TraceEvent::FrameExecuted { site, frame: f, .. } if *f == frame => Some(*site),
                _ => None,
            });
            if let Some(site) = executed {
                break (events, site);
            }
            assert!(
                Instant::now() < deadline,
                "migrated frame was never executed"
            );
            std::thread::sleep(Duration::from_millis(5));
        };

        // Career stitching: the frame was created on the granter's side
        // and executed on the adopter — two sites, one career.
        let created_on = events
            .iter()
            .find_map(|b| match &b.event {
                TraceEvent::FrameCreated { site, frame: f, .. } if *f == frame => Some(*site),
                _ => None,
            })
            .expect("migrated frame has a creation event");
        assert_eq!(executed_on, adopter, "adopter runs the migrated frame");
        assert_ne!(
            created_on, executed_on,
            "career spans two sites after migration"
        );

        // Wire-level stitching: the HelpReply (and the forwarded result)
        // ride the frame's trace context, so hops on *both* sites carry
        // the same trace id.
        let hop_sites: Vec<SiteId> = events
            .iter()
            .filter_map(|b| match &b.event {
                TraceEvent::MessageHop { site, trace, .. } if *trace == id && id != 0 => {
                    Some(*site)
                }
                _ => None,
            })
            .collect();
        assert!(
            hop_sites.contains(&granter) && hop_sites.contains(&adopter),
            "trace id {id} must appear in hops on both granter and adopter, got {hop_sites:?}"
        );

        // Exporter stitching: a flow arrow opens at HelpGranted on the
        // granter and closes at FrameExecuted on the adopter, keyed by
        // the same id.
        let json = perfetto_trace_json(&events);
        assert!(json.contains(&format!("\"ph\":\"s\",\"id\":{id}")));
        assert!(json.contains(&format!("\"ph\":\"f\",\"bp\":\"e\",\"id\":{id}")));
        assert!(json.contains(&format!("\"pid\":{}", granter.0)));
        assert!(json.contains(&format!("\"pid\":{}", adopter.0)));
        return;
    }
}
