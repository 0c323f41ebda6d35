//! PR 3 telemetry integration tests: ring-buffer semantics, subscriber
//! taps, and cross-site causal trace stitching through a real
//! `HelpGranted` migration on an in-process cluster.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use sdvm_core::telemetry::trace_id_of;
use sdvm_core::{
    perfetto_trace_json, AppBuilder, BusEvent, DropReason, InProcessCluster, SiteConfig,
    TraceEvent, TraceLog,
};
use sdvm_types::{GlobalAddress, ManagerId, MicrothreadId, PlatformId, ProgramId, SiteId, Value};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn membership_event(i: u32) -> TraceEvent {
    TraceEvent::SiteJoined {
        joined: SiteId(100 + i),
    }
}

#[test]
fn ring_wraparound_keeps_newest_and_counts_drops() {
    let log = TraceLog::with_capacity(4);
    for i in 0..10 {
        log.emit(SiteId(1), membership_event(i));
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
    log.emit(SiteId(1), membership_event(0));
    let rx = log.subscribe_with_capacity(2);
    for i in 1..6 {
        log.emit(SiteId(1), membership_event(i));
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
    log.emit(SiteId(1), membership_event(9));
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
                requester, frame, ..
            } => Some((b.site, *requester, *frame)),
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
                TraceEvent::FrameExecuted { frame: f, .. } if *f == frame => Some(b.site),
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
                TraceEvent::FrameCreated { frame: f, .. } if *f == frame => Some(b.site),
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
                TraceEvent::MessageHop { trace, .. } if *trace == id && id != 0 => Some(b.site),
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

/// One event `site` emitted at `at` µs, numbered in stream order.
fn bus(seq: u64, at_micros: u64, site: SiteId, event: TraceEvent) -> BusEvent {
    BusEvent {
        seq,
        site_seq: 0,
        at_micros,
        site,
        event,
    }
}

/// A fixed, hand-built stream with every `TraceEvent` variant: three
/// sites (site 0 is a site still signing on), one migration flow from
/// site 1 to site 2, and a quarantine cause that needs JSON escaping.
fn golden_stream() -> Vec<BusEvent> {
    let (s0, s1, s2) = (SiteId(0), SiteId(1), SiteId(2));
    let frame = |home: u32, local: u64| GlobalAddress::new(SiteId(home), local);
    let thread = MicrothreadId::new(ProgramId(1), 0);
    let platform = PlatformId(2);
    let events = vec![
        (5, s1, TraceEvent::SiteJoined { joined: s2 }),
        (
            6,
            s0,
            TraceEvent::MessageHop {
                manager: ManagerId::Cluster,
                payload: "SignOn",
                outgoing: true,
                trace: 0,
            },
        ),
        (7, s0, TraceEvent::SiteJoined { joined: s1 }),
        (
            10,
            s1,
            TraceEvent::FrameCreated {
                frame: frame(1, 7),
                thread,
                slots: 2,
            },
        ),
        (
            12,
            s1,
            TraceEvent::ParamApplied {
                frame: frame(1, 7),
                slot: 0,
                missing: 1,
            },
        ),
        (15, s1, TraceEvent::FrameExecutable { frame: frame(1, 7) }),
        (20, s1, TraceEvent::FrameReady { frame: frame(1, 7) }),
        (
            31,
            s1,
            TraceEvent::FrameExecuted {
                frame: frame(1, 7),
                thread,
            },
        ),
        (38, s2, TraceEvent::HelpRequested { target: s1 }),
        (39, s1, TraceEvent::HelpDenied { requester: s0 }),
        (
            40,
            s1,
            TraceEvent::HelpGranted {
                requester: s2,
                frame: frame(1, 8),
                score: 3,
            },
        ),
        (
            40,
            s1,
            TraceEvent::MessageHop {
                manager: ManagerId::Message,
                payload: "HelpReply",
                outgoing: true,
                trace: 8,
            },
        ),
        (41, s2, TraceEvent::CodeRequested { thread, platform }),
        (42, s2, TraceEvent::CodeCompiled { thread, platform }),
        (
            44,
            s2,
            TraceEvent::MessageHop {
                manager: ManagerId::Scheduling,
                payload: "HelpReply",
                outgoing: false,
                trace: 8,
            },
        ),
        (45, s2, TraceEvent::FrameReady { frame: frame(1, 8) }),
        (
            50,
            s2,
            TraceEvent::FrameExecuted {
                frame: frame(1, 8),
                thread,
            },
        ),
        (60, s2, TraceEvent::SiteSuspected { suspect: SiteId(3) }),
        (
            61,
            s2,
            TraceEvent::SuspicionRefuted {
                suspect: SiteId(3),
                incarnation: 2,
            },
        ),
        (
            62,
            s1,
            TraceEvent::StaleIncarnation {
                from: SiteId(3),
                incarnation: 1,
            },
        ),
        (
            70,
            s1,
            TraceEvent::SiteGone {
                gone: SiteId(3),
                crashed: true,
            },
        ),
        (
            71,
            s2,
            TraceEvent::SiteGone {
                gone: SiteId(4),
                crashed: false,
            },
        ),
        (
            72,
            s1,
            TraceEvent::Recovered {
                dead: SiteId(3),
                frames: 2,
                objects: 1,
            },
        ),
        (
            80,
            s2,
            TraceEvent::FrameRetried {
                frame: frame(2, 9),
                thread,
                attempt: 1,
            },
        ),
        (
            81,
            s2,
            TraceEvent::FrameQuarantined {
                frame: frame(2, 9),
                thread,
                cause: Arc::new("handler \"boom\" failed\nat slot 0".to_string()),
            },
        ),
        (82, s2, TraceEvent::WorkerRespawned { slot: 3 }),
        (
            90,
            s1,
            TraceEvent::ProgramStuck {
                program: ProgramId(4),
            },
        ),
        (
            91,
            s1,
            TraceEvent::PostmortemWritten {
                trigger: "program_stuck",
                path: Arc::new("pm/postmortem-1-0.json".to_string()),
            },
        ),
        (
            92,
            s2,
            TraceEvent::ReplicaInvalidated {
                object: frame(1, 12),
                version: 5,
            },
        ),
        (
            93,
            s1,
            TraceEvent::ReplicaDispatched {
                frame: frame(1, 13),
                target: s2,
                generation: 0,
                replica: 1,
                vote: true,
            },
        ),
        (
            94,
            s1,
            TraceEvent::ResultDivergence {
                frame: frame(1, 13),
                thread,
            },
        ),
        (
            95,
            s1,
            TraceEvent::HedgeFired {
                frame: frame(1, 14),
                target: s2,
            },
        ),
        (
            96,
            s1,
            TraceEvent::HedgeWon {
                frame: frame(1, 14),
                winner: s2,
            },
        ),
        (
            97,
            s2,
            TraceEvent::Dropped {
                reason: DropReason::Tombstone,
                detail: "result for 1.7 slot 0".to_string(),
            },
        ),
    ];
    events
        .into_iter()
        .enumerate()
        .map(|(i, (at, site, ev))| bus(i as u64, at, site, ev))
        .collect()
}

/// The pin on the Perfetto exporter: a fixed stream renders to
/// `tests/golden/trace.json` byte for byte. On a mismatch the actual
/// output is written next to the test binary's scratch files for diffing.
#[test]
fn perfetto_export_matches_the_golden() {
    let stream = golden_stream();
    let variants: BTreeSet<String> = stream
        .iter()
        .map(|b| {
            let dbg = format!("{:?}", b.event);
            dbg.split([' ', '{']).next().unwrap_or_default().to_string()
        })
        .collect();
    assert_eq!(variants.len(), 28, "the stream covers every variant");
    let actual = perfetto_trace_json(&stream);
    let golden = include_str!("golden/trace.json");
    if actual != golden {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace.json");
        std::fs::write(&out, &actual).unwrap();
        panic!(
            "Perfetto export changed; actual output in {}",
            out.display()
        );
    }
}
