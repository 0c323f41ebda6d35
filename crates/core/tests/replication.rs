//! Replicated and hedged execution drills: a silently lying site (bit
//! flips in result values) is outvoted at k = 3, a k = 2 tie re-executes
//! on a fresh site and converges, a hedged straggler is rescued by a
//! duplicate whose loser is fenced (no consumer ever sees two results),
//! persistent divergence quarantines the frame with a descriptive cause
//! and stays `redrive()`-able — and with no fault injected, replication
//! is invisible: same answer, same ledger shape as `Off`.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use sdvm_core::{
    AppBuilder, ExecCtx, InProcessCluster, ProgramHandle, ReplicaSelector, ReplicationPolicy,
    SiteConfig, TraceEvent, TraceLog,
};
use sdvm_types::{FailurePolicy, SchedulingHint, SdvmError, SiteId, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(60);
const WORK: u32 = 0;

fn poll_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() > end {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Short maintenance tick so hedge deadlines fire promptly.
fn repl_config() -> SiteConfig {
    SiteConfig {
        heartbeat_interval: Duration::from_millis(25),
        ..Default::default()
    }
}

/// A fan of `n` squaring frames into one *sticky* join (pinned to the
/// launch site so only the pure work leaves are ever replicated or
/// migrated). `slow_except`: every site but this one sleeps before
/// sending, so that site's ballot always arrives first.
fn fan_app(policy: ReplicationPolicy, slow_except: Option<SiteId>) -> AppBuilder {
    let mut app = AppBuilder::new("replicated-fan").replicate(policy);
    let work = app.thread("work", move |ctx: &mut ExecCtx<'_>| {
        let v = ctx.param(0)?.as_u64()?;
        let slot = ctx.param(1)?.as_u64()? as u32;
        if let Some(fast) = slow_except {
            if ctx.site_id() != fast {
                std::thread::sleep(Duration::from_millis(30));
            }
        }
        ctx.send(ctx.target(0)?, slot, Value::from_u64(v * v))
    });
    assert_eq!(work, WORK);
    app.thread("join", |ctx| {
        let mut acc = 0;
        for i in 0..ctx.param_count() as u32 {
            acc += ctx.param(i)?.as_u64()?;
        }
        ctx.send(ctx.target(0)?, 0, Value::from_u64(acc))
    });
    app
}

fn launch_fan(cluster: &InProcessCluster, app: &AppBuilder, n: usize) -> ProgramHandle {
    cluster
        .site(0)
        .launch(app, move |ctx, result| {
            let sticky = SchedulingHint {
                sticky: true,
                ..Default::default()
            };
            let join = ctx.create_frame(1, n, vec![result], sticky);
            for i in 0..n {
                let w = ctx.create_frame(WORK, 2, vec![join], Default::default());
                ctx.send(w, 0, Value::from_u64(i as u64))?;
                ctx.send(w, 1, Value::from_u64(i as u64))?;
            }
            Ok(())
        })
        .unwrap()
}

fn fan_sum(n: usize) -> u64 {
    (0..n as u64).map(|i| i * i).sum()
}

/// Cluster-wide totals of the replication counters.
fn totals(cluster: &InProcessCluster, sites: usize) -> (u64, u64, u64, u64) {
    let mut t = (0, 0, 0, 0);
    for i in 0..sites {
        let s = cluster.site(i).inner().metrics.snapshot();
        t.0 += s.replicas_dispatched;
        t.1 += s.result_divergence;
        t.2 += s.hedges_fired;
        t.3 += s.hedge_wins;
    }
    t
}

/// Stop every site, then check each replication counter against its
/// events on the bus, which must not have wrapped: a counter bumped
/// twice, or not at all, for one event shows up here.
fn assert_counters_match_events(cluster: &InProcessCluster, sites: usize, trace: &TraceLog) {
    for i in 0..sites {
        cluster.crash(i);
    }
    assert_eq!(trace.dropped(), 0, "the bus wrapped");
    let count = |f: fn(&TraceEvent) -> bool| trace.filter(f).len() as u64;
    let events = (
        count(|e| matches!(e, TraceEvent::ReplicaDispatched { .. })),
        count(|e| matches!(e, TraceEvent::ResultDivergence { .. })),
        count(|e| matches!(e, TraceEvent::HedgeFired { .. })),
        count(|e| matches!(e, TraceEvent::HedgeWon { .. })),
    );
    assert_eq!(
        totals(cluster, sites),
        events,
        "(replicas_dispatched, result_divergence, hedges_fired, hedge_wins) vs their events"
    );
}

/// One site flips a bit in its first result send; at k = 3 the two
/// honest ballots outvote it, the divergence is counted, and the answer
/// is exactly the fault-free sum.
#[test]
fn k3_vote_outvotes_a_silently_corrupted_replica() {
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![repl_config(); 4], Some(trace.clone())).unwrap();
    let liar = cluster.site(1).id();
    let policy = ReplicationPolicy::Replicate {
        k: 3,
        selector: ReplicaSelector::Thread(WORK),
    };
    // The liar is the fast site: its corrupted ballot lands before the
    // honest ones, so the divergence is observed, not fenced post-win.
    let app = fan_app(policy, Some(liar));
    let n = 8usize;
    cluster.corrupt_results(1, 1, 0); // first send on site 1, low bit
    let handle = launch_fan(&cluster, &app, n);
    assert_eq!(
        handle.wait(WAIT).unwrap().as_u64().unwrap(),
        fan_sum(n),
        "majority must outvote the lying replica"
    );
    assert!(
        handle.wait(Duration::from_millis(300)).is_err(),
        "result must be delivered exactly once"
    );
    let (dispatched, divergence, _, _) = totals(&cluster, 4);
    assert!(
        dispatched >= (n * 3) as u64,
        "k=3 over {n} frames must dispatch >= {} replicas, got {dispatched}",
        n * 3
    );
    assert!(divergence >= 1, "the corrupted ballot must be counted");
    assert!(
        !trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::FrameQuarantined { .. })),
        "an outvoted liar must not quarantine anything"
    );
    assert_counters_match_events(&cluster, 4, &trace);
}

/// At k = 2 a corrupted ballot produces a tie the coordinator cannot
/// settle; a tie-breaking replica on a fresh site forms the majority and
/// the program still converges on the right answer.
#[test]
fn k2_tie_reexecutes_on_a_fresh_site_and_converges() {
    let cluster = InProcessCluster::with_configs(vec![repl_config(); 4], None).unwrap();
    let liar = cluster.site(1).id();
    let policy = ReplicationPolicy::Replicate {
        k: 2,
        selector: ReplicaSelector::Thread(WORK),
    };
    let app = fan_app(policy, Some(liar));
    let n = 8usize;
    cluster.corrupt_results(1, 1, 0);
    let handle = launch_fan(&cluster, &app, n);
    assert_eq!(
        handle.wait(WAIT).unwrap().as_u64().unwrap(),
        fan_sum(n),
        "tie-break must converge on the honest result"
    );
    let (dispatched, divergence, _, _) = totals(&cluster, 4);
    assert!(divergence >= 1, "the k=2 tie must be counted as divergence");
    assert!(
        dispatched > (n * 2) as u64,
        "the tie-break is an extra dispatch beyond k*n, got {dispatched}"
    );
}

/// A straggling primary is rescued by a hedge duplicate: the duplicate's
/// ballot wins, the straggler's later ballot is fenced (the logical
/// frame executes exactly once), and the makespan is the hedge delay
/// plus the fast execution — not the straggler's sleep.
#[test]
fn hedge_rescues_a_straggler_and_fences_the_losing_result() {
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![repl_config(); 4], Some(trace.clone())).unwrap();
    let mut app = AppBuilder::new("hedged-doubler")
        .replicate(ReplicationPolicy::hedge(Duration::from_millis(50)));
    // The first execution (the primary) is the straggler; the hedge
    // duplicate runs at full speed.
    let straggle = Arc::new(AtomicBool::new(true));
    let flag = straggle.clone();
    app.thread("work", move |ctx: &mut ExecCtx<'_>| {
        let v = ctx.param(0)?.as_u64()?;
        if flag.swap(false, Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(600));
        }
        ctx.send(ctx.target(0)?, 0, Value::from_u64(v * 2))
    });
    let started = Instant::now();
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let w = ctx.create_frame(WORK, 1, vec![result], Default::default());
            ctx.send(w, 0, Value::from_u64(21))
        })
        .unwrap();
    assert_eq!(handle.wait(WAIT).unwrap().as_u64().unwrap(), 42);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(450),
        "hedge must beat the 600ms straggler, took {elapsed:?}"
    );
    assert!(
        handle.wait(Duration::from_millis(300)).is_err(),
        "result must be delivered exactly once"
    );
    let (_, _, fired, wins) = totals(&cluster, 4);
    assert!(fired >= 1, "the hedge must have fired");
    assert!(wins >= 1, "the duplicate must have won");
    // Let the straggler finish and its losing ballot reach the (settled)
    // coordinator: it must be fenced, never applied or re-executed.
    std::thread::sleep(Duration::from_millis(800));
    let executed = trace.filter(|e| matches!(e, TraceEvent::FrameExecuted { .. }));
    assert_eq!(
        executed.len(),
        2,
        "exactly one work + one result execution, loser fenced"
    );
    assert!(
        !trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::FrameQuarantined { .. })),
        "a fenced loser must not quarantine anything"
    );
    for i in 0..4 {
        assert_eq!(cluster.site(i).inner().replication.pending(), 0);
    }
    assert_counters_match_events(&cluster, 4, &trace);
}

/// Replicas that *keep* disagreeing (the handler mixes its site id into
/// the result) exhaust the round budget: the frame is quarantined with a
/// `ResultDivergence` cause and, like any dead letter, can be re-driven —
/// the re-driven run executes unreplicated on the coordinator.
#[test]
fn persistent_divergence_quarantines_and_redrives() {
    let cluster = InProcessCluster::with_configs(vec![repl_config(); 4], None).unwrap();
    let mut app = AppBuilder::new("divergent")
        .replicate(ReplicationPolicy::replicate(2))
        .on_failure(FailurePolicy::SkipFrame);
    app.thread("work", |ctx: &mut ExecCtx<'_>| {
        // Deliberately site-dependent: no two replicas can ever agree.
        let v = ctx.param(0)?.as_u64()?;
        let here = ctx.site_id().0 as u64;
        ctx.send(ctx.target(0)?, 0, Value::from_u64(v + here))
    });
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let w = ctx.create_frame(WORK, 1, vec![result], Default::default());
            ctx.send(w, 0, Value::from_u64(100))
        })
        .unwrap();
    // The coordinator (site 0, the frame's home) quarantines after the
    // round budget: k=2 tie, +1 replica, +1 replica, give up.
    let inner = cluster.site(0).inner();
    let parked = poll_until(Duration::from_secs(20), || inner.deadletter.count() == 1);
    assert!(parked, "persistent divergence must dead-letter the frame");
    let letters = inner.deadletter.letters();
    assert!(
        matches!(letters[0].cause, SdvmError::ResultDivergence { .. }),
        "cause must be ResultDivergence, got {:?}",
        letters[0].cause
    );
    let (_, divergence, _, _) = totals(&cluster, 4);
    assert!(divergence >= 1);

    // Re-drive: the frame runs once, unreplicated, on the coordinator —
    // the answer is whatever that one site computes.
    let poison = letters[0].frame.id;
    assert!(inner.deadletter.redrive(inner, poison));
    let expect = 100 + cluster.site(0).id().0 as u64;
    assert_eq!(
        handle.wait(WAIT).unwrap().as_u64().unwrap(),
        expect,
        "re-driven frame must complete the program"
    );
    assert_eq!(inner.deadletter.count(), 0);
    assert_eq!(inner.replication.pending(), 0);
}

/// A re-driven frame is pinned to the site that re-drove it: quarantine
/// consumed it, so no directory or backup would know it anywhere else.
/// Idle peers keep asking the coordinator for help while it waits.
#[test]
fn redriven_frame_executes_on_the_coordinator() {
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![repl_config(); 4], Some(trace.clone())).unwrap();
    let mut app = AppBuilder::new("divergent")
        .replicate(ReplicationPolicy::replicate(2))
        .on_failure(FailurePolicy::SkipFrame);
    app.thread("work", |ctx: &mut ExecCtx<'_>| {
        let v = ctx.param(0)?.as_u64()?;
        let here = ctx.site_id().0 as u64;
        ctx.send(ctx.target(0)?, 0, Value::from_u64(v + here))
    });
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let w = ctx.create_frame(WORK, 1, vec![result], Default::default());
            ctx.send(w, 0, Value::from_u64(100))
        })
        .unwrap();
    let inner = cluster.site(0).inner();
    assert!(poll_until(Duration::from_secs(20), || inner
        .deadletter
        .count()
        == 1));
    let poison = inner.deadletter.letters()[0].frame.id;
    assert!(inner.deadletter.redrive(inner, poison));
    let coordinator = cluster.site(0).id();
    assert_eq!(
        handle.wait(WAIT).unwrap().as_u64().unwrap(),
        100 + coordinator.0 as u64
    );
    // The result can land a beat before the execution is logged.
    let ran_on = || -> Vec<SiteId> {
        trace
            .timestamped()
            .into_iter()
            .filter(
                |b| matches!(b.event, TraceEvent::FrameExecuted { frame, .. } if frame == poison),
            )
            .map(|b| b.site)
            .collect()
    };
    poll_until(Duration::from_secs(5), || !ran_on().is_empty());
    assert_eq!(
        ran_on(),
        vec![coordinator],
        "executed once, on the coordinator"
    );
}

/// No-fault property: across fan widths, a k = 3 replicated run returns
/// the same answer as `Off` with the same ledger shape — one logical
/// execution per frame, no divergence, no quarantine, empty escrow.
#[test]
fn replication_is_a_noop_without_faults() {
    for n in [1usize, 4, 9] {
        let mut answers = Vec::new();
        for policy in [
            ReplicationPolicy::Off,
            ReplicationPolicy::Replicate {
                k: 3,
                selector: ReplicaSelector::Thread(WORK),
            },
        ] {
            let trace = TraceLog::new();
            let cluster =
                InProcessCluster::with_configs(vec![repl_config(); 4], Some(trace.clone()))
                    .unwrap();
            let app = fan_app(policy, None);
            let handle = launch_fan(&cluster, &app, n);
            answers.push(handle.wait(WAIT).unwrap().as_u64().unwrap());
            assert!(
                handle.wait(Duration::from_millis(200)).is_err(),
                "n={n} {policy}: exactly once"
            );
            // Same ledger shape: n work + 1 join + 1 result executions,
            // regardless of how many physical replicas ran. Polled — the
            // result can be delivered a beat before the coordinator logs
            // the last work frame's execution.
            let executed = || {
                trace
                    .filter(|e| matches!(e, TraceEvent::FrameExecuted { .. }))
                    .len()
            };
            poll_until(Duration::from_secs(5), || executed() == n + 2);
            assert_eq!(
                executed(),
                n + 2,
                "n={n} {policy}: one logical execution per frame"
            );
            assert!(
                !trace
                    .events()
                    .iter()
                    .any(|e| matches!(e, TraceEvent::FrameQuarantined { .. })),
                "n={n} {policy}: nothing quarantined"
            );
            let (_, divergence, fired, _) = totals(&cluster, 4);
            assert_eq!(divergence, 0, "n={n} {policy}: no divergence");
            assert_eq!(fired, 0, "n={n} {policy}: no hedges");
            for i in 0..4 {
                assert_eq!(
                    cluster.site(i).inner().replication.pending(),
                    0,
                    "n={n} {policy}: escrow drained on site {i}"
                );
            }
        }
        assert_eq!(
            answers[0], answers[1],
            "n={n}: replication must not change the answer"
        );
        assert_eq!(answers[0], fan_sum(n));
    }
}
