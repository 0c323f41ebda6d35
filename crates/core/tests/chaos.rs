//! Partition-tolerant failure detection under scripted faults: the
//! two-phase (suspect → confirm) detector must not kill slow-but-alive
//! sites, falsely-declared sites must rejoin with a bumped incarnation,
//! and recovery must survive the recoverer itself crashing.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use sdvm_core::{AppBuilder, InProcessCluster, ProgramHandle, SiteConfig, TraceEvent, TraceLog};
use sdvm_types::{GlobalAddress, ManagerId, SiteId, Value};
use sdvm_wire::{Payload, SdMessage};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(60);

fn detector_config() -> SiteConfig {
    let mut cfg = SiteConfig::default().with_crash_tolerance();
    cfg.heartbeat_interval = Duration::from_millis(50);
    cfg.suspect_timeout = Duration::from_millis(200);
    cfg.crash_timeout = Duration::from_millis(2_000);
    cfg
}

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

/// A one-way-visible site is *suspected*, but indirect probes through
/// the still-connected members vouch for it: the partition heals before
/// anyone is declared dead.
#[test]
fn partitioned_link_suspects_but_does_not_kill() {
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![detector_config(); 4], Some(trace.clone())).unwrap();
    // Cut the 0↔3 link only; sites 1 and 2 still reach site 3 and can
    // answer site 0's indirect probes.
    cluster.partition(0, 3);
    let suspected = poll_until(Duration::from_secs(10), || {
        !trace
            .filter(|e| matches!(e, TraceEvent::SiteSuspected { .. }))
            .is_empty()
    });
    assert!(
        suspected,
        "silence across the cut link must raise suspicion"
    );
    // Probes keep refuting while the link stays down.
    let refuted = poll_until(Duration::from_secs(10), || {
        !trace
            .filter(|e| matches!(e, TraceEvent::SuspicionRefuted { .. }))
            .is_empty()
    });
    assert!(refuted, "indirect probes must vouch for the suspect");
    cluster.heal(0, 3);
    std::thread::sleep(Duration::from_millis(500));
    assert!(
        trace
            .filter(|e| matches!(e, TraceEvent::SiteGone { crashed: true, .. }))
            .is_empty(),
        "a one-link partition with working indirect paths must not kill anyone"
    );
    for i in 0..4 {
        assert_eq!(
            cluster.site(i).inner().cluster.known_sites().len(),
            4,
            "site {i} lost members over a healed partition"
        );
    }
}

/// A site paused past every timeout *is* declared dead (it is
/// indistinguishable from a crash) — but on resume it is fenced as a
/// zombie, told its death verdict, refutes with a bumped incarnation
/// and rejoins cleanly: the cluster reconverges to full membership and
/// no message from the dead incarnation was accepted.
#[test]
fn paused_site_rejoins_with_bumped_incarnation() {
    let trace = TraceLog::new();
    let mut cfg = detector_config();
    cfg.crash_timeout = Duration::from_millis(400);
    cfg.suspect_timeout = Duration::from_millis(150);
    let cluster = InProcessCluster::with_configs(vec![cfg; 4], Some(trace.clone())).unwrap();
    let victim = cluster.site(3).id();
    assert_eq!(cluster.site(3).descriptor().incarnation, 1);

    cluster.pause_site(3);
    let declared = poll_until(Duration::from_secs(10), || {
        !trace
            .filter(|e| matches!(e, TraceEvent::SiteGone { gone, crashed: true, .. } if *gone == victim))
            .is_empty()
    });
    assert!(
        declared,
        "a fully frozen site must eventually be declared dead"
    );

    cluster.resume_site(3);
    // The zombie's first post-resume messages carry the dead incarnation:
    // they must be fenced, never re-admitted silently.
    let fenced = poll_until(Duration::from_secs(10), || {
        !trace
            .filter(|e| matches!(e, TraceEvent::StaleIncarnation { from, .. } if *from == victim))
            .is_empty()
    });
    assert!(fenced, "messages from the dead incarnation must be fenced");
    // The death notice makes it bump and re-announce; everyone re-admits.
    let reconverged = poll_until(Duration::from_secs(10), || {
        (0..4).all(|i| cluster.site(i).inner().cluster.known_sites().len() == 4)
    });
    assert!(reconverged, "cluster must reconverge to full membership");
    assert!(
        cluster.site(3).descriptor().incarnation >= 2,
        "the rejoined site must live at a bumped incarnation"
    );
    // The re-admission happened through the *new* incarnation: a
    // SiteJoined for the victim must follow its SiteGone.
    let events = trace.events();
    let gone_at = events
        .iter()
        .position(
            |e| matches!(e, TraceEvent::SiteGone { gone, crashed: true, .. } if *gone == victim),
        )
        .unwrap();
    assert!(
        events[gone_at..]
            .iter()
            .any(|e| matches!(e, TraceEvent::SiteJoined { joined, .. } if *joined == victim)),
        "rejoin must be observable as SiteJoined after the death verdict"
    );
}

/// A site that hears itself suspected refutes the verdict: it bumps its
/// incarnation past the accused one and re-announces, and every peer
/// records the new incarnation with no suspicion left open.
#[test]
fn suspected_site_refutes_with_bumped_incarnation() {
    let cluster = InProcessCluster::with_configs(vec![detector_config(); 3], None).unwrap();
    let victim = cluster.site(2).id();
    let before = cluster.site(2).descriptor().incarnation;
    let gossip = SdMessage::new(
        cluster.site(0).id(),
        ManagerId::Cluster,
        victim,
        ManagerId::Cluster,
        1,
        Payload::SuspectSite {
            site: victim,
            incarnation: before,
        },
    );
    cluster.site(2).inner().dispatch(gossip);
    assert_eq!(
        cluster.site(2).descriptor().incarnation,
        before + 1,
        "the suspect must bump its incarnation past the accused one"
    );
    let converged = poll_until(Duration::from_secs(10), || {
        (0..2).all(|i| {
            cluster
                .site(i)
                .inner()
                .cluster
                .membership_view()
                .members
                .iter()
                .any(|m| m.site == victim && m.incarnation > before && !m.suspected)
        })
    });
    assert!(
        converged,
        "every peer must learn the bumped incarnation with no open suspicion"
    );
}

// ---- crash during recovery (succession hand-off) ----

fn encode_ring(count: u64, ring: &[GlobalAddress]) -> Value {
    let mut words = vec![count];
    for a in ring {
        words.push(a.home.0 as u64);
        words.push(a.local);
    }
    Value::from_u64_slice(&words)
}

fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

fn nth_prime(p: u64) -> u64 {
    let mut found = 0;
    let mut n = 1;
    loop {
        n += 1;
        if is_prime(n) {
            found += 1;
            if found == p {
                return n;
            }
        }
    }
}

fn primes_app(p: u64, width: usize, sleep_us: u64) -> AppBuilder {
    let mut app = AppBuilder::new("chaos-primes");
    app.thread("test", move |ctx| {
        let cand = ctx.param(0)?.as_u64()?;
        std::thread::sleep(Duration::from_micros(sleep_us));
        let isp = is_prime(cand);
        ctx.send(
            ctx.target(0)?,
            1,
            Value::from_u64_slice(&[cand, isp as u64]),
        )
    });
    app.thread("collect", move |ctx| {
        let words = ctx.param(0)?.as_u64_slice()?;
        let mut count = words[0];
        let mut ring: Vec<GlobalAddress> = words[1..]
            .chunks_exact(2)
            .map(|c| GlobalAddress::new(SiteId(c[0] as u32), c[1]))
            .collect();
        let v = ctx.param(1)?.as_u64_slice()?;
        let (cand, isp) = (v[0], v[1]);
        let rt = ctx.target(0)?;
        if isp == 1 {
            count += 1;
            if count == p {
                return ctx.send(rt, 0, Value::from_u64(cand));
            }
        }
        let nc = ctx.create_frame(1, 2, vec![rt], Default::default());
        let nt = ctx.create_frame(0, 1, vec![nc], Default::default());
        ctx.send(nt, 0, Value::from_u64(cand + width as u64))?;
        ring.push(nc);
        let nxt = ring.remove(0);
        ctx.send(nxt, 0, encode_ring(count, &ring))
    });
    app
}

fn launch_primes(cluster: &InProcessCluster, p: u64, width: usize, sleep_us: u64) -> ProgramHandle {
    let app = primes_app(p, width, sleep_us);
    cluster
        .site(0)
        .launch(&app, move |ctx, result| {
            let mut cs = vec![];
            for i in 0..width {
                let c = ctx.create_frame(1, 2, vec![result], Default::default());
                let t = ctx.create_frame(0, 1, vec![c], Default::default());
                ctx.send(t, 0, Value::from_u64(2 + i as u64))?;
                cs.push(c);
            }
            ctx.send(cs[0], 0, encode_ring(0, &cs[1..]))
        })
        .unwrap()
}

/// Satellite: a site crashes while it is reviving another site's
/// backups. The succession chain must hand the directory (and the
/// revived work) to the *next* live site without losing or
/// double-executing frames: the program still terminates with the right
/// answer, delivered exactly once.
#[test]
fn succession_survives_crash_during_recovery() {
    let trace = TraceLog::new();
    let mut cfg = detector_config();
    cfg.crash_timeout = Duration::from_millis(400);
    cfg.suspect_timeout = Duration::from_millis(150);
    let cluster = InProcessCluster::with_configs(vec![cfg; 5], Some(trace.clone())).unwrap();
    let p = 40u64;
    let handle = launch_primes(&cluster, p, 12, 10_000);
    // Let work spread, then kill site index 2 (id 3).
    std::thread::sleep(Duration::from_millis(300));
    let first_victim = cluster.site(2).id();
    cluster.crash(2);
    // As soon as its death is acted on (recovery under way somewhere),
    // kill its ring successor — the site most likely to be doing the
    // reviving right now.
    let acted = poll_until(Duration::from_secs(15), || {
        !trace
            .filter(|e| {
                matches!(e, TraceEvent::SiteGone { gone, crashed: true, .. } if *gone == first_victim)
            })
            .is_empty()
    });
    assert!(acted, "first crash never detected");
    cluster.crash(3);
    let result = handle.wait(WAIT).unwrap();
    assert_eq!(result.as_u64().unwrap(), nth_prime(p));
    // Exactly-once: the result channel delivered one value; a second
    // wait must find nothing (no duplicate delivery from re-executed
    // or doubly-revived result frames).
    assert!(
        handle.wait(Duration::from_millis(500)).is_err(),
        "result must be delivered exactly once"
    );
}
