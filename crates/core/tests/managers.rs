//! Manager-level behaviour on live sites: cluster bookkeeping,
//! attraction-memory protocol details, succession, load gossip and the
//! security envelope.

#![allow(clippy::field_reassign_with_default)] // config structs are built by mutation by design
#![allow(clippy::disallowed_methods)] // tests may unwrap

use sdvm_core::{DropReason, InProcessCluster, SiteConfig};
use sdvm_types::{ManagerId, SiteId, Value};
use sdvm_wire::Payload;
use std::time::Duration;

#[test]
fn cluster_view_converges_after_joins() {
    let mut cluster = InProcessCluster::new(1, SiteConfig::default()).unwrap();
    for _ in 0..4 {
        cluster.add_site(SiteConfig::default()).unwrap();
    }
    // The contact (site 0) knows everyone instantly; the others converge
    // as the SiteAnnounce gossip lands.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let complete =
            (0..cluster.len()).all(|i| cluster.site(i).inner().cluster.known_sites().len() == 5);
        if complete {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "views never converged: {:?}",
            (0..cluster.len())
                .map(|i| cluster.site(i).inner().cluster.known_sites().len())
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn successor_ring_and_succession_chain() {
    let cluster = InProcessCluster::new(3, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    // Ring over ids {1,2,3}.
    assert_eq!(s0.cluster.successor_of(SiteId(1)), Some(SiteId(2)));
    assert_eq!(s0.cluster.successor_of(SiteId(2)), Some(SiteId(3)));
    assert_eq!(
        s0.cluster.successor_of(SiteId(3)),
        Some(SiteId(1)),
        "ring wraps"
    );
    // No succession registered: identity.
    assert_eq!(s0.cluster.resolve_succession(SiteId(2)), SiteId(2));
}

#[test]
fn signoff_installs_succession() {
    let cluster = InProcessCluster::new(3, SiteConfig::default()).unwrap();
    let gone = cluster.site(1).id();
    cluster.sign_off(1).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let s0 = cluster.site(0).inner();
    assert!(!s0.cluster.known_sites().contains(&gone));
    let heir = s0.cluster.resolve_succession(gone);
    assert_ne!(
        heir, gone,
        "departed site's directory role must be inherited"
    );
}

#[test]
fn first_site_is_code_distribution_site() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s1 = cluster.site(1).inner();
    assert_eq!(
        s1.cluster.code_distribution_sites(),
        vec![SiteId(1)],
        "paper: the starting site is implicitly a code distribution site"
    );
}

#[test]
fn memory_local_alloc_read_write() {
    let cluster = InProcessCluster::new(1, SiteConfig::default()).unwrap();
    let s = cluster.site(0).inner();
    let program = sdvm_types::ProgramId(1);
    let a = s.memory.alloc(s, program, Value::from_u64(5));
    let b = s.memory.alloc(s, program, Value::from_u64(6));
    assert_ne!(a, b, "addresses are unique");
    assert_eq!(a.home, cluster.site(0).id(), "homesite is the creator");
    assert_eq!(s.memory.read(s, a, false).unwrap().as_u64().unwrap(), 5);
    s.memory.write(s, a, Value::from_u64(50)).unwrap();
    assert_eq!(s.memory.read(s, a, true).unwrap().as_u64().unwrap(), 50);
    let stats = s.memory.stats();
    assert_eq!((stats.objects, stats.frames), (2, 0));
    assert_eq!(stats.memory_bytes, 16);
    s.memory.purge_program(program);
    assert_eq!(s.memory.stats().objects, 0);
}

#[test]
fn remote_read_copy_vs_migrate() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let program = sdvm_types::ProgramId(1);
    let addr = s0.memory.alloc(s0, program, Value::from_u64(7));
    // Snapshot copy: object stays on site 1 (id 1).
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    assert_eq!(
        s0.memory.stats().objects,
        1,
        "copy must not move the object"
    );
    // Migrating read attracts it.
    assert_eq!(s1.memory.read(s1, addr, true).unwrap().as_u64().unwrap(), 7);
    assert_eq!(
        s0.memory.stats().objects,
        0,
        "object must have migrated away"
    );
    assert_eq!(s1.memory.stats().objects, 1);
    // Writes still reach it through the homesite directory.
    s0.memory.write(s0, addr, Value::from_u64(70)).unwrap();
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        70
    );
}

#[test]
fn ping_pong_between_sites() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    let reply = s0
        .request(
            cluster.site(1).id(),
            ManagerId::Site,
            ManagerId::Site,
            Payload::Ping { token: 1234 },
            Duration::from_secs(5),
        )
        .unwrap();
    assert_eq!(reply.payload, Payload::Pong { token: 1234 });
    assert_eq!(reply.src_site, cluster.site(1).id());
}

#[test]
fn load_gossip_flows_with_heartbeats() {
    let mut cfg = SiteConfig::default();
    cfg.heartbeat_interval = Duration::from_millis(30);
    let cluster = InProcessCluster::new(2, cfg).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    // Both sites have heard from each other recently (picked up via
    // note_load); pick_help_target therefore has candidates.
    let s0 = cluster.site(0).inner();
    assert_eq!(s0.cluster.pick_help_target(s0), Some(cluster.site(1).id()));
}

#[test]
fn unknown_payload_to_manager_yields_error_reply() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    // A Ping aimed at the *memory* manager is nonsense; the manager must
    // answer with an error instead of dropping the request.
    let reply = s0
        .request(
            cluster.site(1).id(),
            ManagerId::Memory,
            ManagerId::Memory,
            Payload::Ping { token: 1 },
            Duration::from_secs(5),
        )
        .unwrap();
    assert!(matches!(reply.payload, Payload::Error { .. }));
}

#[test]
fn program_manager_registers_and_terminates() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let mut app = sdvm_core::AppBuilder::new("meta");
    let t = app.thread("t", |ctx| {
        let tgt = ctx.target(0)?;
        ctx.send(tgt, 0, Value::from_u64(1))
    });
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let f = ctx.create_frame(t, 1, vec![result], Default::default());
            ctx.send(f, 0, Value::empty())
        })
        .unwrap();
    let s1 = cluster.site(1).inner();
    // The launch broadcast registered the program cluster-wide.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while s1.program.code_home(handle.program).is_none() {
        assert!(
            std::time::Instant::now() < deadline,
            "program never registered remotely"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        s1.program.code_home(handle.program),
        Some(cluster.site(0).id())
    );
    handle.wait(Duration::from_secs(30)).unwrap();
    // Termination propagates; the remote site marks it inactive.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while s1.program.is_active(handle.program) {
        assert!(
            std::time::Instant::now() < deadline,
            "termination never propagated"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
#[should_panic(expected = "at least one processing slot")]
fn zero_slots_rejected() {
    let mut cfg = SiteConfig::default();
    cfg.slots = 0;
    let _ = InProcessCluster::new(1, cfg);
}

#[test]
fn plaintext_site_cannot_join_encrypted_cluster() {
    let mut cluster =
        InProcessCluster::new(1, SiteConfig::default().with_password("secret")).unwrap();
    // A site with NO password at all: its plaintext sign-on is rejected
    // by the contact's security manager.
    let mut cfg = SiteConfig::default();
    cfg.request_timeout = Duration::from_millis(400);
    assert!(cluster.add_site(cfg).is_err());
}

#[test]
fn message_hops_follow_figure6_order() {
    use sdvm_core::{TraceEvent, TraceLog};
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![SiteConfig::default(); 2], Some(trace.clone()))
            .unwrap();
    let s0 = cluster.site(0).inner();
    s0.request(
        cluster.site(1).id(),
        ManagerId::Site,
        ManagerId::Site,
        Payload::Ping { token: 5 },
        Duration::from_secs(5),
    )
    .unwrap();
    // Outgoing: the Ping passes the message manager, then the network
    // manager — in that order (Fig. 6).
    let hops: Vec<(SiteId, ManagerId, bool)> = trace
        .timestamped()
        .into_iter()
        .filter_map(|b| match b.event {
            TraceEvent::MessageHop {
                payload: "Ping",
                manager,
                outgoing,
                ..
            } => Some((b.site, manager, outgoing)),
            _ => None,
        })
        .collect();
    let me = cluster.site(0).id();
    let peer = cluster.site(1).id();
    assert!(hops.len() >= 3, "{hops:?}");
    assert_eq!(hops[0], (me, ManagerId::Message, true));
    assert_eq!(hops[1], (me, ManagerId::Network, true));
    // Receiving side: delivered to the target manager.
    assert!(hops.contains(&(peer, ManagerId::Site, false)), "{hops:?}");
}

// ---- attraction memory v2: versioned read replicas ----

#[test]
fn replica_read_caches_and_serves_locally() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let addr = s0
        .memory
        .alloc(s0, sdvm_types::ProgramId(1), Value::from_u64(7));
    // First non-migrating read fetches remotely and caches a replica.
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    assert_eq!(s1.memory.replica_version(addr), Some(1), "replica cached");
    assert_eq!(s1.memory.stats().replicas, 1);
    let misses = s1.metrics.mem_replica_misses.get();
    assert!(misses >= 1, "first read is a miss");
    // Second read is served from the cache, no new miss.
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    assert!(s1.metrics.mem_replica_hits.get() >= 1, "repeat read hits");
    assert_eq!(s1.metrics.mem_replica_misses.get(), misses);
    // The owner tracks the reader in its copyset; the object stayed put.
    assert_eq!(s0.memory.stats().objects, 1);
}

#[test]
fn write_invalidates_remote_replicas() {
    use sdvm_core::{TraceEvent, TraceLog};
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![SiteConfig::default(); 2], Some(trace.clone()))
            .unwrap();
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let addr = s0
        .memory
        .alloc(s0, sdvm_types::ProgramId(1), Value::from_u64(7));
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    assert_eq!(s1.memory.replica_version(addr), Some(1));
    // Owner writes: the copyset gets ReplicaInvalidate, s1 drops its copy.
    s0.memory.write(s0, addr, Value::from_u64(70)).unwrap();
    assert_eq!(
        s0.memory.object_version(addr),
        Some(2),
        "write bumps version"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while s1.memory.replica_version(addr).is_some() {
        assert!(
            std::time::Instant::now() < deadline,
            "invalidation never landed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(s1.metrics.mem_invalidations.get() >= 1);
    // The next read re-fetches the new value (and the new version).
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        70
    );
    assert_eq!(s1.memory.replica_version(addr), Some(2));
    // The counter agrees with the events, once both sites are stopped.
    cluster.crash(0);
    cluster.crash(1);
    assert_eq!(trace.dropped(), 0);
    assert_eq!(
        s0.metrics.mem_invalidations.get() + s1.metrics.mem_invalidations.get(),
        trace
            .filter(|e| matches!(e, TraceEvent::ReplicaInvalidated { .. }))
            .len() as u64
    );
}

#[test]
fn replica_ttl_bounds_staleness() {
    let mut config = SiteConfig::default().with_replica_ttl(Duration::from_millis(30));
    config.crash_tolerance = false;
    let cluster = InProcessCluster::new(2, config).unwrap();
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let addr = s0
        .memory
        .alloc(s0, sdvm_types::ProgramId(1), Value::from_u64(7));
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    let misses = s1.metrics.mem_replica_misses.get();
    std::thread::sleep(Duration::from_millis(60));
    // The lease expired: even with the replica still cached, the read
    // goes remote again instead of trusting a possibly-stale copy.
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    assert!(s1.metrics.mem_replica_misses.get() > misses);
}

#[test]
fn replica_reads_can_be_disabled() {
    let cluster = InProcessCluster::new(2, SiteConfig::default().without_replica_reads()).unwrap();
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let addr = s0
        .memory
        .alloc(s0, sdvm_types::ProgramId(1), Value::from_u64(7));
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    assert_eq!(s1.memory.replica_version(addr), None, "no replica cached");
    assert_eq!(s1.memory.stats().replicas, 0);
}

#[test]
fn migration_leaves_forwarding_hint() {
    let cluster = InProcessCluster::new(3, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let s2 = cluster.site(2).inner();
    let addr = s0
        .memory
        .alloc(s0, sdvm_types::ProgramId(1), Value::from_u64(7));
    // Attract the object to site 1.
    assert_eq!(s1.memory.read(s1, addr, true).unwrap().as_u64().unwrap(), 7);
    // Ask the *old* owner directly: it must answer MemMissing with a
    // forwarding hint pointing at the new owner.
    let reply = s2
        .request(
            cluster.site(0).id(),
            ManagerId::Memory,
            ManagerId::Memory,
            Payload::MemRead {
                addr,
                migrate: false,
                replica: false,
            },
            Duration::from_secs(5),
        )
        .unwrap();
    match reply.payload {
        Payload::MemMissing { hint, .. } => {
            assert_eq!(hint, Some(cluster.site(1).id()), "hint chases migration");
        }
        other => panic!("expected MemMissing with hint, got {}", other.name()),
    }
    // And a full read through the protocol still resolves.
    assert_eq!(
        s2.memory.read(s2, addr, false).unwrap().as_u64().unwrap(),
        7
    );
}

#[test]
fn shard_contention_is_reported_per_shard() {
    let cluster = InProcessCluster::new(1, SiteConfig::default().with_mem_shards(4)).unwrap();
    let s = cluster.site(0).inner();
    assert_eq!(s.memory.shard_count(), 4);
    assert_eq!(s.memory.stats().shard_contention.len(), 4);
}

#[test]
fn purge_program_drops_replicas_and_copysets() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let program = sdvm_types::ProgramId(1);
    let addr = s0.memory.alloc(s0, program, Value::from_u64(7));
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    assert_eq!(s1.memory.stats().replicas, 1);
    s1.memory.purge_program(program);
    assert_eq!(s1.memory.stats().replicas, 0, "purge drops cached replicas");
    s1.memory.purge_replicas(program); // idempotent
    assert_eq!(s1.memory.stats().replicas, 0);
}

/// The owner `home`'s directory records for `addr`, asked over the wire.
fn directory_entry(
    asker: &sdvm_core::site::SiteInner,
    home: SiteId,
    addr: sdvm_types::GlobalAddress,
) -> Option<SiteId> {
    let reply = asker
        .request(
            home,
            ManagerId::Memory,
            ManagerId::Memory,
            Payload::OwnerQuery { addr },
            Duration::from_secs(5),
        )
        .unwrap();
    match reply.payload {
        Payload::OwnerReply { owner, .. } => owner,
        other => panic!("expected OwnerReply, got {}", other.name()),
    }
}

fn poll_until(mut cond: impl FnMut() -> bool) -> bool {
    let end = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn write_and_read_chase_a_stale_directory_through_the_hint() {
    let cluster = InProcessCluster::new(3, SiteConfig::default()).unwrap();
    let (s0, s1, s2) = (
        cluster.site(0).inner(),
        cluster.site(1).inner(),
        cluster.site(2).inner(),
    );
    let (id0, id1, id2) = (
        cluster.site(0).id(),
        cluster.site(1).id(),
        cluster.site(2).id(),
    );
    let addr = s0
        .memory
        .alloc(s0, sdvm_types::ProgramId(1), Value::from_u64(7));
    // Migrating reads move the object 0 → 1 → 2; site 1 keeps a hint.
    assert_eq!(s1.memory.read(s1, addr, true).unwrap().as_u64().unwrap(), 7);
    assert_eq!(s2.memory.read(s2, addr, true).unwrap().as_u64().unwrap(), 7);
    assert_eq!(s1.memory.recorded_hint(addr), Some(id2));
    assert!(poll_until(|| directory_entry(s1, id0, addr) == Some(id2)));
    // A late directory update leaves the home pointing at site 1.
    s1.send_payload(
        id0,
        ManagerId::Memory,
        ManagerId::Memory,
        s1.next_seq(),
        Payload::OwnerUpdate { addr, owner: id1 },
    )
    .unwrap();
    assert!(poll_until(|| directory_entry(s1, id0, addr) == Some(id1)));

    // Both chases ask site 1, follow its hint to site 2: two hops each.
    s0.memory.write(s0, addr, Value::from_u64(99)).unwrap();
    let hops = s0.metrics.mem_chase_hops.snapshot();
    assert_eq!(
        (hops.count, hops.sum_us),
        (1, 2),
        "write: one chase of two hops"
    );
    assert_eq!(
        s0.memory.read(s0, addr, false).unwrap().as_u64().unwrap(),
        99
    );
    let hops = s0.metrics.mem_chase_hops.snapshot();
    assert_eq!(
        (hops.count, hops.sum_us),
        (2, 4),
        "read: one chase of two hops"
    );
    assert_eq!(
        s2.memory.object_version(addr),
        Some(2),
        "written at the owner"
    );
}

#[test]
fn result_path_forwards_once_and_counts_a_stale_self_owner() {
    use sdvm_core::{DropReason, Microframe, TraceEvent, TraceLog};
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![SiteConfig::default(); 3], Some(trace.clone()))
            .unwrap();
    let (s0, s1, s2) = (
        cluster.site(0).inner(),
        cluster.site(1).inner(),
        cluster.site(2).inner(),
    );
    let (id0, id1, id2) = (
        cluster.site(0).id(),
        cluster.site(1).id(),
        cluster.site(2).id(),
    );
    let thread = sdvm_types::MicrothreadId::new(sdvm_types::ProgramId(1), 0);
    let frame = |s: &sdvm_core::site::SiteInner| {
        Microframe::new(
            s.memory.fresh_address(s),
            thread,
            2,
            vec![],
            Default::default(),
        )
    };

    // A frame homed on site 0 and owned by site 1.
    let moved = frame(s0);
    let target = moved.id;
    s0.memory.create_frame(s0, moved);
    let moved = s0.memory.take_frame(target).unwrap();
    s1.memory.adopt_frame(s1, moved);
    assert!(poll_until(|| directory_entry(s1, id0, target) == Some(id1)));

    // Site 2 resolves the owner at the home once, then forwards once.
    s2.memory
        .apply_or_forward(s2, target, 0, Value::from_u64(3))
        .unwrap();
    let sent = |payload: &str| {
        trace
            .timestamped()
            .iter()
            .filter(|b| {
                matches!(b.event, TraceEvent::MessageHop { manager: ManagerId::Message, outgoing: true, payload: p, .. }
                    if b.site == id2 && p == payload)
            })
            .count()
    };
    assert_eq!(sent("OwnerQuery"), 1);
    assert_eq!(sent("ApplyResult"), 1);
    assert!(poll_until(|| s1
        .memory
        .incomplete_frames()
        .iter()
        .any(|(id, _, missing, _)| *id == target && *missing == 1)));

    // The directory names site 0 itself, but the frame left `frames`.
    let stale = frame(s0);
    let stale_id = stale.id;
    s0.memory.create_frame(s0, stale);
    assert!(s0.memory.take_frame(stale_id).is_some());
    s0.memory
        .apply_or_forward(s0, stale_id, 0, Value::from_u64(4))
        .unwrap();
    let dropped = s0.metrics.snapshot().dropped;
    let reason = format!("{:?}", DropReason::StaleOwnerSelf);
    assert!(
        dropped.contains(&(reason, 1)),
        "one stale_owner_self drop: {dropped:?}"
    );
}

#[test]
fn drain_tells_the_home_of_a_relocated_object() {
    let cluster = InProcessCluster::new(3, SiteConfig::default()).unwrap();
    let (s0, s1) = (cluster.site(0).inner(), cluster.site(1).inner());
    let addr = s0
        .memory
        .alloc(s0, sdvm_types::ProgramId(1), Value::from_u64(7));
    // The object lives on site 2; its home is site 1.
    assert_eq!(s1.memory.read(s1, addr, true).unwrap().as_u64().unwrap(), 7);
    assert_eq!(s1.memory.stats().objects, 1);
    // Site 2 signs off; its successor, site 3, inherits the object.
    cluster.sign_off(1).unwrap();
    assert_eq!(cluster.site(2).inner().memory.stats().objects, 1);
    // The home must find it there, not at the departed site.
    assert_eq!(
        s0.memory.read(s0, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    s0.memory.write(s0, addr, Value::from_u64(8)).unwrap();
    assert_eq!(
        s0.memory.read(s0, addr, false).unwrap().as_u64().unwrap(),
        8
    );
}

/// Send `body` to site 0 from a raw hub endpoint, as a hostile or broken
/// peer would, and check that `reason`, and no other reason, counts it
/// exactly once, with at most one message counted as received.
fn assert_dropped_once(cluster: &InProcessCluster, body: &[u8], reason: DropReason) {
    use sdvm_net::Transport;
    let inner = cluster.site(0).inner();
    let before = inner.metrics.snapshot();
    let idx = reason as usize;
    cluster
        .hub()
        .endpoint()
        .send_body(&cluster.site(0).addr(), body)
        .unwrap();
    assert!(
        poll_until(|| inner.metrics.snapshot().dropped[idx].1 > before.dropped[idx].1),
        "{reason:?} was never counted"
    );
    std::thread::sleep(Duration::from_millis(50));
    let after = inner.metrics.snapshot();
    for (i, (name, n)) in after.dropped.iter().enumerate() {
        let expect = before.dropped[i].1 + u64::from(i == idx);
        assert_eq!(
            *n, expect,
            "sdvm_dropped_total{{reason={name}}} after a {reason:?}"
        );
    }
    assert!(after.messages_received - before.messages_received <= 1);
}

/// Every discard on the receive path is counted under its own reason:
/// an envelope that does not open, a batch whose interior does not
/// parse, a record that does not decode, a message for a manager that
/// handles none, and a reply nobody waits for.
#[test]
fn receive_path_discards_are_counted_once_each() {
    use bytes::BytesMut;
    use sdvm_crypto::{KeyStore, NONCE_PREFIX_LEN};
    use sdvm_wire::SdMessage;

    let sealed = InProcessCluster::new(1, SiteConfig::default().with_password("pw")).unwrap();
    assert_dropped_once(&sealed, b"garbage", DropReason::Unauthenticated);
    // A batch record sealed with the cluster key (tag 3, sender 77)
    // whose interior declares one record of 100 bytes and carries one.
    let mut batch = BytesMut::from(&[3u8, 77, 0, 0, 0][..]);
    batch.resize(batch.len() + NONCE_PREFIX_LEN, 0);
    batch.extend_from_slice(&[1, 100, 0xaa]);
    let me = sealed.site(0).id().0;
    KeyStore::from_password(77, "pw").seal_for_in_place(me, &mut batch, 5);
    assert_dropped_once(&sealed, &batch, DropReason::MalformedBatch);

    let plain = InProcessCluster::new(1, SiteConfig::default()).unwrap();
    assert_dropped_once(&plain, &[0, 0xde, 0xad], DropReason::Undecodable);
    let me = plain.site(0).id();
    let ping = |dst_manager| {
        let token = Payload::Ping { token: 7 };
        SdMessage::new(SiteId::NONE, ManagerId::Site, me, dst_manager, 1, token)
    };
    let plain_record = |msg: SdMessage| [&[0u8][..], &msg.to_bytes()].concat();
    assert_dropped_once(
        &plain,
        &plain_record(ping(ManagerId::Processing)),
        DropReason::NoSuchManager,
    );
    let mut reply = ping(ManagerId::Site);
    reply.in_reply_to = Some(u64::MAX);
    assert_dropped_once(&plain, &plain_record(reply), DropReason::UnclaimedReply);
}
