//! Crash detection: the heartbeat tick and the two-phase (SWIM-style)
//! suspect/probe/verdict logic.

use super::{ring_successor, ClusterManager, DeadEntry, Suspicion};
use crate::site::SiteInner;
use crate::trace::TraceEvent;
use sdvm_types::{ManagerId, SiteId};
use sdvm_wire::Payload;
use std::collections::HashSet;
use std::time::Instant;

/// How many other members are asked to probe a suspect indirectly.
const PROBE_FANOUT: usize = 3;

/// Distinct accusers (this site included) whose gossiped suspicions
/// escalate a suspect to crashed before `crash_timeout` elapses. Two, so
/// one site's view alone never convicts.
const SUSPICION_QUORUM: usize = 2;

impl ClusterManager {
    // ---- heartbeats & crash detection ----

    /// One maintenance tick: gossip load, detect crashes.
    pub fn heartbeat_tick(&self, site: &SiteInner) {
        let me = site.my_id();
        if !me.is_valid() {
            return;
        }
        let load = self.my_load(site);
        let targets: Vec<SiteId> = {
            let mut st = self.state.lock();
            let mut ids: Vec<SiteId> = st.sites.keys().copied().filter(|&s| s != me).collect();
            ids.sort_unstable();
            if ids.is_empty() {
                Vec::new()
            } else {
                let start = st.hb_rr;
                st.hb_rr = st.hb_rr.wrapping_add(1);
                (0..ids.len().min(3))
                    .map(|i| ids[(start + i) % ids.len()])
                    .collect()
            }
        };
        // Ops-plane rollup (wire v7): condense the local metrics into a
        // small cumulative digest, remember our own contribution, and
        // piggyback the digest on the same heartbeat fan-out. Receivers
        // store digests latest-wins, so *any* site can serve cluster
        // totals without a central scrape.
        let summary = crate::telemetry::digest_of(&site.metrics);
        site.rollup.record(me, summary.clone());
        // Piggyback our Vivaldi coordinate (wire v9) on every heartbeat:
        // receivers learn where we sit without any extra traffic.
        let coord = Some(self.my_coord());
        for t in targets {
            let _ = site.send_payload(
                t,
                ManagerId::Cluster,
                ManagerId::Cluster,
                site.next_seq(),
                Payload::Heartbeat { load, coord },
            );
            let _ = site.send_payload(
                t,
                ManagerId::Cluster,
                ManagerId::Cluster,
                site.next_seq(),
                Payload::MetricsSummary {
                    summary: summary.clone(),
                },
            );
        }
        if self.crash_tolerance {
            self.detect_crashes(site);
        }
    }

    /// The two-phase detector (SWIM-style). Silence past
    /// `suspect_timeout` only *suspects* a site and fans out indirect
    /// probes; the verdict needs silence past `crash_timeout` or a quorum
    /// of independent accusers.
    fn detect_crashes(&self, site: &SiteInner) {
        let me = site.my_id();
        let now = Instant::now();
        let mut to_suspect: Vec<(SiteId, u64)> = Vec::new();
        let mut to_declare: Vec<SiteId> = Vec::new();
        {
            let mut st = self.state.lock();
            let ids: Vec<SiteId> = st.sites.keys().copied().filter(|&s| s != me).collect();
            for s in ids {
                let Some(heard) = st.last_heard.get(&s).copied() else {
                    continue;
                };
                let silent_for = now.duration_since(heard);
                if let Some(susp) = st.suspects.get_mut(&s) {
                    // Join the accusation only on our *own* observation
                    // of silence — a gossiped suspicion alone must not
                    // multiply accusers.
                    if silent_for > self.suspect_timeout {
                        susp.accusers.insert(me);
                    }
                    if silent_for > self.crash_timeout || susp.accusers.len() >= SUSPICION_QUORUM {
                        to_declare.push(s);
                    }
                } else if silent_for > self.suspect_timeout {
                    let incarnation = st.incarnations.get(&s).copied().unwrap_or(1);
                    let mut accusers = HashSet::new();
                    accusers.insert(me);
                    st.suspects.insert(s, Suspicion { accusers });
                    to_suspect.push((s, incarnation));
                }
            }
        }
        for (s, incarnation) in to_suspect {
            self.start_suspicion(site, s, incarnation);
        }
        for d in to_declare {
            self.declare_crashed(site, d, true);
        }
    }

    /// Announce a fresh suspicion: gossip it, ask up to [`PROBE_FANOUT`]
    /// members to probe the suspect indirectly, and ping it directly.
    /// Any resulting message from the suspect clears the suspicion on
    /// its way through [`ClusterManager::observe_inbound`].
    fn start_suspicion(&self, site: &SiteInner, suspect: SiteId, incarnation: u64) {
        let me = site.my_id();
        site.emit(TraceEvent::SiteSuspected { suspect });
        let mut peers: Vec<SiteId> = self
            .known_sites()
            .into_iter()
            .filter(|&s| s != me && s != suspect)
            .collect();
        for &p in &peers {
            let _ = site.send_payload(
                p,
                ManagerId::Cluster,
                ManagerId::Cluster,
                site.next_seq(),
                Payload::SuspectSite {
                    site: suspect,
                    incarnation,
                },
            );
        }
        // Probe victims nearest-first (wire v9): a close prober's verdict
        // comes back sooner, shrinking the suspicion window. Uniform
        // (id-order) fanout until the coordinate converges.
        self.rank_by_proximity(&mut peers);
        let my_coord = Some(self.my_coord());
        for &p in peers.iter().take(PROBE_FANOUT) {
            let _ = site.send_payload(
                p,
                ManagerId::Cluster,
                ManagerId::Cluster,
                site.next_seq(),
                Payload::ProbeRequest {
                    target: suspect,
                    coord: my_coord,
                },
            );
        }
        // Direct probe: a live-but-slow suspect's Pong refutes through
        // the normal dispatch path.
        Self::ping(site, suspect, |_, _| {});
    }

    /// Ping `target` from a helper thread; an answer feeds the measured
    /// round trip into this site's coordinate, then goes to `on_pong`
    /// with the target's incarnation. `help_timeout` keeps a dead target
    /// from pinning the helper.
    pub(super) fn ping(
        site: &SiteInner,
        target: SiteId,
        on_pong: impl FnOnce(&SiteInner, u64) + Send + 'static,
    ) {
        site.spawn_task(move |s| {
            let asked = Instant::now();
            let Ok(reply) = s.request(
                target,
                ManagerId::Site,
                ManagerId::Cluster,
                Payload::Ping {
                    token: target.0 as u64,
                },
                s.config.help_timeout,
            ) else {
                return;
            };
            if matches!(reply.payload, Payload::Pong { .. }) {
                s.cluster.observe_rtt(target, asked.elapsed());
                on_pong(s, reply.src_incarnation);
            }
        });
    }

    /// A peer gossiped a suspicion. Three cases: the suspect is *us*
    /// (refute with a bumped incarnation), we have fresh evidence the
    /// suspect lives (vouch for it to the accuser), or we join the
    /// accusation — enough independent accusers convict before
    /// `crash_timeout`.
    pub(super) fn on_suspect_gossip(
        &self,
        site: &SiteInner,
        accuser: SiteId,
        suspect: SiteId,
        incarnation: u64,
    ) {
        if suspect == site.my_id() {
            return self.refute(site, incarnation);
        }
        // Record the accusation. Deliberately no vouch-from-memory here:
        // only a *live* Pong from the suspect (direct traffic through
        // observe_inbound, or a ProbeAck relayed after a real probe) may
        // refute — answering from a stale `last_heard` would let two
        // accusers endlessly re-vouch each other's cleared suspicions of
        // a genuinely dead site. If the suspect lives, the probes this
        // accuser fanned out will clear the entry within a tick.
        let convicted = {
            let mut st = self.state.lock();
            if !st.sites.contains_key(&suspect) {
                return; // unknown or already removed — nothing to judge
            }
            let entry = st.suspects.entry(suspect).or_insert_with(|| Suspicion {
                accusers: HashSet::new(),
            });
            entry.accusers.insert(accuser);
            entry.accusers.len() >= SUSPICION_QUORUM
        };
        if convicted {
            self.declare_crashed(site, suspect, true);
        }
    }

    /// Refute a verdict against this site (a gossiped suspicion, or a
    /// death notice from a site that fenced us): bump past the `accused`
    /// incarnation and re-announce, so every member withdraws its
    /// suspicion or lifts its tombstone.
    pub(super) fn refute(&self, site: &SiteInner, accused: u64) {
        let bumped = site.bump_incarnation_to(accused + 1);
        let descriptor = {
            let mut st = self.state.lock();
            let Some(me) = st.me.as_mut() else { return };
            me.incarnation = bumped;
            let d = me.clone();
            st.sites.insert(d.site, d.clone());
            d
        };
        site.broadcast(ManagerId::Cluster, Payload::SiteAnnounce { descriptor });
    }

    /// Remove a site as crashed, computing the successor locally (the
    /// detector's path); see [`ClusterManager::declare_crashed_with`].
    pub fn declare_crashed(&self, site: &SiteInner, dead: SiteId, originator: bool) {
        self.declare_crashed_with(site, dead, originator, None, 0)
    }

    /// Remove a site as crashed; `originator` broadcasts the verdict.
    /// `announced` carries the successor chosen by whoever detected the
    /// crash first — all sites must install the *same* succession entry,
    /// so a broadcast verdict always wins over a local recomputation
    /// (membership views can diverge transiently). `incarnation_floor`
    /// threads the originator's fencing floor into relayed verdicts; the
    /// tombstone fences every incarnation at or below the highest floor
    /// any site knows, so the dead site can only return by bumping past it.
    pub fn declare_crashed_with(
        &self,
        site: &SiteInner,
        dead: SiteId,
        originator: bool,
        announced: Option<SiteId>,
        incarnation_floor: u64,
    ) {
        let (successor, floor) = {
            let mut st = self.state.lock();
            let heard = st.last_heard.get(&dead).copied();
            let known = st.incarnations.get(&dead).copied().unwrap_or(0);
            let Some(removed) = st.forget(dead) else {
                return; // already handled
            };
            // Detection latency: how long the peer was silent (by our
            // firsthand clock) before the verdict landed. Relayed
            // verdicts measure the same silence as observed here.
            if let Some(heard) = heard {
                site.metrics
                    .detection_latency_us
                    .observe(heard.elapsed().as_micros() as u64);
            }
            let floor = incarnation_floor.max(known).max(removed.incarnation);
            st.dead.insert(
                dead,
                DeadEntry {
                    floor,
                    addr: removed.addr,
                    last_notice: None,
                },
            );
            let successor = announced
                .or_else(|| ring_successor(st.sites.keys().copied(), dead))
                .unwrap_or(site.my_id());
            st.succession.insert(dead, successor);
            (successor, floor)
        };
        Self::gone(site, dead, true);
        // The dead site's homesite directory died with it: re-register
        // our locally owned state homed there with the successor.
        site.memory.reregister_after_crash(site, dead);
        if originator {
            site.broadcast(
                ManagerId::Cluster,
                Payload::SiteCrashed {
                    site: dead,
                    successor,
                    incarnation: floor,
                },
            );
        }
        // Revive whatever we hold in backup for the dead site.
        site.spawn_recovery(dead);
    }

    /// The tail every departure shares, crash or sign-off: forget the
    /// member's session key and its metrics digest (it stops contributing
    /// to the cluster rollup), then announce it gone.
    pub(super) fn gone(site: &SiteInner, gone: SiteId, crashed: bool) {
        site.security.forget(gone);
        site.rollup.forget(gone);
        site.emit(TraceEvent::SiteGone { gone, crashed });
    }
}
