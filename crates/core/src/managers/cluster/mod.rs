//! The cluster manager (paper §4): cluster list, sign-on/sign-off,
//! logical-id allocation, help-target selection, heartbeats and crash
//! detection.
//!
//! This module keeps the membership state and its views, the Vivaldi
//! glue, help targeting and the message handler. `detector` holds the
//! heartbeat tick and the SWIM suspect/probe/verdict logic, `idalloc`
//! the three id concepts and the server side of sign-on, and `drain`
//! the orderly departure.

mod detector;
mod drain;
mod idalloc;

use crate::site::SiteInner;
use crate::trace::{DropReason, TraceEvent};
use idalloc::{handle_signon_blocking, AllocState};
use parking_lot::{Mutex, MutexGuard};
use sdvm_types::{
    policy, Candidate, Coord, IdAllocStrategy, LoadReport, ManagerId, PhysicalAddr, SdvmError,
    SdvmResult, SiteDescriptor, SiteId, VivaldiState,
};
use sdvm_wire::{Payload, SdMessage};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// An open suspicion against a silent site (first phase of the
/// two-phase detector).
struct Suspicion {
    /// Distinct sites (self included) that independently suspect it.
    accusers: HashSet<SiteId>,
}

/// Tombstone for a declared-dead site: every incarnation at or below
/// `floor` is fenced as a zombie.
struct DeadEntry {
    /// Highest incarnation covered by the death verdict.
    floor: u64,
    /// Last known physical address (for fencing notices).
    addr: PhysicalAddr,
    /// Rate limiter on outgoing [`Payload::DeathNotice`]s.
    last_notice: Option<Instant>,
}

/// Minimum delay between fencing notices to the same zombie.
const DEATH_NOTICE_INTERVAL: Duration = Duration::from_millis(200);

/// One live member as seen by this site's cluster manager (ops plane).
#[derive(Clone, Debug)]
pub struct MemberView {
    /// Logical site id.
    pub site: SiteId,
    /// Highest incarnation observed for it.
    pub incarnation: u64,
    /// Whether an open suspicion exists against it.
    pub suspected: bool,
    /// Distinct accusers behind the open suspicion (0 when none).
    pub accusers: usize,
    /// Time since this site last heard from it.
    pub silent_for: Duration,
    /// Its last gossiped load report.
    pub load: LoadReport,
    /// Whether it announced a planned departure (`SiteDraining`).
    pub draining: bool,
}

/// One death tombstone (ops plane).
#[derive(Clone, Copy, Debug)]
pub struct DeadView {
    /// The dead site.
    pub site: SiteId,
    /// Fencing floor: incarnations at or below are zombies.
    pub floor: u64,
}

/// Point-in-time membership snapshot served by the ops plane.
#[derive(Clone, Debug, Default)]
pub struct MembershipView {
    /// Live members, sorted by site id.
    pub members: Vec<MemberView>,
    /// Death tombstones, sorted by site id.
    pub dead: Vec<DeadView>,
    /// Crash succession pairs `(dead, successor)`, sorted.
    pub succession: Vec<(SiteId, SiteId)>,
}

struct ClusterState {
    me: Option<SiteDescriptor>,
    sites: HashMap<SiteId, SiteDescriptor>,
    loads: HashMap<SiteId, LoadReport>,
    last_heard: HashMap<SiteId, Instant>,
    /// Departed site → inheritor of its homesite-directory role.
    succession: HashMap<SiteId, SiteId>,
    announced_to: HashSet<SiteId>,
    /// Logical ids handed out by this site but not yet visible in
    /// `sites` (the learn() happens after the ack): prevents two
    /// concurrent sign-ons from receiving the same bootstrap id.
    handed_out: HashSet<u32>,
    /// Highest incarnation each member is known to live at.
    incarnations: HashMap<SiteId, u64>,
    /// Open suspicions (two-phase detector).
    suspects: HashMap<SiteId, Suspicion>,
    /// Declared-dead sites and the incarnation floor that fences them.
    dead: HashMap<SiteId, DeadEntry>,
    /// Members that gossiped a planned departure (`SiteDraining`, wire
    /// v8): still alive and answering, but excluded from help targeting,
    /// successor/backup-buddy selection and program announcements. An
    /// entry clears on the site's `SignOff` or on a fresh descriptor
    /// (the drain was aborted / the site rejoined).
    draining: HashSet<SiteId>,
    /// Current central id server (`CentralServer` strategy): the first
    /// site from birth, moved to the successor when the server drains
    /// (the drain hands the counter over in an `IdBlockGrant`, and the
    /// `SignOff` names the inheritor for everyone else).
    id_server: SiteId,
    alloc: AllocState,
    rr: usize,
    hb_rr: usize,
    /// This site's Vivaldi coordinate (wire v9), fed by RTT samples from
    /// traffic that already flows (help requests, direct probes).
    vivaldi: VivaldiState,
    /// Latest gossiped coordinate per peer (heartbeats, probe acks).
    coords: HashMap<SiteId, Coord>,
}

impl ClusterState {
    /// Drop every per-member record of `gone`; returns its descriptor,
    /// or `None` when it was no member.
    fn forget(&mut self, gone: SiteId) -> Option<SiteDescriptor> {
        self.loads.remove(&gone);
        self.last_heard.remove(&gone);
        self.announced_to.remove(&gone);
        self.incarnations.remove(&gone);
        self.suspects.remove(&gone);
        self.draining.remove(&gone);
        self.coords.remove(&gone);
        self.sites.remove(&gone)
    }
}

/// The next id after `of` in id order, wrapping to the smallest (the
/// ring successor).
fn ring_successor(ids: impl Iterator<Item = SiteId>, of: SiteId) -> Option<SiteId> {
    let ids: Vec<SiteId> = ids.filter(|&s| s != of).collect();
    let after = ids.iter().copied().filter(|&s| s > of).min();
    after.or_else(|| ids.iter().copied().min())
}

/// The cluster manager of one site.
pub struct ClusterManager {
    state: Mutex<ClusterState>,
    strategy: IdAllocStrategy,
    crash_tolerance: bool,
    crash_timeout: Duration,
    suspect_timeout: Duration,
}

impl ClusterManager {
    /// Build from the site config.
    pub fn new(config: &crate::config::SiteConfig) -> Self {
        ClusterManager {
            state: Mutex::new(ClusterState {
                me: None,
                sites: HashMap::new(),
                loads: HashMap::new(),
                last_heard: HashMap::new(),
                succession: HashMap::new(),
                announced_to: HashSet::new(),
                handed_out: HashSet::new(),
                incarnations: HashMap::new(),
                suspects: HashMap::new(),
                dead: HashMap::new(),
                draining: HashSet::new(),
                id_server: SiteId::FIRST,
                alloc: AllocState::Client,
                rr: 0,
                hb_rr: 0,
                vivaldi: VivaldiState::default(),
                coords: HashMap::new(),
            }),
            strategy: config.id_alloc,
            crash_tolerance: config.crash_tolerance,
            crash_timeout: config.crash_timeout,
            suspect_timeout: config.suspect_timeout,
        }
    }

    /// Initialize as the first site of a fresh cluster (id server role).
    pub fn init_first(&self, site: &SiteInner) {
        let mut st = self.state.lock();
        let mut desc = Self::build_descriptor(site);
        // The first site implicitly acts as a code distribution site
        // (paper: "the site where the SDVM application was started, is
        // implicitly a code distribution site").
        desc.code_distribution = true;
        st.sites.insert(desc.site, desc.clone());
        st.me = Some(desc);
        st.alloc = match self.strategy {
            IdAllocStrategy::CentralServer => AllocState::Central { next: 2 },
            IdAllocStrategy::Contingents => AllocState::Ranges {
                ranges: vec![(2, u32::MAX / 2)],
            },
            IdAllocStrategy::Modulo { servers } => AllocState::Modulo {
                slot: 0,
                servers,
                next: 1 + servers,
            },
        };
    }

    /// A descriptor built fresh from the site's config and current
    /// identity (not the announced copy, which the first site marks as a
    /// code distribution site).
    pub(crate) fn build_descriptor(site: &SiteInner) -> SiteDescriptor {
        let mut d = SiteDescriptor::new(
            site.my_id(),
            site.transport.local_addr(),
            site.config.platform,
        );
        d.incarnation = site.my_incarnation();
        d
    }

    /// This site's current descriptor.
    pub fn my_descriptor(&self, site: &SiteInner) -> SiteDescriptor {
        self.state
            .lock()
            .me
            .clone()
            .unwrap_or_else(|| Self::build_descriptor(site))
    }

    /// Current load report of this site (for gossip and help requests).
    pub fn my_load(&self, site: &SiteInner) -> LoadReport {
        let (queued_frames, busy_slots) = site.scheduling.load_numbers();
        let mem = site.memory.stats();
        LoadReport {
            queued_frames,
            busy_slots,
            programs: site.program.active_count(),
            memory_bytes: mem.memory_bytes,
            epoch: site.scheduling.next_epoch(),
        }
    }

    // ---- membership ----

    /// Join a cluster through `contact` (blocking handshake, §3.4).
    pub fn sign_on(&self, site: &SiteInner, contact: &PhysicalAddr) -> SdvmResult<()> {
        let descriptor = Self::build_descriptor(site); // id still NONE
        let reply = site.request_addr(
            contact,
            ManagerId::Cluster,
            ManagerId::Cluster,
            Payload::SignOn { descriptor },
            site.config.request_timeout,
        )?;
        match reply.payload {
            Payload::SignOnAck { assigned, cluster } => {
                site.set_id(assigned);
                let mut st = self.state.lock();
                let mut desc = Self::build_descriptor(site);
                desc.site = assigned;
                st.sites.insert(assigned, desc.clone());
                st.me = Some(desc);
                // Assume the id-server role this strategy gives us:
                // contingent sites hold ranges (granted by the acker in a
                // follow-up IdBlockGrant, or begged on demand); the first
                // `servers` sites under the modulo concept emit their
                // residue class autonomously.
                st.alloc = match self.strategy {
                    IdAllocStrategy::CentralServer => AllocState::Client,
                    // The acker's follow-up IdBlockGrant may have been
                    // processed by the router before this waiter thread
                    // ran — never wipe an already-granted range.
                    IdAllocStrategy::Contingents => {
                        match std::mem::replace(&mut st.alloc, AllocState::Client) {
                            existing @ AllocState::Ranges { .. } => existing,
                            _ => AllocState::Ranges { ranges: vec![] },
                        }
                    }
                    IdAllocStrategy::Modulo { servers } if assigned.0 <= servers => {
                        AllocState::Modulo {
                            slot: assigned.0 - 1,
                            servers,
                            next: assigned.0 + servers,
                        }
                    }
                    IdAllocStrategy::Modulo { .. } => AllocState::Client,
                };
                let now = Instant::now();
                for d in cluster {
                    if d.site != assigned {
                        st.last_heard.insert(d.site, now);
                        st.incarnations.insert(d.site, d.incarnation);
                        st.sites.insert(d.site, d);
                    }
                }
                // The contact knows us (it acked); others learn
                // epidemically with normal traffic.
                st.announced_to.insert(reply.src_site);
                Ok(())
            }
            Payload::SignOnRefused { reason } => Err(SdvmError::InvalidState(format!(
                "sign-on refused: {reason}"
            ))),
            other => Err(SdvmError::InvalidState(format!(
                "unexpected sign-on reply {}",
                other.name()
            ))),
        }
    }

    /// Learn about a site (sign-on ack, announce, gossip, first help
    /// request). A descriptor from a declared-dead incarnation is fenced
    /// instead of re-admitting the zombie; a *higher* incarnation lifts
    /// the tombstone (the site refuted its death and rejoins).
    pub fn learn(&self, site: &SiteInner, d: SiteDescriptor) {
        if d.site == site.my_id() || !d.site.is_valid() {
            return;
        }
        let mut st = self.state.lock();
        if let Some(entry) = st.dead.get(&d.site) {
            if d.incarnation <= entry.floor {
                drop(st);
                site.emit(TraceEvent::StaleIncarnation {
                    from: d.site,
                    incarnation: d.incarnation,
                });
                return;
            }
            st.dead.remove(&d.site);
            // The directory owner is back: its succession entry would
            // otherwise keep redirecting homesite lookups away from it.
            st.succession.remove(&d.site);
        }
        if d.incarnation < st.incarnations.get(&d.site).copied().unwrap_or(0) {
            return; // stale gossip about an older incarnation of a live site
        }
        // A fresh descriptor withdraws a gossiped drain: either the
        // drain was aborted, or the site left and rejoined (bumped
        // incarnation) — both mean it is a full member again.
        st.draining.remove(&d.site);
        let (joined, incarnation) = (d.site, d.incarnation);
        let is_new = st.sites.insert(joined, d).is_none();
        self.heard_from(site, st, joined, incarnation);
        if is_new {
            site.emit(TraceEvent::SiteJoined { joined });
        }
    }

    /// Screen an inbound message (called by the dispatcher for every
    /// message carrying a valid foreign source). Returns `false` when the
    /// sender is a *zombie* — a declared-dead site still talking at a
    /// fenced incarnation — and the message must be dropped; a rate-
    /// limited [`Payload::DeathNotice`] tells the zombie to bump its
    /// incarnation and re-announce. Any other message doubles as a
    /// liveness proof: it refreshes `last_heard` and withdraws an open
    /// suspicion against the sender.
    pub(crate) fn observe_inbound(&self, site: &SiteInner, from: SiteId, incarnation: u64) -> bool {
        let mut st = self.state.lock();
        if let Some(entry) = st.dead.get_mut(&from) {
            if incarnation <= entry.floor {
                let notify = entry
                    .last_notice
                    .map(|t| t.elapsed() >= DEATH_NOTICE_INTERVAL)
                    .unwrap_or(true);
                if notify {
                    entry.last_notice = Some(Instant::now());
                }
                let (addr, floor) = (entry.addr.clone(), entry.floor);
                drop(st);
                site.emit(TraceEvent::StaleIncarnation { from, incarnation });
                if notify {
                    let notice = SdMessage::new(
                        site.my_id(),
                        ManagerId::Cluster,
                        from,
                        ManagerId::Cluster,
                        site.next_seq(),
                        Payload::DeathNotice { incarnation: floor },
                    );
                    let _ = site.send_msg_to_addr(&addr, notice);
                }
                return false;
            }
            // Alive at a newer incarnation: lift the tombstone. Full
            // membership re-entry happens when its descriptor arrives.
            st.dead.remove(&from);
            st.succession.remove(&from);
        }
        self.heard_from(site, st, from, incarnation);
        true
    }

    /// Record firsthand evidence that `from` is alive at `incarnation`
    /// (0 = unknown): refresh its liveness clock, raise its known
    /// incarnation and withdraw any open suspicion. Takes the caller's
    /// lock, so the per-message path pays a single acquisition.
    fn heard_from(
        &self,
        site: &SiteInner,
        mut st: MutexGuard<'_, ClusterState>,
        from: SiteId,
        incarnation: u64,
    ) {
        st.last_heard.insert(from, Instant::now());
        if incarnation > 0 {
            let known = st.incarnations.entry(from).or_insert(0);
            *known = (*known).max(incarnation);
        }
        let refuted = st.suspects.remove(&from).is_some();
        drop(st);
        if refuted {
            site.emit(TraceEvent::SuspicionRefuted {
                suspect: from,
                incarnation,
            });
        }
    }

    /// Reset the liveness clock of every known member and drop open
    /// suspicions. Called when *this* site resumes from a long pause: its
    /// stale `last_heard` map would otherwise read as cluster-wide
    /// silence and mass-declare healthy peers.
    pub fn refresh_liveness(&self) {
        let mut st = self.state.lock();
        let now = Instant::now();
        let ids: Vec<SiteId> = st.sites.keys().copied().collect();
        for s in ids {
            st.last_heard.insert(s, now);
        }
        st.suspects.clear();
    }

    /// Record a load report (heartbeat or help-request gossip).
    pub fn note_load(&self, from: SiteId, load: LoadReport) {
        if !from.is_valid() {
            return;
        }
        let mut st = self.state.lock();
        st.last_heard.insert(from, Instant::now());
        st.loads.entry(from).or_default().merge(&load);
    }

    // ---- Vivaldi network coordinates (wire v9) ----

    /// This site's current coordinate, for piggybacking on heartbeats
    /// and probe traffic.
    pub fn my_coord(&self) -> Coord {
        self.state.lock().vivaldi.coord
    }

    /// Record a peer's gossiped coordinate (heartbeat, probe payloads).
    pub fn note_coord(&self, from: SiteId, coord: Option<Coord>) {
        let Some(c) = coord else { return };
        if !from.is_valid() {
            return;
        }
        self.state.lock().coords.insert(from, c);
    }

    /// Absorb one measured round trip against `peer` into this site's
    /// coordinate. Does nothing until the peer has gossiped a
    /// coordinate of its own — the spring needs both endpoints.
    pub fn observe_rtt(&self, peer: SiteId, rtt: Duration) {
        let mut st = self.state.lock();
        let Some(pc) = st.coords.get(&peer).copied() else {
            return;
        };
        let rtt_ms = rtt.as_secs_f64() * 1e3;
        st.vivaldi.observe(&pc, rtt_ms);
    }

    /// Coordinate fit statistics for telemetry and `/status`:
    /// `(abs_error_ms, samples, converged)`.
    pub fn coord_stats(&self) -> (f64, u64, bool) {
        let st = self.state.lock();
        (
            st.vivaldi.abs_error_ms,
            st.vivaldi.samples,
            st.vivaldi.converged(),
        )
    }

    /// Rank `candidates` by predicted RTT from this site, nearest first
    /// (see [`policy::rank_by_proximity`]). Returns `false` — leaving
    /// the order untouched — until this site's coordinate has converged
    /// and at least one candidate has gossiped a coordinate; callers
    /// then fall back to their uniform (pre-v9) selection.
    pub fn rank_by_proximity(&self, candidates: &mut [SiteId]) -> bool {
        let st = self.state.lock();
        let mut ranked: Vec<Candidate<SiteId>> = candidates
            .iter()
            .map(|&s| (s, 0, st.coords.get(&s).copied()))
            .collect();
        if !policy::rank_by_proximity(&st.vivaldi, &mut ranked) {
            return false;
        }
        for (slot, c) in candidates.iter_mut().zip(ranked) {
            *slot = c.0;
        }
        true
    }

    /// Physical address of a logical site.
    pub fn addr_of(&self, id: SiteId) -> Option<PhysicalAddr> {
        self.state.lock().sites.get(&id).map(|d| d.addr.clone())
    }

    /// All currently known member ids (including self once assigned).
    pub fn known_sites(&self) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self.state.lock().sites.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Ops-plane membership view: one consistent snapshot of the live
    /// member table, open suspicions and death tombstones, taken under a
    /// single lock acquisition. Served on `GET /status` and embedded in
    /// flight-recorder postmortems.
    pub fn membership_view(&self) -> MembershipView {
        let st = self.state.lock();
        let now = Instant::now();
        let mut members: Vec<MemberView> = st
            .sites
            .values()
            .map(|d| MemberView {
                site: d.site,
                incarnation: st
                    .incarnations
                    .get(&d.site)
                    .copied()
                    .unwrap_or(d.incarnation),
                suspected: st.suspects.contains_key(&d.site),
                accusers: st
                    .suspects
                    .get(&d.site)
                    .map(|s| s.accusers.len())
                    .unwrap_or(0),
                silent_for: st
                    .last_heard
                    .get(&d.site)
                    .map(|h| now.duration_since(*h))
                    .unwrap_or(Duration::ZERO),
                load: st.loads.get(&d.site).copied().unwrap_or_default(),
                draining: st.draining.contains(&d.site),
            })
            .collect();
        members.sort_by_key(|m| m.site);
        let mut dead: Vec<DeadView> = st
            .dead
            .iter()
            .map(|(s, e)| DeadView {
                site: *s,
                floor: e.floor,
            })
            .collect();
        dead.sort_by_key(|d| d.site);
        let mut succession: Vec<(SiteId, SiteId)> =
            st.succession.iter().map(|(a, b)| (*a, *b)).collect();
        succession.sort_by_key(|(a, _)| *a);
        MembershipView {
            members,
            dead,
            succession,
        }
    }

    /// Known code distribution sites (draining members excluded — a
    /// leaver must not be handed fresh code or checkpoint stores).
    pub fn code_distribution_sites(&self) -> Vec<SiteId> {
        let st = self.state.lock();
        let mut v: Vec<SiteId> = st
            .sites
            .values()
            .filter(|d| d.code_distribution && !st.draining.contains(&d.site))
            .map(|d| d.site)
            .collect();
        v.sort_unstable();
        v
    }

    /// Whether we already sent our descriptor to `target` (the first help
    /// request to a site carries it, doubling as the join announcement).
    pub fn announced(&self, target: SiteId) -> bool {
        !self.state.lock().announced_to.insert(target)
    }

    /// The next alive site after `of` in id order (ring) — used as
    /// relocation target, directory successor and backup buddy. Members
    /// that announced a planned departure are skipped: handing a leaver
    /// fresh objects, directory duty or backup mirrors would only force
    /// a second relocation moments later.
    pub fn successor_of(&self, of: SiteId) -> Option<SiteId> {
        let st = self.state.lock();
        let live = st.sites.keys().copied();
        ring_successor(live.filter(|s| !st.draining.contains(s)), of)
    }

    /// Follow the succession chain of departed sites to a live one.
    pub fn resolve_succession(&self, mut home: SiteId) -> SiteId {
        let st = self.state.lock();
        for _ in 0..16 {
            match st.succession.get(&home) {
                Some(&next) => home = next,
                None => break,
            }
        }
        home
    }

    /// Choose a site to send a help request to among the live,
    /// non-draining members, by their last gossiped load and coordinate
    /// (the shared rule: [`policy::pick_help_target`]).
    pub fn pick_help_target(&self, site: &SiteInner) -> Option<SiteId> {
        let me = site.my_id();
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let mut candidates: Vec<Candidate<SiteId>> = st
            .sites
            .keys()
            .copied()
            .filter(|&s| s != me && !st.draining.contains(&s))
            .map(|s| {
                let load = st.loads.get(&s).map_or(0, |l| l.busyness());
                (s, load, st.coords.get(&s).copied())
            })
            .collect();
        candidates.sort_unstable_by_key(|c| c.0);
        policy::pick_help_target(&mut candidates, &st.vivaldi, &mut st.rr)
    }

    /// Handle an incoming cluster-manager message.
    pub fn handle(&self, site: &SiteInner, msg: SdMessage) {
        match msg.payload.clone() {
            Payload::SignOn { descriptor } => {
                // Id allocation may require remote calls — helper thread.
                // A joiner has no id yet and is answered at its physical
                // address; a *forwarded* sign-on (from a contact site that
                // is no id server) is answered like any normal request.
                let reply_addr = if msg.src_site.is_valid() {
                    self.addr_of(msg.src_site)
                        .unwrap_or_else(|| descriptor.addr.clone())
                } else {
                    descriptor.addr.clone()
                };
                site.spawn_task(move |s| handle_signon_blocking(s, msg, reply_addr));
            }
            Payload::SiteAnnounce { descriptor } => self.learn(site, descriptor),
            Payload::SignOff {
                site: gone,
                successor,
            } => {
                let mut st = self.state.lock();
                st.forget(gone);
                st.succession.insert(gone, successor);
                if gone == st.id_server {
                    st.id_server = successor;
                }
                drop(st);
                Self::gone(site, gone, false);
            }
            Payload::SiteDraining {
                site: leaver,
                incarnation,
            } => {
                // Planned departure (wire v8): mark — no suspicion, no
                // tombstone, no detector involvement. The gossip doubles
                // as a liveness proof.
                if leaver.is_valid() && leaver != site.my_id() {
                    let mut st = self.state.lock();
                    st.draining.insert(leaver);
                    self.heard_from(site, st, leaver, incarnation);
                }
            }
            Payload::Heartbeat { load, coord } => {
                self.note_load(msg.src_site, load);
                self.note_coord(msg.src_site, coord);
            }
            Payload::IdBlockRequest {} => {
                // Contingents: give away half of our youngest range.
                let grant = self.state.lock().alloc.split_youngest();
                let (start, len) = grant.unwrap_or((0, 0));
                site.reply_to(
                    &msg,
                    ManagerId::Cluster,
                    Payload::IdBlockGrant { start, len },
                );
            }
            Payload::IdBlockGrant { start, len } => {
                // Unsolicited grant: the contingent handed to us during
                // our own sign-on (paper: id servers "are given a
                // contingent of free ids during their own sign on").
                match self.strategy {
                    IdAllocStrategy::Contingents if len > 0 => {
                        let mut st = self.state.lock();
                        // The grant may race our own sign-on completion;
                        // become a range holder either way.
                        if !matches!(st.alloc, AllocState::Ranges { .. }) {
                            st.alloc = AllocState::Ranges { ranges: vec![] };
                        }
                        if let AllocState::Ranges { ranges } = &mut st.alloc {
                            ranges.push((start, start + len - 1));
                        }
                    }
                    IdAllocStrategy::CentralServer if len > 0 => {
                        // A draining central id server hands its counter
                        // to the successor (us): without this, no site
                        // could ever join again once the first site
                        // departs.
                        let mut st = self.state.lock();
                        st.alloc = AllocState::Central { next: start };
                        st.id_server = site.my_id();
                    }
                    _ => site.dropped(
                        DropReason::IdGrantIgnored,
                        format!("id block start {start} len {len}"),
                    ),
                }
            }
            Payload::SiteCrashed {
                site: dead,
                successor,
                incarnation,
            } => {
                {
                    let mut st = self.state.lock();
                    st.succession.insert(dead, successor);
                }
                // Adopt the originator's successor verbatim so the whole
                // cluster agrees on the directory inheritor.
                self.declare_crashed_with(site, dead, false, Some(successor), incarnation);
            }
            Payload::SuspectSite {
                site: suspect,
                incarnation,
            } => self.on_suspect_gossip(site, msg.src_site, suspect, incarnation),
            Payload::ProbeRequest { target, coord } => {
                // Probe the suspect on the requester's behalf. A Pong
                // proves liveness at the suspect's current incarnation;
                // relay that as a fresh ProbeAck (not a reply: the
                // requester isn't waiting).
                self.note_coord(msg.src_site, coord);
                let requester = msg.src_site;
                Self::ping(site, target, move |s, incarnation| {
                    let _ = s.send_payload(
                        requester,
                        ManagerId::Cluster,
                        ManagerId::Cluster,
                        s.next_seq(),
                        Payload::ProbeAck {
                            target,
                            incarnation,
                            coord: Some(s.cluster.my_coord()),
                        },
                    );
                });
            }
            Payload::ProbeAck {
                target,
                incarnation,
                coord,
            } => {
                // The coordinate rides from the *prober* (the sender).
                self.note_coord(msg.src_site, coord);
                self.heard_from(site, self.state.lock(), target, incarnation);
            }
            // Someone declared *us* dead: outlive the verdict.
            Payload::DeathNotice { incarnation } => self.refute(site, incarnation),
            Payload::MetricsSummary { summary } => {
                // Piggybacked ops-plane digest (wire v7): latest-wins per
                // sender. No reply — it rides the heartbeat cadence.
                if msg.src_site.is_valid() {
                    site.rollup.record(msg.src_site, summary);
                }
            }
            other => {
                site.reply_to(
                    &msg,
                    ManagerId::Cluster,
                    Payload::Error {
                        message: format!("cluster: unexpected {}", other.name()),
                    },
                );
            }
        }
    }
}
