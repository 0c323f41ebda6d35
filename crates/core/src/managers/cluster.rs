//! The cluster manager (paper §4): cluster list, sign-on/sign-off,
//! logical-id allocation, help-target selection, heartbeats and crash
//! detection.
//!
//! The paper discusses three concepts for creating unique logical site
//! ids — a central contact site, id contingents handed to several id
//! servers, and a fixed number of servers emitting their residue class
//! modulo the server count. All three are implemented and compared in
//! experiment E8.

use crate::site::{SiteInner, Task};
use crate::trace::{DropReason, TraceEvent};
use parking_lot::Mutex;
use sdvm_types::{
    policy, Candidate, Coord, IdAllocStrategy, LoadReport, ManagerId, PhysicalAddr, SdvmError,
    SdvmResult, SiteDescriptor, SiteId, VivaldiState,
};
use sdvm_wire::{Payload, SdMessage};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Id-allocation state of this site.
enum AllocState {
    /// Not an id server (forwards to one).
    Client,
    /// The central server's counter.
    Central { next: u32 },
    /// Contingents: ranges of free ids this site may hand out.
    Ranges { ranges: Vec<(u32, u32)> },
    /// Modulo server: slot `s` (0-based) among `servers` emits ids
    /// congruent to `s+1` (mod servers).
    Modulo { slot: u32, servers: u32, next: u32 },
}

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

/// How many other members are asked to probe a suspect indirectly.
const PROBE_FANOUT: usize = 3;

/// Distinct accusers (this site included) whose gossiped suspicions
/// escalate a suspect to crashed before `crash_timeout` elapses. Two, so
/// one site's view alone never convicts.
const SUSPICION_QUORUM: usize = 2;

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
            IdAllocStrategy::Contingents { .. } => AllocState::Ranges {
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
        SiteDescriptor {
            site: site.my_id(),
            addr: site.transport.local_addr(),
            platform: site.config.platform,
            code_distribution: site.config.code_distribution,
            incarnation: site.my_incarnation(),
        }
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
                    IdAllocStrategy::Contingents { .. } => {
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

    /// Orderly departure — the drain flow (wire v8). In order: gossip
    /// the `Draining` state (peers stop granting us help, announcing
    /// programs at us, and targeting us as successor/backup buddy),
    /// quiesce the local workers, hand the dead-letter store and
    /// code-source duty to the successor, relocate every owned object
    /// and frame plus the homesite directory, announce `SignOff`, and
    /// flush the outbound queues so nothing is lost when the caller
    /// stops the site. No tombstone, no detector involvement.
    pub fn sign_off(&self, site: &SiteInner) -> SdvmResult<()> {
        let me = site.my_id();
        let Some(successor) = self.successor_of(me) else {
            return Ok(()); // last site: nothing to relocate to
        };
        let drain_started = Instant::now();
        site.metrics.drain_started.inc();
        for p in self.known_sites() {
            if p != me {
                let _ = site.send_payload(
                    p,
                    ManagerId::Cluster,
                    ManagerId::Cluster,
                    site.next_seq(),
                    Payload::SiteDraining {
                        site: me,
                        incarnation: site.my_incarnation(),
                    },
                );
            }
        }
        // Quiesce: the draining flag (set by Site::drain) stops the
        // workers from taking new frames; wait for the ones already
        // executing to finish, then let any in-flight help replies and
        // results settle before cutting. Iterate until a drain pass finds
        // nothing new.
        let deadline = Instant::now() + site.config.request_timeout;
        loop {
            let (_, busy) = site.scheduling.load_numbers();
            if busy == 0 || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(site.config.help_timeout);
        // Dead-letter handoff: quarantined frames must stay redrivable
        // after we are gone. The frames were already consumed
        // cluster-wide on quarantine, so a plain transfer suffices.
        let letters = site.deadletter.take_all();
        if !letters.is_empty() {
            let wire: Vec<(sdvm_wire::WireFrame, String)> = letters
                .iter()
                .map(|d| (d.frame.to_wire(), d.cause.to_string()))
                .collect();
            let count = wire.len() as u64;
            match site.send_payload(
                successor,
                ManagerId::Program,
                ManagerId::Program,
                site.next_seq(),
                Payload::DeadLetterSweep { letters: wire },
            ) {
                Ok(()) => site.metrics.drain_dead_letters_swept.add(count),
                Err(_) => {
                    // Successor unreachable: keep the letters; the
                    // relocate below will fail the same way and the
                    // drain aborts with the store intact.
                    for d in letters {
                        site.deadletter.adopt(d.frame, d.cause);
                    }
                }
            }
        }
        // Code-home duty handoff: for every program whose source we
        // hold, grant the successor source-serving rights (its
        // `CodeSource` handler records the program). Requesters that
        // still ask *us* first fall through to distribution sites.
        for program in site.code.local_source_programs() {
            let _ = site.send_payload(
                successor,
                ManagerId::Code,
                ManagerId::Code,
                site.next_seq(),
                Payload::CodeSource {
                    thread: sdvm_types::MicrothreadId::new(program, 0),
                    source: bytes::Bytes::new(),
                },
            );
        }
        // Id-server duty handoff: a departing central id server gives
        // the successor its counter, or joining becomes impossible once
        // we are gone. Taken before the send so a failed hand-over can
        // restore the role locally; once sent, the duty is the
        // successor's even if the drain aborts later.
        let central_next = {
            let mut st = self.state.lock();
            match st.alloc {
                AllocState::Central { next } => {
                    st.alloc = AllocState::Client;
                    Some(next)
                }
                _ => None,
            }
        };
        if let Some(next) = central_next {
            let sent = site.send_payload(
                successor,
                ManagerId::Cluster,
                ManagerId::Cluster,
                site.next_seq(),
                Payload::IdBlockGrant {
                    start: next,
                    len: u32::MAX - next,
                },
            );
            let mut st = self.state.lock();
            if sent.is_ok() {
                st.id_server = successor;
            } else {
                st.alloc = AllocState::Central { next };
            }
        }
        // Collect everything: queued frames + incomplete frames + objects
        // + our homesite directory.
        let mut frames: Vec<_> = site
            .scheduling
            .drain_all()
            .into_iter()
            .map(|f| f.to_wire())
            .collect();
        let (objects, mem_frames, directory) = site.memory.drain_for_relocation(site);
        frames.extend(mem_frames.into_iter().map(|f| f.to_wire()));
        let restore_on_failure = |err: SdvmError| -> SdvmError {
            // The successor never took ownership: put everything back so
            // the caller can retry or keep running — destroying drained
            // state on a failed hand-over would lose the program's work.
            for f in &frames {
                site.memory
                    .adopt_frame(site, crate::frame::Microframe::from_wire(f.clone()));
            }
            for o in &objects {
                site.memory.adopt_object(site, o.clone());
            }
            // Withdraw the gossiped Draining state: we are staying, and
            // peers must resume granting help / targeting us again.
            let descriptor = self.my_descriptor(site);
            for p in self.known_sites() {
                if p != me {
                    let _ = site.send_payload(
                        p,
                        ManagerId::Cluster,
                        ManagerId::Cluster,
                        site.next_seq(),
                        Payload::SiteAnnounce {
                            descriptor: descriptor.clone(),
                        },
                    );
                }
            }
            err
        };
        let reply = match site.request(
            successor,
            ManagerId::Memory,
            ManagerId::Memory,
            Payload::Relocate {
                objects: objects.clone(),
                frames: frames.clone(),
                directory,
            },
            site.config.request_timeout,
        ) {
            Ok(r) => r,
            Err(e) => return Err(restore_on_failure(e)),
        };
        if !matches!(reply.payload, Payload::RelocateAck {}) {
            return Err(restore_on_failure(SdvmError::InvalidState(
                "relocation not acknowledged".into(),
            )));
        }
        site.metrics
            .drain_objects_relocated
            .add(objects.len() as u64);
        site.metrics.drain_frames_relocated.add(frames.len() as u64);
        // Tell everyone (including the successor) that we are gone and
        // who inherited our directory role.
        let peers = self.known_sites();
        for p in peers {
            if p != me {
                let _ = site.send_payload(
                    p,
                    ManagerId::Cluster,
                    ManagerId::Cluster,
                    site.next_seq(),
                    Payload::SignOff {
                        site: me,
                        successor,
                    },
                );
            }
        }
        // Flush: wait for the outbound queues to empty so the SignOff
        // broadcast and every late result actually left before the
        // caller tears the transport down.
        let flush_deadline = Instant::now() + site.config.request_timeout;
        loop {
            let depth: usize = site
                .transport
                .outbound_depths()
                .iter()
                .map(|(_, d)| d)
                .sum();
            if depth == 0 || Instant::now() > flush_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        site.metrics.drain_completed.inc();
        site.metrics
            .drain_duration_us
            .observe(drain_started.elapsed().as_micros() as u64);
        Ok(())
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
                    site: site.my_id(),
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
        st.last_heard.insert(d.site, Instant::now());
        st.incarnations.insert(d.site, d.incarnation);
        // A fresh descriptor withdraws a gossiped drain: either the
        // drain was aborted, or the site left and rejoined (bumped
        // incarnation) — both mean it is a full member again.
        st.draining.remove(&d.site);
        let refuted = st.suspects.remove(&d.site).is_some();
        let is_new = st.sites.insert(d.site, d.clone()).is_none();
        drop(st);
        if refuted {
            site.emit(TraceEvent::SuspicionRefuted {
                site: site.my_id(),
                suspect: d.site,
                incarnation: d.incarnation,
            });
        }
        if is_new {
            site.emit(TraceEvent::SiteJoined {
                site: site.my_id(),
                joined: d.site,
            });
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
                site.emit(TraceEvent::StaleIncarnation {
                    site: site.my_id(),
                    from,
                    incarnation,
                });
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
        st.last_heard.insert(from, Instant::now());
        if incarnation > 0 {
            let known = st.incarnations.entry(from).or_insert(0);
            *known = (*known).max(incarnation);
        }
        let refuted = st.suspects.remove(&from).is_some();
        drop(st);
        if refuted {
            site.emit(TraceEvent::SuspicionRefuted {
                site: site.my_id(),
                suspect: from,
                incarnation,
            });
        }
        true
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
        let mut ids: Vec<SiteId> = st.sites.keys().copied().collect();
        ids.sort_unstable();
        ids.retain(|&s| s != of && !st.draining.contains(&s));
        if ids.is_empty() {
            return None;
        }
        ids.iter()
            .copied()
            .find(|&s| s > of)
            .or_else(|| ids.first().copied())
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

    // ---- id allocation (the three concepts of §4) ----

    /// Try to allocate a logical id locally. `Ok(None)` means this site
    /// cannot allocate and the request must be forwarded to `forward_to`.
    fn allocate_id(&self) -> AllocOutcome {
        let mut st = self.state.lock();
        let mut existing: Vec<u32> = st.sites.keys().map(|s| s.0).collect();
        existing.extend(st.handed_out.iter().copied());
        match &mut st.alloc {
            AllocState::Central { next } => {
                let id = *next;
                *next += 1;
                AllocOutcome::Allocated(SiteId(id))
            }
            AllocState::Ranges { ranges } => {
                while let Some((lo, hi)) = ranges.last_mut() {
                    if lo <= hi {
                        let id = *lo;
                        *lo += 1;
                        return AllocOutcome::Allocated(SiteId(id));
                    }
                    ranges.pop();
                }
                AllocOutcome::NeedBlock
            }
            AllocState::Modulo {
                slot,
                servers,
                next,
            } => {
                let k = *servers;
                // Bootstrap: the first site fills the server slots 2..=k
                // sequentially so each residue class gets an emitter.
                if *slot == 0 {
                    if let Some(boot) = (2..=k).find(|id| !existing.contains(id)) {
                        st.handed_out.insert(boot);
                        return AllocOutcome::Allocated(SiteId(boot));
                    }
                }
                let id = *next;
                *next += k;
                AllocOutcome::Allocated(SiteId(id))
            }
            AllocState::Client => AllocOutcome::Forward,
        }
    }

    fn id_server_target(&self) -> Option<SiteId> {
        // Central strategy: the first site is the server. Modulo: any of
        // the first `servers` ids. Contingents: any site may have ids.
        let st = self.state.lock();
        match self.strategy {
            // The tracked server (the first site, or whoever inherited
            // the counter through drains). If gossip about the handoff
            // has not reached us, ask the oldest live site — it is
            // either the server or one hop closer to knowing who is.
            IdAllocStrategy::CentralServer => st
                .sites
                .contains_key(&st.id_server)
                .then_some(st.id_server)
                .or_else(|| st.sites.keys().copied().min()),
            IdAllocStrategy::Modulo { servers } => {
                (1..=servers).map(SiteId).find(|s| st.sites.contains_key(s))
            }
            IdAllocStrategy::Contingents { .. } => {
                st.sites.keys().copied().min() // ask the oldest site
            }
        }
    }

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
        site.emit(TraceEvent::SiteSuspected { site: me, suspect });
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
        // Direct probe off-thread: a live-but-slow suspect's Pong refutes
        // through the normal dispatch path. help_timeout keeps a truly
        // dead suspect from pinning the helper until the verdict.
        site.spawn_task(Task::Run(Box::new(move |s: &SiteInner| {
            let asked = Instant::now();
            if s.request(
                suspect,
                ManagerId::Site,
                ManagerId::Cluster,
                Payload::Ping {
                    token: suspect.0 as u64,
                },
                s.config.help_timeout,
            )
            .is_ok()
            {
                // The probe doubles as a coordinate sample — an answered
                // ping is a measured round trip to the suspect.
                s.cluster.observe_rtt(suspect, asked.elapsed());
            }
        })));
    }

    /// A peer gossiped a suspicion. Three cases: the suspect is *us*
    /// (refute with a bumped incarnation), we have fresh evidence the
    /// suspect lives (vouch for it to the accuser), or we join the
    /// accusation — enough independent accusers convict before
    /// `crash_timeout`.
    fn on_suspect_gossip(
        &self,
        site: &SiteInner,
        accuser: SiteId,
        suspect: SiteId,
        incarnation: u64,
    ) {
        let me = site.my_id();
        if suspect == me {
            let bumped = site.bump_incarnation_to(incarnation + 1);
            let descriptor = {
                let mut st = self.state.lock();
                let Some(mine) = st.me.as_mut() else { return };
                mine.incarnation = bumped;
                let d = mine.clone();
                st.sites.insert(d.site, d.clone());
                d
            };
            for p in self.known_sites() {
                if p != me {
                    let _ = site.send_payload(
                        p,
                        ManagerId::Cluster,
                        ManagerId::Cluster,
                        site.next_seq(),
                        Payload::RefuteSuspicion {
                            descriptor: descriptor.clone(),
                        },
                    );
                }
            }
            return;
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
            let Some(removed) = st.sites.remove(&dead) else {
                return; // already handled
            };
            // Detection latency: how long the peer was silent (by our
            // firsthand clock) before the verdict landed. Relayed
            // verdicts measure the same silence as observed here.
            if let Some(heard) = st.last_heard.get(&dead) {
                site.metrics
                    .detection_latency_us
                    .observe(heard.elapsed().as_micros() as u64);
            }
            let floor = incarnation_floor
                .max(st.incarnations.get(&dead).copied().unwrap_or(0))
                .max(removed.incarnation);
            st.dead.insert(
                dead,
                DeadEntry {
                    floor,
                    addr: removed.addr,
                    last_notice: None,
                },
            );
            st.suspects.remove(&dead);
            st.loads.remove(&dead);
            st.last_heard.remove(&dead);
            st.announced_to.remove(&dead);
            st.coords.remove(&dead);
            let successor = announced.unwrap_or_else(|| {
                let mut ids: Vec<SiteId> = st.sites.keys().copied().collect();
                ids.sort_unstable();
                ids.iter()
                    .copied()
                    .find(|&s| s > dead)
                    .or_else(|| ids.first().copied())
                    .unwrap_or(site.my_id())
            });
            st.succession.insert(dead, successor);
            (successor, floor)
        };
        site.emit(TraceEvent::SiteGone {
            site: site.my_id(),
            gone: dead,
            crashed: true,
        });
        site.security.forget(dead);
        // The dead site's metrics digest stops contributing to the
        // cluster rollup once the verdict lands.
        site.rollup.forget(dead);
        // The dead site's homesite directory died with it: re-register
        // our locally owned state homed there with the successor.
        site.memory.reregister_after_crash(site, dead, successor);
        if originator {
            for p in self.known_sites() {
                if p != site.my_id() {
                    let _ = site.send_payload(
                        p,
                        ManagerId::Cluster,
                        ManagerId::Cluster,
                        site.next_seq(),
                        Payload::SiteCrashed {
                            site: dead,
                            successor,
                            incarnation: floor,
                        },
                    );
                }
            }
        }
        // Revive whatever we hold in backup for the dead site.
        site.spawn_task(Task::Recover { dead });
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
                site.spawn_task(Task::SignOn { msg, reply_addr });
            }
            Payload::SiteAnnounce { descriptor } => self.learn(site, descriptor),
            Payload::SignOff {
                site: gone,
                successor,
            } => {
                let mut st = self.state.lock();
                st.sites.remove(&gone);
                st.loads.remove(&gone);
                st.last_heard.remove(&gone);
                st.announced_to.remove(&gone);
                st.suspects.remove(&gone);
                st.incarnations.remove(&gone);
                st.draining.remove(&gone);
                st.coords.remove(&gone);
                st.succession.insert(gone, successor);
                if gone == st.id_server {
                    st.id_server = successor;
                }
                drop(st);
                site.security.forget(gone);
                // Its metrics digest stops contributing to the cluster
                // rollup (the crash path already did this; the orderly
                // path used to leak the entry).
                site.rollup.forget(gone);
                site.emit(TraceEvent::SiteGone {
                    site: site.my_id(),
                    gone,
                    crashed: false,
                });
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
                    st.last_heard.insert(leaver, Instant::now());
                    if incarnation > 0 {
                        let known = st.incarnations.entry(leaver).or_insert(0);
                        *known = (*known).max(incarnation);
                    }
                    st.draining.insert(leaver);
                }
            }
            Payload::Heartbeat { load, coord } => {
                self.note_load(msg.src_site, load);
                self.note_coord(msg.src_site, coord);
            }
            Payload::ClusterListRequest {} => {
                let sites = self.state.lock().sites.values().cloned().collect();
                site.reply_to(&msg, ManagerId::Cluster, Payload::ClusterList { sites });
            }
            Payload::ClusterList { sites } => {
                for d in sites {
                    self.learn(site, d);
                }
            }
            Payload::IdBlockRequest {} => {
                // Contingents: split our youngest range in half.
                let grant = {
                    let mut st = self.state.lock();
                    if let AllocState::Ranges { ranges } = &mut st.alloc {
                        ranges
                            .iter_mut()
                            .rev()
                            .find(|(lo, hi)| hi.saturating_sub(*lo) >= 1)
                            .map(|(lo, hi)| {
                                let mid = *lo + (*hi - *lo) / 2;
                                let grant = (mid + 1, *hi);
                                *hi = mid;
                                grant
                            })
                    } else {
                        None
                    }
                };
                let payload = match grant {
                    Some((start, end)) => Payload::IdBlockGrant {
                        start,
                        len: end - start + 1,
                    },
                    None => Payload::IdBlockGrant { start: 0, len: 0 },
                };
                site.reply_to(&msg, ManagerId::Cluster, payload);
            }
            Payload::IdBlockGrant { start, len } => {
                // Unsolicited grant: the contingent handed to us during
                // our own sign-on (paper: id servers "are given a
                // contingent of free ids during their own sign on").
                match self.strategy {
                    IdAllocStrategy::Contingents { .. } if len > 0 => {
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
            Payload::RefuteSuspicion { descriptor } => {
                // The refuting descriptor carries the bumped incarnation:
                // learn() withdraws the suspicion and lifts any tombstone.
                self.learn(site, descriptor);
            }
            Payload::ProbeRequest { target, coord } => {
                // Probe the suspect on the requester's behalf — blocking,
                // so off the router thread. A Pong proves liveness at the
                // suspect's current incarnation; relay that as a fresh
                // ProbeAck (not a reply: the requester isn't waiting).
                self.note_coord(msg.src_site, coord);
                let requester = msg.src_site;
                site.spawn_task(Task::Run(Box::new(move |s: &SiteInner| {
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
                        // The relay ping is a measured round trip to the
                        // target — feed the prober's own coordinate.
                        s.cluster.observe_rtt(target, asked.elapsed());
                        let _ = s.send_payload(
                            requester,
                            ManagerId::Cluster,
                            ManagerId::Cluster,
                            s.next_seq(),
                            Payload::ProbeAck {
                                target,
                                incarnation: reply.src_incarnation,
                                coord: Some(s.cluster.my_coord()),
                            },
                        );
                    }
                })));
            }
            Payload::ProbeAck {
                target,
                incarnation,
                coord,
            } => {
                // The coordinate rides from the *prober* (the sender).
                self.note_coord(msg.src_site, coord);
                let mut st = self.state.lock();
                st.last_heard.insert(target, Instant::now());
                if incarnation > 0 {
                    let known = st.incarnations.entry(target).or_insert(0);
                    *known = (*known).max(incarnation);
                }
                let refuted = st.suspects.remove(&target).is_some();
                drop(st);
                if refuted {
                    site.emit(TraceEvent::SuspicionRefuted {
                        site: site.my_id(),
                        suspect: target,
                        incarnation,
                    });
                }
            }
            Payload::DeathNotice { incarnation } => {
                // Someone declared *us* dead: refute by outliving the
                // verdict — bump past the fenced floor and re-announce so
                // every site re-admits us at the new incarnation.
                let bumped = site.bump_incarnation_to(incarnation + 1);
                let descriptor = {
                    let mut st = self.state.lock();
                    let Some(me) = st.me.as_mut() else { return };
                    me.incarnation = bumped;
                    let d = me.clone();
                    st.sites.insert(d.site, d.clone());
                    d
                };
                for p in self.known_sites() {
                    if p != site.my_id() {
                        let _ = site.send_payload(
                            p,
                            ManagerId::Cluster,
                            ManagerId::Cluster,
                            site.next_seq(),
                            Payload::SiteAnnounce {
                                descriptor: descriptor.clone(),
                            },
                        );
                    }
                }
            }
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

enum AllocOutcome {
    Allocated(SiteId),
    /// Contingents exhausted: must fetch a block first.
    NeedBlock,
    /// Not an id server: forward to one.
    Forward,
}

/// Helper-thread handling of a sign-on request (may block on remote id
/// servers — the router must not).
pub(crate) fn handle_signon_blocking(site: &SiteInner, msg: SdMessage, reply_addr: PhysicalAddr) {
    let Payload::SignOn { descriptor } = msg.payload.clone() else {
        return;
    };
    let outcome = site.cluster.allocate_id();
    let assigned = match outcome {
        AllocOutcome::Allocated(id) => Some(id),
        AllocOutcome::NeedBlock => {
            // Contingents: beg peers for a block, then retry once.
            let mut got = false;
            for peer in site.cluster.known_sites() {
                if peer == site.my_id() {
                    continue;
                }
                if let Ok(reply) = site.request(
                    peer,
                    ManagerId::Cluster,
                    ManagerId::Cluster,
                    Payload::IdBlockRequest {},
                    site.config.request_timeout,
                ) {
                    if let Payload::IdBlockGrant { start, len } = reply.payload {
                        if len > 0 {
                            let mut st = site.cluster.state.lock();
                            if let AllocState::Ranges { ranges } = &mut st.alloc {
                                ranges.push((start, start + len - 1));
                                got = true;
                            }
                        }
                    }
                }
                if got {
                    break;
                }
            }
            match site.cluster.allocate_id() {
                AllocOutcome::Allocated(id) => Some(id),
                _ => None,
            }
        }
        AllocOutcome::Forward => {
            // Ask an id server to run the whole sign-on; relay its answer.
            match site.cluster.id_server_target() {
                Some(server) if server != site.my_id() => {
                    match site.request(
                        server,
                        ManagerId::Cluster,
                        ManagerId::Cluster,
                        Payload::SignOn {
                            descriptor: descriptor.clone(),
                        },
                        site.config.request_timeout,
                    ) {
                        Ok(reply) => match reply.payload {
                            Payload::SignOnAck { assigned, cluster } => {
                                // Learn what the server told the joiner.
                                for d in &cluster {
                                    site.cluster.learn(site, d.clone());
                                }
                                let r = msg.reply(
                                    site.next_seq(),
                                    ManagerId::Cluster,
                                    Payload::SignOnAck { assigned, cluster },
                                );
                                let _ = site.send_msg_to_addr(&reply_addr, r);
                                return;
                            }
                            _ => None,
                        },
                        Err(_) => None,
                    }
                }
                _ => None,
            }
        }
    };
    let Some(assigned) = assigned else {
        let r = msg.reply(
            site.next_seq(),
            ManagerId::Cluster,
            Payload::SignOnRefused {
                reason: "no id server reachable / id space exhausted".into(),
            },
        );
        let _ = site.send_msg_to_addr(&reply_addr, r);
        return;
    };
    // Record the newcomer and answer with the current cluster view.
    let mut d = descriptor;
    d.site = assigned;
    site.cluster.learn(site, d.clone());
    let cluster_list: Vec<SiteDescriptor> =
        site.cluster.state.lock().sites.values().cloned().collect();
    let r = msg.reply(
        site.next_seq(),
        ManagerId::Cluster,
        Payload::SignOnAck {
            assigned,
            cluster: cluster_list,
        },
    );
    let _ = site.send_msg_to_addr(&reply_addr, r);
    // Under the contingents concept, hand the newcomer its own block of
    // free ids (split off ours) so it can serve joins itself.
    let grant = {
        let mut st = site.cluster.state.lock();
        if let AllocState::Ranges { ranges } = &mut st.alloc {
            ranges
                .iter_mut()
                .rev()
                .find(|(lo, hi)| hi.saturating_sub(*lo) >= 1)
                .map(|(lo, hi)| {
                    let mid = *lo + (*hi - *lo) / 2;
                    let g = (mid + 1, *hi);
                    *hi = mid;
                    g
                })
        } else {
            None
        }
    };
    if let Some((start, end)) = grant {
        let _ = site.send_payload(
            assigned,
            ManagerId::Cluster,
            ManagerId::Cluster,
            site.next_seq(),
            Payload::IdBlockGrant {
                start,
                len: end - start + 1,
            },
        );
    }
    // Propagate the newcomer to everyone else.
    for p in site.cluster.known_sites() {
        if p != site.my_id() && p != assigned {
            let _ = site.send_payload(
                p,
                ManagerId::Cluster,
                ManagerId::Cluster,
                site.next_seq(),
                Payload::SiteAnnounce {
                    descriptor: d.clone(),
                },
            );
        }
    }
}
