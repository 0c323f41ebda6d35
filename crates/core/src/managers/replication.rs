//! The replication manager: replicated and hedged microframe execution.
//!
//! Commodity clusters fail in ways the paper's crash model does not
//! cover: a site can compute the *wrong* answer (bit flips, overclocked
//! silicon, broken DIMMs) or compute the right answer *late* (GC pause,
//! thermal throttling). Both are invisible to the failure detector —
//! the site heartbeats happily throughout. This manager defends the
//! dataflow graph against both, per program, under a
//! [`ReplicationPolicy`](sdvm_types::ReplicationPolicy):
//!
//! - **Vote mode** (`Replicate { k, .. }`): a frame's home site keeps
//!   the executable frame in *escrow* and dispatches `k` tagged copies
//!   ([`Payload::ReplicaTask`]) to `k` distinct sites. Every replica
//!   executes with its result sends *buffered* into a ballot
//!   ([`Payload::ReplicaDone`]) instead of applied. The coordinator
//!   compares ballots: a majority of identical send-vectors wins and is
//!   applied exactly once; disagreement is surfaced as
//!   [`SdvmError::ResultDivergence`]. A `k = 2` tie re-executes on a
//!   fresh site until a majority forms or the round budget runs out —
//!   then the frame is quarantined in the dead-letter store, where
//!   `redrive()` re-enqueues it (unreplicated) after an operator looks.
//! - **Hedge mode** (`Hedge { delay, .. }`): the frame is dispatched as
//!   a single buffered replica; if no ballot arrives within `delay`,
//!   a duplicate is dispatched to a different site and the first ballot
//!   wins. Because losers' sends were buffered, never applied, no
//!   consumer ever observes two results — hedging is invisible to the
//!   program except in its tail latency.
//!
//! Replicated/hedged microthreads should be pure leaf compute (reads +
//! sends): sends are compared and deduplicated, but any *other* side
//! effect (I/O, global writes, frame creation) happens once per replica.

use crate::frame::{Microframe, ReplicaRun};
use crate::site::SiteInner;
use crate::trace::{DropReason, TraceEvent};
use parking_lot::Mutex;
use sdvm_types::{GlobalAddress, ManagerId, ProgramId, SdvmError, SiteId};
use sdvm_wire::{Payload, WireFrame, WireSend};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Extra dispatch rounds (tie-break re-executions / hedge duplicates)
/// beyond the initial one before the coordinator gives up and
/// quarantines the frame.
const MAX_EXTRA_ROUNDS: u32 = 2;

/// How an escrow entry decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// k-way voting: a majority of identical ballots wins.
    Vote,
    /// Tail-latency hedging: the first successful ballot wins; the
    /// deadline fires duplicates.
    Hedge,
}

/// One replica's reported outcome.
struct Ballot {
    generation: u32,
    replica: u8,
    site: SiteId,
    ok: bool,
    sends: Vec<WireSend>,
    error: String,
}

/// One frame held in escrow while its replicas run.
struct Entry {
    /// Pristine copy of the executable frame (for quarantine and
    /// re-dispatch).
    original: Microframe,
    mode: Mode,
    /// Replicas dispatched so far (across all rounds).
    k: u8,
    /// Matching successful ballots required to win.
    need: usize,
    /// Current dispatch round; ballots are deduplicated per
    /// (generation, replica).
    generation: u32,
    /// Per-round delay: vote escrow timeout or hedge delay.
    round_delay: Duration,
    deadline: Instant,
    ballots: Vec<Ballot>,
    /// Sites already given a replica (fresh sites are preferred for
    /// re-dispatch).
    sites_used: Vec<SiteId>,
    /// Extra rounds already spent.
    rounds: u32,
    enqueued_at: Instant,
    /// Divergence is counted once per frame, however many ballots
    /// disagree.
    divergence_noted: bool,
}

/// Action decided under the ledger lock, executed after it is released
/// (dispatching and quarantining send messages / may block).
enum Outcome {
    None,
    Win {
        original: Microframe,
        mode: Mode,
        winner: SiteId,
        winner_generation: u32,
        sends: Vec<WireSend>,
    },
    Redispatch {
        wire: WireFrame,
        target: SiteId,
        generation: u32,
        replica: u8,
        mode: Mode,
        pending_for: Duration,
    },
    Quarantine {
        original: Microframe,
        error: SdvmError,
    },
}

/// The replication manager of one site (coordinator state only;
/// executing replicas carry their identity in [`ReplicaRun`]).
#[derive(Default)]
pub struct ReplicationManager {
    ledger: Mutex<HashMap<GlobalAddress, Entry>>,
}

impl ReplicationManager {
    /// Fresh manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Frames currently held in escrow (tests / introspection).
    pub fn pending(&self) -> usize {
        self.ledger.lock().len()
    }

    /// Called by the memory manager when a frame becomes executable on
    /// its home site. Returns the frame back for normal enqueueing, or
    /// `None` when replication took over its dispatch.
    pub fn intercept(&self, site: &SiteInner, frame: Microframe) -> Option<Microframe> {
        use sdvm_types::ReplicationPolicy;
        if frame.replica.is_some()
            || frame.hint.sticky
            || frame.thread.index == crate::thread::RESULT_THREAD_INDEX
            || frame.id.home != site.my_id()
        {
            return Some(frame);
        }
        match site.program.replication_of(frame.program()) {
            ReplicationPolicy::Off => Some(frame),
            ReplicationPolicy::Replicate { k, selector } => {
                if k <= 1 || !selector.covers(frame.thread.index) {
                    return Some(frame);
                }
                self.begin(site, frame, Mode::Vote, k, site.config.request_timeout);
                None
            }
            ReplicationPolicy::Hedge { delay, selector } => {
                if !selector.covers(frame.thread.index) {
                    return Some(frame);
                }
                self.begin(site, frame, Mode::Hedge, 1, delay);
                None
            }
        }
    }

    /// Open the escrow entry and dispatch the first round.
    fn begin(&self, site: &SiteInner, frame: Microframe, mode: Mode, k: u8, round_delay: Duration) {
        let wire = frame.to_wire();
        let targets = choose_sites(site, frame.id, k as usize, &[]);
        let k = targets.len().max(1) as u8;
        let need = match mode {
            Mode::Vote => k as usize / 2 + 1,
            Mode::Hedge => 1,
        };
        let now = Instant::now();
        self.ledger.lock().insert(
            frame.id,
            Entry {
                original: frame,
                mode,
                k,
                need,
                generation: 0,
                round_delay,
                deadline: now + round_delay,
                ballots: Vec::new(),
                sites_used: targets.clone(),
                rounds: 0,
                enqueued_at: now,
                divergence_noted: false,
            },
        );
        for (i, t) in targets.iter().enumerate() {
            self.dispatch(site, &wire, *t, 0, i as u8, mode);
        }
    }

    /// Send one replica to `target` (locally enqueued when the target is
    /// this site).
    fn dispatch(
        &self,
        site: &SiteInner,
        wire: &WireFrame,
        target: SiteId,
        generation: u32,
        replica: u8,
        mode: Mode,
    ) {
        let me = site.my_id();
        site.emit(TraceEvent::ReplicaDispatched {
            frame: wire.id,
            target,
            generation,
            replica,
            vote: mode == Mode::Vote,
        });
        if target == me {
            let mut f = Microframe::from_wire(wire.clone());
            // Replicas are pinned: they never migrate through the help
            // pool (their ballot must come back to this coordinator).
            f.hint.sticky = true;
            f.replica = Some(ReplicaRun {
                coordinator: me,
                generation,
                replica,
                vote: true,
            });
            site.scheduling.enqueue_executable(site, f);
        } else {
            let _ = site.send_payload(
                target,
                ManagerId::Scheduling,
                ManagerId::Scheduling,
                site.next_seq(),
                Payload::ReplicaTask {
                    frame: wire.clone(),
                    generation,
                    replica,
                    coordinator: me,
                    vote: true,
                },
            );
        }
    }

    /// An executed replica reports its outcome: record the ballot
    /// locally when this site coordinates the frame, otherwise send a
    /// [`Payload::ReplicaDone`] to the coordinator. Called from the
    /// processing manager's worker loop.
    pub fn report(
        &self,
        site: &SiteInner,
        frame: GlobalAddress,
        run: ReplicaRun,
        outcome: Result<Vec<WireSend>, SdvmError>,
    ) {
        let (ok, sends, error) = match outcome {
            Ok(sends) => (true, sends, String::new()),
            Err(e) => (false, Vec::new(), format!("{e}")),
        };
        if run.coordinator == site.my_id() {
            self.on_ballot(
                site,
                frame,
                run.generation,
                run.replica,
                ok,
                sends,
                error,
                site.my_id(),
            );
        } else {
            let _ = site.send_payload(
                run.coordinator,
                ManagerId::Scheduling,
                ManagerId::Scheduling,
                site.next_seq(),
                Payload::ReplicaDone {
                    frame,
                    generation: run.generation,
                    replica: run.replica,
                    ok,
                    sends,
                    error,
                },
            );
        }
    }

    /// A ballot arrived (from the wire or a local replica). Tallies it
    /// and settles the escrow entry when a verdict is reached. Safe to
    /// call from the router thread: winner sends are applied on a
    /// helper task because they may block.
    #[allow(clippy::too_many_arguments)]
    pub fn on_ballot(
        &self,
        site: &SiteInner,
        frame: GlobalAddress,
        generation: u32,
        replica: u8,
        ok: bool,
        sends: Vec<WireSend>,
        error: String,
        from: SiteId,
    ) {
        let outcome = {
            let mut ledger = self.ledger.lock();
            let Some(entry) = ledger.get_mut(&frame) else {
                // Settled (or never escrowed here): a straggler's or
                // duplicate's ballot — fenced.
                return;
            };
            if generation > entry.generation
                || entry
                    .ballots
                    .iter()
                    .any(|b| b.generation == generation && b.replica == replica)
            {
                return;
            }
            entry.ballots.push(Ballot {
                generation,
                replica,
                site: from,
                ok,
                sends,
                error,
            });
            let outcome = tally(site, frame, entry);
            if !matches!(outcome, Outcome::None) {
                match &outcome {
                    Outcome::Redispatch { .. } => {}
                    _ => {
                        ledger.remove(&frame);
                    }
                }
            }
            outcome
        };
        self.settle(site, outcome);
    }

    /// Deadline sweep, driven by the maintenance thread: vote entries
    /// whose round timed out get one extra replica; hedge entries past
    /// their delay fire a duplicate; entries out of rounds are
    /// quarantined.
    pub fn tick(&self, site: &SiteInner) {
        let now = Instant::now();
        let mut outcomes: Vec<Outcome> = Vec::new();
        {
            let mut ledger = self.ledger.lock();
            let mut give_up: Vec<GlobalAddress> = Vec::new();
            for (addr, entry) in ledger.iter_mut() {
                if now < entry.deadline {
                    continue;
                }
                if entry.rounds >= MAX_EXTRA_ROUNDS {
                    give_up.push(*addr);
                    continue;
                }
                if let Some(out) = bump_round(site, entry, now) {
                    outcomes.push(out);
                }
            }
            for addr in give_up {
                if let Some(entry) = ledger.remove(&addr) {
                    outcomes.push(Outcome::Quarantine {
                        error: stall_error(&entry),
                        original: entry.original,
                    });
                }
            }
        }
        for out in outcomes {
            self.settle(site, out);
        }
    }

    /// Drop escrow state of a terminated program.
    pub fn purge_program(&self, program: ProgramId) {
        self.ledger
            .lock()
            .retain(|_, e| e.original.program() != program);
    }

    /// Execute a decided outcome (lock released; may send / may block
    /// via helper tasks).
    fn settle(&self, site: &SiteInner, outcome: Outcome) {
        match outcome {
            Outcome::None => {}
            Outcome::Win {
                original,
                mode,
                winner,
                winner_generation,
                sends,
            } => {
                let id = original.id;
                let thread = original.thread;
                if mode == Mode::Hedge && winner_generation > 0 {
                    site.emit(TraceEvent::HedgeWon { frame: id, winner });
                }
                // Applying the winner's sends may block on remote
                // owners — helper task, never the router thread.
                site.spawn_task(move |site| {
                    for s in sends {
                        if let Err(e) = site
                            .memory
                            .apply_or_forward(site, s.target, s.slot, s.value)
                        {
                            site.dropped(
                                DropReason::WinnerSendFailed,
                                format!("result for {} slot {}: {e}", s.target, s.slot),
                            );
                        }
                    }
                    site.memory.consume_frame(site, id);
                    site.emit(TraceEvent::FrameExecuted { frame: id, thread });
                });
            }
            Outcome::Redispatch {
                wire,
                target,
                generation,
                replica,
                mode,
                pending_for,
            } => {
                if mode == Mode::Hedge {
                    site.metrics.hedge_delay_us.observe_duration(pending_for);
                    site.emit(TraceEvent::HedgeFired {
                        frame: wire.id,
                        target,
                    });
                }
                self.dispatch(site, &wire, target, generation, replica, mode);
            }
            Outcome::Quarantine { original, error } => {
                site.deadletter.quarantine(site, original, error);
            }
        }
    }
}

/// Tally the ballots of one entry after a new arrival. Decides a win,
/// an immediate tie-break re-dispatch, a quarantine, or nothing yet.
/// Mutates round state when re-dispatching.
fn tally(site: &SiteInner, frame: GlobalAddress, entry: &mut Entry) -> Outcome {
    // Group successful ballots by their full send-vector.
    let mut groups: Vec<(usize, usize)> = Vec::new(); // (first ballot idx, count)
    for (i, b) in entry.ballots.iter().enumerate() {
        if !b.ok {
            continue;
        }
        match groups
            .iter_mut()
            .find(|(first, _)| entry.ballots[*first].sends == b.sends)
        {
            Some((_, n)) => *n += 1,
            None => groups.push((i, 1)),
        }
    }
    if groups.len() >= 2 && !entry.divergence_noted {
        entry.divergence_noted = true;
        site.emit(TraceEvent::ResultDivergence {
            frame,
            thread: entry.original.thread,
        });
    }
    if let Some((first, _)) = groups.iter().find(|(_, n)| *n >= entry.need) {
        let b = &entry.ballots[*first];
        return Outcome::Win {
            original: entry.original.clone(),
            mode: entry.mode,
            winner: b.site,
            winner_generation: b.generation,
            sends: b.sends.clone(),
        };
    }
    if entry.ballots.len() < entry.k as usize {
        return Outcome::None; // ballots still outstanding
    }
    // Every dispatched replica reported, no majority: tie (divergence)
    // or total failure. Re-execute on a fresh site while the round
    // budget lasts.
    if entry.rounds < MAX_EXTRA_ROUNDS {
        if let Some(out) = bump_round(site, entry, Instant::now()) {
            return out;
        }
    }
    Outcome::Quarantine {
        original: entry.original.clone(),
        error: stall_error(entry),
    }
}

/// Start one extra round: bump the generation, pick a fresh site,
/// produce the re-dispatch outcome. `None` only if no site exists.
fn bump_round(site: &SiteInner, entry: &mut Entry, now: Instant) -> Option<Outcome> {
    let target = choose_sites(site, entry.original.id, 1, &entry.sites_used)
        .into_iter()
        .next()
        .or_else(|| {
            // All known sites already used: reuse, rotated by round.
            let all = choose_sites(site, entry.original.id, usize::MAX, &[]);
            let n = all.len();
            (n > 0).then(|| all[(entry.rounds as usize + 1) % n])
        })?;
    entry.rounds += 1;
    entry.generation += 1;
    entry.k += 1;
    if entry.mode == Mode::Vote {
        entry.need = entry.k as usize / 2 + 1;
    }
    entry.deadline = now + entry.round_delay;
    entry.sites_used.push(target);
    Some(Outcome::Redispatch {
        wire: entry.original.to_wire(),
        target,
        generation: entry.generation,
        replica: (entry.k - 1),
        mode: entry.mode,
        pending_for: now.saturating_duration_since(entry.enqueued_at),
    })
}

/// The error a frame is quarantined with when replication gives up.
fn stall_error(entry: &Entry) -> SdvmError {
    let successes = entry.ballots.iter().filter(|b| b.ok).count();
    if successes == 0 {
        // Every replica failed the same way the frame itself would
        // have: surface the application error, not a divergence.
        let detail = entry
            .ballots
            .iter()
            .find(|b| !b.error.is_empty())
            .map(|b| b.error.clone())
            .unwrap_or_else(|| "no replica reported".to_string());
        SdvmError::Application(format!(
            "all {} replicas failed: {detail}",
            entry.ballots.len()
        ))
    } else {
        let detail = format!(
            "{} ballots, {} successful, no {}-majority after {} extra rounds",
            entry.ballots.len(),
            successes,
            entry.need,
            entry.rounds
        );
        SdvmError::ResultDivergence {
            frame: entry.original.id,
            thread: entry.original.thread,
            detail,
        }
    }
}

/// Deterministically pick up to `n` distinct live sites for a frame's
/// replicas: the sorted membership rotated by the frame's local id, so
/// load spreads without coordination and re-runs pick the same sites.
///
/// Proximity-aware (wire v9): once this site's Vivaldi coordinate has
/// converged, the rotation runs over the nearest `2n` members instead
/// of the whole roster — replica round trips stay short without
/// collapsing onto a single neighbor (the rotation by frame id still
/// spreads load inside the pool, and re-runs still pick the same
/// sites for the same frame). Until convergence this is exactly the
/// original whole-roster rotation.
fn choose_sites(
    site: &SiteInner,
    frame: GlobalAddress,
    n: usize,
    exclude: &[SiteId],
) -> Vec<SiteId> {
    let mut all = site.cluster.known_sites();
    if all.is_empty() {
        return vec![site.my_id()];
    }
    if n < all.len() && site.cluster.rank_by_proximity(&mut all) {
        let pool = n.saturating_mul(2).clamp(1, all.len());
        all.truncate(pool);
        all.sort_unstable(); // rotation needs a stable id order
    }
    let start = (frame.local as usize) % all.len();
    let mut picked = Vec::new();
    for i in 0..all.len() {
        if picked.len() >= n {
            break;
        }
        let s = all[(start + i) % all.len()];
        if !exclude.contains(&s) {
            picked.push(s);
        }
    }
    picked
}
