//! The scheduling manager (paper §3.3, §4, Fig. 5).
//!
//! Maintains the queue of *executable* microframes (all parameters
//! present) and the queue of *ready* microframes (code pointer obtained
//! from the code manager). Local scheduling defaults to FIFO (avoids
//! starvation); answers to help requests default to LIFO (latency
//! hiding); both are configurable, and the `priority` policy consumes the
//! CDAG scheduling hints. When both queues are empty the site is idle and
//! sends *help requests* to sites chosen by the cluster manager — this is
//! the SDVM's fully decentralized scheduling.

use crate::frame::{Microframe, ReplicaRun};
use crate::managers::backup;
use crate::site::SiteInner;
use crate::telemetry::trace_id_of;
use crate::thread::ThreadFn;
use crate::trace::TraceEvent;
use parking_lot::{Condvar, Mutex};
use sdvm_types::{ManagerId, QueuePolicy, SdvmResult};
use sdvm_wire::{Payload, SdMessage, TraceContext};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

#[derive(Default)]
struct SchedState {
    executable: VecDeque<Microframe>,
    ready: VecDeque<(Microframe, ThreadFn)>,
    /// Programs currently paused (quiesced for checkpointing).
    paused: std::collections::HashSet<sdvm_types::ProgramId>,
    /// Frames of paused programs, parked until resume.
    parked: Vec<Microframe>,
    /// Frames re-enqueued with a retry backoff, promoted back into
    /// `executable` once their due time passes (polled by the workers'
    /// existing 20 ms idle wakeup — no extra timer thread).
    delayed: Vec<(Instant, Microframe)>,
    /// Frames of each program currently executing on this site.
    running: std::collections::HashMap<sdvm_types::ProgramId, u32>,
    /// Pre-execution images of the frames currently running in worker
    /// slots. A fired frame is already out of the memory manager and out
    /// of every queue while a worker executes it, so a non-quiescing
    /// (incremental) snapshot would silently lose it — and with it the
    /// whole subtree it was about to spawn. Registered by the worker's
    /// slot guard on entry, cleared on exit (all paths, RAII). Replica
    /// runs are not registered: they report to a coordinator that a
    /// restored cluster would not have.
    in_flight: std::collections::HashMap<sdvm_types::GlobalAddress, Microframe>,
}

impl SchedState {
    /// Move every delayed frame whose backoff has elapsed back into the
    /// executable queue. Returns how many were promoted.
    fn promote_due(&mut self, now: Instant) -> usize {
        if self.delayed.is_empty() {
            return 0;
        }
        let mut promoted = 0;
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let (_, frame) = self.delayed.swap_remove(i);
                if self.paused.contains(&frame.program()) {
                    self.parked.push(frame);
                } else {
                    self.executable.push_back(frame);
                }
                promoted += 1;
            } else {
                i += 1;
            }
        }
        promoted
    }
}

/// The scheduling manager of one site.
pub struct SchedulingManager {
    state: Mutex<SchedState>,
    work_cond: Condvar,
    local_policy: QueuePolicy,
    help_policy: QueuePolicy,
    busy: AtomicU32,
    /// Rising epoch for load gossip.
    epoch: std::sync::atomic::AtomicU64,
}

fn pop_frame(q: &mut VecDeque<Microframe>, policy: QueuePolicy) -> Option<Microframe> {
    policy.pop(q, |f| f.hint.priority)
}

fn pop_ready(
    q: &mut VecDeque<(Microframe, ThreadFn)>,
    policy: QueuePolicy,
) -> Option<(Microframe, ThreadFn)> {
    policy.pop(q, |(f, _)| f.hint.priority)
}

/// Pop a frame to give away on a help request: prefer the executable
/// queue, fall back to ready frames (dropping the local code pointer).
/// Sticky frames (e.g. the hidden result frame) never leave their site.
///
/// Candidates are ranked by `score` (locality of their argument objects
/// relative to the requester — see `MemoryManager::help_score`); the
/// queue policy only breaks ties, so a frame whose inputs live at the
/// requester beats the LIFO-top frame whose inputs live here. The
/// winning score is returned for tracing.
fn pop_for_help(
    st: &mut SchedState,
    policy: QueuePolicy,
    score: impl Fn(&Microframe) -> i32,
) -> Option<(Microframe, i32)> {
    let best_exec = st
        .executable
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.hint.sticky)
        .max_by_key(|(i, f)| (score(f), policy.rank(*i, f.hint.priority)))
        .map(|(i, f)| (i, score(f)));
    if let Some((idx, s)) = best_exec {
        return st.executable.remove(idx).map(|f| (f, s));
    }
    let best_ready = st
        .ready
        .iter()
        .enumerate()
        .filter(|(_, (f, _))| !f.hint.sticky)
        .max_by_key(|(i, (f, _))| (score(f), policy.rank(*i, f.hint.priority)))
        .map(|(i, (f, _))| (i, score(f)));
    if let Some((idx, s)) = best_ready {
        return st.ready.remove(idx).map(|(f, _)| (f, s));
    }
    None
}

impl SchedulingManager {
    /// Build from the site config.
    pub fn new(config: &crate::config::SiteConfig) -> Self {
        SchedulingManager {
            state: Mutex::new(SchedState::default()),
            work_cond: Condvar::new(),
            local_policy: config.local_policy,
            help_policy: config.help_policy,
            busy: AtomicU32::new(0),
            epoch: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// Queue a frame that just became executable.
    pub fn enqueue_executable(&self, _site: &SiteInner, frame: Microframe) {
        let mut st = self.state.lock();
        if st.paused.contains(&frame.program()) {
            st.parked.push(frame);
        } else {
            st.executable.push_back(frame);
        }
        drop(st);
        self.work_cond.notify_one();
    }

    /// Queue a frame whose execution failed on an infrastructure error:
    /// it re-enters the executable queue only after `delay` has passed
    /// (capped exponential backoff, budgeted by the caller).
    pub fn enqueue_delayed(&self, _site: &SiteInner, frame: Microframe, delay: Duration) {
        let due = Instant::now() + delay;
        self.state.lock().delayed.push((due, frame));
        // No notify: the due time is in the future; idle workers re-check
        // every 20 ms anyway.
    }

    /// Frames currently sitting out a retry backoff (observability).
    pub fn delayed_count(&self) -> usize {
        self.state.lock().delayed.len()
    }

    /// Local activity of a program: frames queued (executable, ready,
    /// parked or sitting out a backoff) plus frames currently executing.
    /// Zero means this site has nothing left to do for the program —
    /// the stuck-program watchdog's main input.
    pub fn program_activity(&self, program: sdvm_types::ProgramId) -> usize {
        let st = self.state.lock();
        st.executable
            .iter()
            .filter(|f| f.program() == program)
            .count()
            + st.ready
                .iter()
                .filter(|(f, _)| f.program() == program)
                .count()
            + st.parked.iter().filter(|f| f.program() == program).count()
            + st.delayed
                .iter()
                .filter(|(_, f)| f.program() == program)
                .count()
            + st.running.get(&program).copied().unwrap_or(0) as usize
    }

    /// Pause a program: park its queued frames; workers stop picking its
    /// frames up. Running frames drain (see [`Self::wait_quiesced`]).
    pub fn pause_program(&self, program: sdvm_types::ProgramId) {
        let mut st = self.state.lock();
        st.paused.insert(program);
        let mut parked = Vec::new();
        st.executable.retain(|f| {
            if f.program() == program {
                parked.push(f.clone());
                false
            } else {
                true
            }
        });
        // Ready frames lose their resolved code pointer; it is re-fetched
        // (from the local cache) after resume.
        st.ready.retain(|(f, _)| {
            if f.program() == program {
                parked.push(f.clone());
                false
            } else {
                true
            }
        });
        st.parked.extend(parked);
    }

    /// Resume a paused program: its parked frames re-enter the queue.
    pub fn resume_program(&self, program: sdvm_types::ProgramId) {
        let mut st = self.state.lock();
        st.paused.remove(&program);
        let parked = std::mem::take(&mut st.parked);
        for f in parked {
            if f.program() == program {
                st.executable.push_back(f);
            } else {
                st.parked.push(f);
            }
        }
        drop(st);
        self.work_cond.notify_all();
    }

    pub(crate) fn note_running(&self, program: sdvm_types::ProgramId, delta: i32) {
        let mut st = self.state.lock();
        let e = st.running.entry(program).or_insert(0);
        if delta > 0 {
            *e += delta as u32;
        } else {
            *e = e.saturating_sub((-delta) as u32);
        }
    }

    /// Block until no frame of `program` is executing locally (or the
    /// deadline passes). Used to quiesce before snapshotting.
    pub fn wait_quiesced(&self, program: sdvm_types::ProgramId, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let running = self
                .state
                .lock()
                .running
                .get(&program)
                .copied()
                .unwrap_or(0);
            if running == 0 {
                return true;
            }
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Clone (do not drain) all queued/parked frames of a program — the
    /// scheduling manager's contribution to a checkpoint snapshot.
    /// Includes the pre-execution image of every frame currently running
    /// in a worker slot: a non-quiescing cut must capture those too, or
    /// restoring it would lose the running frames' subtrees (their
    /// re-execution re-sends results; duplicates of sends that already
    /// landed are rejected by the target frame's slot-fill check).
    pub fn snapshot_program(&self, program: sdvm_types::ProgramId) -> Vec<Microframe> {
        let st = self.state.lock();
        st.executable
            .iter()
            .chain(st.ready.iter().map(|(f, _)| f))
            .chain(st.parked.iter())
            .chain(st.delayed.iter().map(|(_, f)| f))
            .chain(st.in_flight.values())
            .filter(|f| f.program() == program)
            .cloned()
            .collect()
    }

    /// Register the pre-execution image of a frame entering a worker
    /// slot (see `SchedState::in_flight`).
    pub(crate) fn note_in_flight(&self, frame: Microframe) {
        self.state.lock().in_flight.insert(frame.id, frame);
    }

    /// Drop the in-flight image of a frame leaving its worker slot.
    pub(crate) fn clear_in_flight(&self, id: sdvm_types::GlobalAddress) {
        self.state.lock().in_flight.remove(&id);
    }

    /// Wake all idle workers (shutdown).
    pub fn wake_all(&self) {
        self.work_cond.notify_all();
    }

    /// (queued executable+ready, busy slots) for load reports.
    pub fn load_numbers(&self) -> (u32, u32) {
        let st = self.state.lock();
        (
            (st.executable.len() + st.ready.len()) as u32,
            self.busy.load(Ordering::Relaxed),
        )
    }

    /// Total frames the scheduler still holds in *any* queue (executable,
    /// ready, parked, delayed) plus the busy worker slots. This is the
    /// drain-progress number: a draining site reports it live on
    /// `/healthz` and it must reach zero before the site departs.
    pub fn queued_total(&self) -> usize {
        let st = self.state.lock();
        st.executable.len()
            + st.ready.len()
            + st.parked.len()
            + st.delayed.len()
            + self.busy.load(Ordering::Relaxed) as usize
    }

    /// Next load-gossip epoch.
    pub fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn set_busy(&self, delta: i32) {
        if delta > 0 {
            self.busy.fetch_add(delta as u32, Ordering::Relaxed);
        } else {
            self.busy.fetch_sub((-delta) as u32, Ordering::Relaxed);
        }
    }

    /// Blocking: produce the next (frame, code) pair for a processing
    /// slot, following Fig. 4's execution cycle: take a ready frame, or
    /// make an executable one ready by obtaining its code, or — idle —
    /// send a help request to another site. Returns `None` at shutdown.
    pub fn next_work(&self, site: &SiteInner) -> Option<(Microframe, ThreadFn)> {
        loop {
            if !site.is_running() {
                return None;
            }
            // A supervision drill asked one worker to exit: this slot
            // dies here and the supervisor respawns it.
            if site.take_worker_exit() {
                return None;
            }
            // 0. Promote frames whose retry backoff elapsed.
            // 1. Ready frame?
            {
                let mut st = self.state.lock();
                st.promote_due(Instant::now());
                if let Some(pair) = pop_ready(&mut st.ready, self.local_policy) {
                    if st.paused.contains(&pair.0.program()) {
                        st.parked.push(pair.0);
                        continue;
                    }
                    return Some(pair);
                }
                // 2. Executable frame → obtain code (may block remotely).
                if let Some(frame) = pop_frame(&mut st.executable, self.local_policy) {
                    if st.paused.contains(&frame.program()) {
                        st.parked.push(frame);
                        continue;
                    }
                    // While the code fetch blocks, the frame is in no
                    // queue — count it as running so checkpoint quiescing
                    // does not cut a snapshot that misses it.
                    let program = frame.program();
                    *st.running.entry(program).or_insert(0) += 1;
                    drop(st);
                    let ensured = site.code.ensure(site, frame.thread);
                    let mut st = self.state.lock();
                    let e = st.running.entry(program).or_insert(1);
                    *e = e.saturating_sub(1);
                    match ensured {
                        Ok(func) => {
                            site.emit(TraceEvent::FrameReady {
                                site: site.my_id(),
                                frame: frame.id,
                            });
                            st.ready.push_back((frame, func));
                            continue;
                        }
                        Err(_) => {
                            // Code currently unavailable: requeue and back
                            // off so we don't spin.
                            st.executable.push_back(frame);
                            drop(st);
                            std::thread::sleep(Duration::from_millis(5));
                            continue;
                        }
                    }
                }
            }
            // 3. Idle: ask another site for work (unless draining).
            if !site.is_draining() {
                if let Err(_e) = self.try_help_request(site) {
                    // No peers or no luck — fall through to waiting.
                }
            }
            // 4. Wait for local work to appear.
            let mut st = self.state.lock();
            if st.ready.is_empty() && st.executable.is_empty() {
                self.work_cond.wait_for(&mut st, Duration::from_millis(20));
            }
        }
    }

    /// One help-request round: ask the most promising peer. On a granted
    /// frame, adopt it locally.
    fn try_help_request(&self, site: &SiteInner) -> SdvmResult<()> {
        if !site.my_id().is_valid() {
            return Ok(()); // sign-on not finished: nobody could answer us
        }
        let Some(target) = site.cluster.pick_help_target(site) else {
            return Ok(()); // alone in the cluster
        };
        site.emit(TraceEvent::HelpRequested {
            site: site.my_id(),
            target,
        });
        let load = site.cluster.my_load(site);
        let descriptor = if site.cluster.announced(target) {
            None
        } else {
            Some(site.cluster.my_descriptor(site))
        };
        let asked = std::time::Instant::now();
        let reply = site.request(
            target,
            ManagerId::Scheduling,
            ManagerId::Scheduling,
            Payload::HelpRequest { load, descriptor },
            site.config.help_timeout,
        )?;
        site.metrics
            .help_rtt_us
            .observe(asked.elapsed().as_micros() as u64);
        // The help round trip doubles as a Vivaldi coordinate sample
        // (wire v9) — no extra probe traffic is ever sent.
        site.cluster.observe_rtt(target, asked.elapsed());
        if let Payload::HelpReply { frame } = reply.payload {
            let granter = reply.src_site;
            let frame = Microframe::from_wire(frame);
            let id = frame.id;
            // adopt_frame mirrors the frame to OUR buddy first; only then
            // is the granter's (now stale) backup entry released.
            site.memory.adopt_frame(site, frame);
            backup::mirror_released(site, granter, id);
        }
        Ok(())
    }

    /// Drop all queued frames of a terminated program.
    pub fn purge_program(&self, program: sdvm_types::ProgramId) {
        let mut st = self.state.lock();
        st.executable.retain(|f| f.program() != program);
        st.ready.retain(|(f, _)| f.program() != program);
        st.parked.retain(|f| f.program() != program);
        st.delayed.retain(|(_, f)| f.program() != program);
        st.paused.remove(&program);
    }

    /// Everything queued here, for relocation at sign-off.
    pub fn drain_all(&self) -> Vec<Microframe> {
        let mut st = self.state.lock();
        let mut out: Vec<Microframe> = st.executable.drain(..).collect();
        out.extend(st.ready.drain(..).map(|(f, _)| f));
        out.append(&mut st.parked);
        out.extend(st.delayed.drain(..).map(|(_, f)| f));
        out
    }

    /// Handle an incoming scheduling-manager message.
    pub fn handle(&self, site: &SiteInner, msg: SdMessage) {
        match msg.payload.clone() {
            Payload::HelpRequest { load, descriptor } => {
                // The help request doubles as join announcement (§3.4).
                if let Some(d) = descriptor {
                    site.cluster.learn(site, d);
                }
                site.cluster.note_load(msg.src_site, load);
                let requester = msg.src_site;
                // Never give work away while draining (we are busy
                // relocating it ourselves), never to ourselves, and never
                // to a requester we cannot address a reply to — the frame
                // inside the reply would be lost.
                let frame = if site.is_draining()
                    || requester == site.my_id()
                    || !requester.is_valid()
                    || site.cluster.addr_of(requester).is_none()
                {
                    None
                } else {
                    pop_for_help(&mut self.state.lock(), self.help_policy, |f| {
                        site.memory.help_score(requester, f)
                    })
                };
                match frame {
                    Some((frame, score)) => {
                        site.emit(TraceEvent::HelpGranted {
                            site: site.my_id(),
                            requester,
                            frame: frame.id,
                            score,
                        });
                        // Ownership moves to the requester: fix up the
                        // homesite directory and release our backup.
                        let me = site.my_id();
                        let home = site.memory.resolve_home(site, frame.id.home);
                        if home == me {
                            // We are the directory: note new owner once
                            // the requester adopts (it will send
                            // OwnerUpdate; set it eagerly too, for reads
                            // racing the adoption).
                            let _ = site.send_payload(
                                me,
                                ManagerId::Memory,
                                ManagerId::Memory,
                                site.next_seq(),
                                Payload::OwnerUpdate {
                                    addr: frame.id,
                                    owner: requester,
                                },
                            );
                        }
                        let mut reply = msg.reply(
                            site.next_seq(),
                            ManagerId::Scheduling,
                            Payload::HelpReply {
                                frame: frame.to_wire(),
                            },
                        );
                        // The migration rides the wire under the frame's
                        // own trace context, so the requester's hops are
                        // stitchable to this career.
                        reply.trace = TraceContext {
                            origin: frame.id.home,
                            id: trace_id_of(frame.id),
                        };
                        if site.send_msg(reply).is_err() {
                            // The requester became unreachable between
                            // request and grant: the frame must not be
                            // lost — take it back.
                            site.memory.adopt_frame(site, frame);
                        }
                    }
                    None => {
                        site.emit(TraceEvent::HelpDenied {
                            site: site.my_id(),
                            requester,
                        });
                        site.reply_to(&msg, ManagerId::Scheduling, Payload::CantHelp {});
                    }
                }
            }
            // A help reply whose waiter timed out: adopt the frame anyway
            // so no work is ever lost.
            Payload::HelpReply { frame } => {
                let granter = msg.src_site;
                let frame = Microframe::from_wire(frame);
                let id = frame.id;
                site.memory.adopt_frame(site, frame);
                backup::mirror_released(site, granter, id);
            }
            Payload::CantHelp {} => {}
            // A replica of a frame coordinated elsewhere: execute it
            // here, ballot-buffered. Pinned (sticky) so the help pool
            // never migrates it away from the site it was dispatched to.
            Payload::ReplicaTask {
                frame,
                generation,
                replica,
                coordinator,
                vote,
            } => {
                let mut f = Microframe::from_wire(frame);
                f.hint.sticky = true;
                f.replica = Some(ReplicaRun {
                    coordinator,
                    generation,
                    replica,
                    vote,
                });
                self.enqueue_executable(site, f);
            }
            // A replica's ballot coming home to this coordinator.
            Payload::ReplicaDone {
                frame,
                generation,
                replica,
                ok,
                sends,
                error,
            } => {
                site.replication.on_ballot(
                    site,
                    frame,
                    generation,
                    replica,
                    ok,
                    sends,
                    error,
                    msg.src_site,
                );
            }
            other => {
                site.reply_to(
                    &msg,
                    ManagerId::Scheduling,
                    Payload::Error {
                        message: format!("scheduling: unexpected {}", other.name()),
                    },
                );
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use sdvm_types::{GlobalAddress, MicrothreadId, Priority, ProgramId, SchedulingHint, SiteId};

    fn mk(local: u64, prio: i32, sticky: bool) -> Microframe {
        Microframe::new(
            GlobalAddress::new(SiteId(1), local),
            MicrothreadId::new(ProgramId(1), 0),
            0,
            vec![],
            SchedulingHint {
                priority: Priority(prio),
                sticky,
            },
        )
    }

    fn queue(frames: Vec<Microframe>) -> VecDeque<Microframe> {
        frames.into_iter().collect()
    }

    #[test]
    fn fifo_pops_oldest() {
        let mut q = queue(vec![mk(1, 0, false), mk(2, 0, false), mk(3, 0, false)]);
        assert_eq!(pop_frame(&mut q, QueuePolicy::Fifo).unwrap().id.local, 1);
        assert_eq!(pop_frame(&mut q, QueuePolicy::Fifo).unwrap().id.local, 2);
    }

    #[test]
    fn lifo_pops_newest() {
        let mut q = queue(vec![mk(1, 0, false), mk(2, 0, false), mk(3, 0, false)]);
        assert_eq!(pop_frame(&mut q, QueuePolicy::Lifo).unwrap().id.local, 3);
        assert_eq!(pop_frame(&mut q, QueuePolicy::Lifo).unwrap().id.local, 2);
    }

    #[test]
    fn priority_pops_highest_then_fifo_among_equals() {
        let mut q = queue(vec![
            mk(1, 5, false),
            mk(2, 9, false),
            mk(3, 9, false),
            mk(4, 1, false),
        ]);
        assert_eq!(
            pop_frame(&mut q, QueuePolicy::Priority).unwrap().id.local,
            2
        );
        assert_eq!(
            pop_frame(&mut q, QueuePolicy::Priority).unwrap().id.local,
            3
        );
        assert_eq!(
            pop_frame(&mut q, QueuePolicy::Priority).unwrap().id.local,
            1
        );
        assert_eq!(
            pop_frame(&mut q, QueuePolicy::Priority).unwrap().id.local,
            4
        );
        assert!(pop_frame(&mut q, QueuePolicy::Priority).is_none());
    }

    #[test]
    fn help_never_gives_sticky_frames() {
        // Only the sticky result frame queued: nothing to give.
        let mut st = SchedState {
            executable: queue(vec![mk(1, 0, true)]),
            ..Default::default()
        };
        assert!(pop_for_help(&mut st, QueuePolicy::Lifo, |_| 0).is_none());
        assert_eq!(st.executable.len(), 1, "sticky frame must stay queued");
        // With a normal frame present, that one is given instead.
        st.executable.push_back(mk(2, 0, false));
        let (given, _) = pop_for_help(&mut st, QueuePolicy::Lifo, |_| 0).unwrap();
        assert_eq!(given.id.local, 2);
        assert_eq!(st.executable.len(), 1);
    }

    #[test]
    fn help_lifo_gives_most_recent_nonsticky() {
        let mut st = SchedState {
            executable: queue(vec![mk(1, 0, false), mk(2, 0, false), mk(3, 0, true)]),
            ..Default::default()
        };
        let (given, _) = pop_for_help(&mut st, QueuePolicy::Lifo, |_| 0).unwrap();
        assert_eq!(given.id.local, 2, "newest non-sticky frame leaves first");
        let (given, _) = pop_for_help(&mut st, QueuePolicy::Fifo, |_| 0).unwrap();
        assert_eq!(given.id.local, 1);
    }

    #[test]
    fn help_scoring_beats_queue_order() {
        // LIFO would give frame 3; a higher locality score on frame 1
        // overrides the queue order, and the winning score is returned.
        let mut st = SchedState {
            executable: queue(vec![mk(1, 0, false), mk(2, 0, false), mk(3, 0, false)]),
            ..Default::default()
        };
        let (given, score) = pop_for_help(&mut st, QueuePolicy::Lifo, |f| {
            if f.id.local == 1 {
                2
            } else {
                0
            }
        })
        .unwrap();
        assert_eq!(given.id.local, 1, "locality score overrides LIFO");
        assert_eq!(score, 2);
        // Ties fall back to the queue policy (LIFO: newest first).
        let (given, score) = pop_for_help(&mut st, QueuePolicy::Lifo, |_| 0).unwrap();
        assert_eq!(given.id.local, 3);
        assert_eq!(score, 0);
    }

    #[test]
    fn delayed_frames_promote_only_when_due() {
        let mut st = SchedState::default();
        let now = Instant::now();
        st.delayed
            .push((now + Duration::from_millis(50), mk(1, 0, false)));
        st.delayed.push((now, mk(2, 0, false)));
        assert_eq!(st.promote_due(now), 1, "only the due frame promotes");
        assert_eq!(st.executable.len(), 1);
        assert_eq!(st.executable[0].id.local, 2);
        assert_eq!(st.delayed.len(), 1);
        assert_eq!(st.promote_due(now + Duration::from_millis(60)), 1);
        assert!(st.delayed.is_empty());
    }

    #[test]
    fn delayed_frames_of_paused_programs_park_instead() {
        let mut st = SchedState::default();
        st.paused.insert(ProgramId(1));
        let now = Instant::now();
        st.delayed.push((now, mk(1, 0, false)));
        assert_eq!(st.promote_due(now), 1);
        assert!(st.executable.is_empty());
        assert_eq!(st.parked.len(), 1, "paused program's frame parks");
    }

    #[test]
    fn help_falls_back_to_ready_queue() {
        let noop: ThreadFn = std::sync::Arc::new(|_| Ok(()));
        let mut st = SchedState::default();
        st.ready.push_back((mk(7, 0, false), noop.clone()));
        st.ready.push_back((mk(8, 3, false), noop));
        let (given, _) = pop_for_help(&mut st, QueuePolicy::Priority, |_| 0).unwrap();
        assert_eq!(given.id.local, 8, "highest-priority ready frame given");
        assert_eq!(st.ready.len(), 1);
    }
}
