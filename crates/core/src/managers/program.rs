//! The program manager (paper §4): multi-program bookkeeping.
//!
//! "If the SDVM runs more than one program at the same time, the programs
//! must be distinguished." Each site keeps a list of programs it works
//! on: the *code home site* (to request microthread code from), and a
//! terminated flag so a program's microthreads and objects can be purged.

use crate::site::SiteInner;
use crate::trace::TraceEvent;
use parking_lot::Mutex;
use sdvm_types::{
    FailurePolicy, GlobalAddress, ManagerId, MicrothreadId, ProgramId, ReplicationPolicy,
    SdvmError, SdvmResult, SiteId, Value,
};
use sdvm_wire::{Payload, SdMessage};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// What a site knows about one program.
#[derive(Clone, Debug)]
pub struct ProgramInfo {
    /// Site to request microthread code from (usually the starting site).
    pub code_home: SiteId,
    /// Human-readable name.
    pub name: String,
    /// Number of microthreads in the code table.
    pub threads: u32,
    /// Set once the program delivered its result.
    pub terminated: bool,
}

/// The program manager of one site.
#[derive(Default)]
pub struct ProgramManager {
    programs: Mutex<HashMap<ProgramId, ProgramInfo>>,
    waiters: Mutex<HashMap<ProgramId, crossbeam::channel::Sender<SdvmResult<Value>>>>,
    /// Failure policy per locally started program (frontend-only state;
    /// the quarantining site reports here and this map decides).
    policies: Mutex<HashMap<ProgramId, FailurePolicy>>,
    /// Replication policy per program. Unlike `policies` this is
    /// cluster-wide state: every site learns it from `ProgramRegister`
    /// so a frame's home site can replicate or hedge its dispatch.
    replication: Mutex<HashMap<ProgramId, ReplicationPolicy>>,
    /// Watchdog state: when a locally started program was first seen
    /// quiet (no runnable frames, no in-flight requests, result still
    /// undelivered). Cleared on any sign of life.
    quiet_since: Mutex<HashMap<ProgramId, Instant>>,
    /// Checkpoint snapshots stored on this site ("the sites where
    /// checkpoints are stored", §4): program → (epoch, snapshot bytes).
    checkpoints: Mutex<HashMap<ProgramId, (u64, bytes::Bytes)>>,
    next_local: AtomicU32,
}

impl ProgramManager {
    /// Fresh manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a cluster-unique program id: the starting site's id in
    /// the upper bits, a local counter in the lower.
    pub fn alloc_program_id(&self, site: &SiteInner) -> ProgramId {
        let n = self.next_local.fetch_add(1, Ordering::Relaxed);
        ProgramId((site.my_id().0 << 16) | (n & 0xffff))
    }

    /// Register a program (locally started or announced by another site).
    pub fn register(&self, program: ProgramId, info: ProgramInfo) {
        self.programs.lock().entry(program).or_insert(info);
    }

    /// Install the result waiter for a locally started program. The
    /// channel carries a `Result` so quarantine escalation and the stuck
    /// watchdog can fail the waiter instead of leaving it hanging.
    pub fn install_waiter(
        &self,
        program: ProgramId,
    ) -> crossbeam::channel::Receiver<SdvmResult<Value>> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.waiters.lock().insert(program, tx);
        rx
    }

    /// Set the failure policy for a locally started program (default:
    /// [`FailurePolicy::FailFast`]).
    pub fn set_policy(&self, program: ProgramId, policy: FailurePolicy) {
        self.policies.lock().insert(program, policy);
    }

    /// The failure policy governing a program on this frontend.
    pub fn policy_of(&self, program: ProgramId) -> FailurePolicy {
        self.policies
            .lock()
            .get(&program)
            .copied()
            .unwrap_or_default()
    }

    /// Set the replication policy for a program (default:
    /// [`ReplicationPolicy::Off`]). Learned cluster-wide via
    /// `ProgramRegister`.
    pub fn set_replication(&self, program: ProgramId, policy: ReplicationPolicy) {
        self.replication.lock().insert(program, policy);
    }

    /// The replication policy governing a program's dispatch on this site.
    pub fn replication_of(&self, program: ProgramId) -> ReplicationPolicy {
        self.replication
            .lock()
            .get(&program)
            .copied()
            .unwrap_or_default()
    }

    /// The program's code home site, if known here.
    pub fn code_home(&self, program: ProgramId) -> Option<SiteId> {
        self.programs.lock().get(&program).map(|i| i.code_home)
    }

    /// Name for traces/frontend.
    pub fn name_of(&self, program: ProgramId) -> Option<String> {
        self.programs.lock().get(&program).map(|i| i.name.clone())
    }

    /// Number of non-terminated programs this site knows/works on.
    pub fn active_count(&self) -> u32 {
        self.programs
            .lock()
            .values()
            .filter(|i| !i.terminated)
            .count() as u32
    }

    /// Is the program known and still running?
    pub fn is_active(&self, program: ProgramId) -> bool {
        self.programs
            .lock()
            .get(&program)
            .map(|i| !i.terminated)
            .unwrap_or(false)
    }

    /// Deliver a locally finished program's result: wake the waiting
    /// handle and broadcast termination so all sites can purge.
    pub fn finish_local(&self, site: &SiteInner, program: ProgramId, value: Value) {
        self.settle_local(site, program, Ok(value));
    }

    /// Fail a locally started program: the waiting handle receives the
    /// error and the cluster purges, exactly as on success.
    pub fn fail_local(&self, site: &SiteInner, program: ProgramId, err: SdvmError) {
        self.settle_local(site, program, Err(err));
    }

    fn settle_local(&self, site: &SiteInner, program: ProgramId, outcome: SdvmResult<Value>) {
        let waiter = self.waiters.lock().remove(&program);
        if let Some(tx) = waiter {
            let _ = tx.send(outcome);
        }
        self.quiet_since.lock().remove(&program);
        self.mark_terminated(site, program);
        site.broadcast(ManagerId::Program, Payload::ProgramTerminated { program });
    }

    /// A frame of `program` was quarantined somewhere in the cluster and
    /// this site is the code home: apply the frontend's failure policy.
    /// `FailFast` terminates the program with a descriptive error;
    /// `SkipFrame` reports through the I/O manager and lets the rest of
    /// the program continue.
    pub fn on_frame_quarantined(
        &self,
        site: &SiteInner,
        program: ProgramId,
        frame: GlobalAddress,
        thread: MicrothreadId,
        cause: String,
    ) {
        match self.policy_of(program) {
            FailurePolicy::FailFast => {
                self.fail_local(
                    site,
                    program,
                    SdvmError::ProgramFailed {
                        program,
                        frame,
                        thread,
                        cause,
                    },
                );
            }
            FailurePolicy::SkipFrame => {
                site.io.output(
                    site,
                    program,
                    format!("microthread {thread} frame {frame} quarantined: {cause}"),
                );
            }
        }
    }

    /// Stuck-program watchdog (called from the maintenance tick). A
    /// locally started program whose result is still undelivered, with
    /// zero runnable or running frames on this site and zero in-flight
    /// requests, is quiet; quiet past `SiteConfig::stuck_timeout` is
    /// declared stuck and the waiter gets [`SdvmError::ProgramStuck`].
    ///
    /// The heuristic is frontend-local and conservative: any local
    /// activity resets the clock, and the generous default timeout keeps
    /// remote-only execution phases from tripping it.
    pub fn watchdog_tick(&self, site: &SiteInner) {
        let waiting: Vec<ProgramId> = self.waiters.lock().keys().copied().collect();
        let now = Instant::now();
        let mut stuck: Vec<ProgramId> = Vec::new();
        {
            let mut quiet = self.quiet_since.lock();
            quiet.retain(|p, _| waiting.contains(p));
            for program in waiting {
                let active =
                    site.scheduling.program_activity(program) > 0 || site.pending.outstanding() > 0;
                if active {
                    quiet.remove(&program);
                } else {
                    let since = *quiet.entry(program).or_insert(now);
                    if now.duration_since(since) >= site.config.stuck_timeout {
                        quiet.remove(&program);
                        stuck.push(program);
                    }
                }
            }
        }
        for program in stuck {
            site.emit(TraceEvent::ProgramStuck { program });
            self.fail_local(site, program, SdvmError::ProgramStuck { program });
        }
    }

    fn mark_terminated(&self, site: &SiteInner, program: ProgramId) {
        if let Some(info) = self.programs.lock().get_mut(&program) {
            info.terminated = true;
        }
        site.memory.purge_program(program);
        site.code.purge_program(program);
        site.scheduling.purge_program(program);
        site.backup.purge_program(program);
        site.deadletter.purge_program(program);
        site.replication.purge_program(program);
        self.replication.lock().remove(&program);
    }

    /// Latest checkpoint stored here for `program`, if any.
    pub fn stored_checkpoint(&self, program: ProgramId) -> Option<(u64, bytes::Bytes)> {
        self.checkpoints.lock().get(&program).cloned()
    }

    /// Handle an incoming program-manager message.
    pub fn handle(&self, site: &SiteInner, msg: SdMessage) {
        match msg.payload.clone() {
            Payload::ProgramRegister {
                program,
                code_home,
                name,
                threads,
                replication,
            } => {
                // A draining site refuses new program announcements: it
                // is giving its work away and will be gone before the
                // program runs, so adopting bookkeeping for it would
                // only create state that must immediately relocate.
                if site.is_draining() {
                    return;
                }
                self.register(
                    program,
                    ProgramInfo {
                        code_home,
                        name,
                        threads,
                        terminated: false,
                    },
                );
                self.set_replication(program, replication);
                // A (re-)registration may be a checkpoint restore
                // rewinding the program's objects: cached replicas from
                // the pre-restore timeline must not survive it. Fresh
                // programs trivially have none.
                site.memory.purge_replicas(program);
            }
            Payload::ProgramTerminated { program } => {
                self.mark_terminated(site, program);
            }
            Payload::FrameQuarantined {
                program,
                frame,
                thread,
                cause,
            } => {
                self.on_frame_quarantined(site, program, frame, thread, cause);
            }
            Payload::ProgramPause { program, paused } => {
                if paused {
                    site.scheduling.pause_program(program);
                } else {
                    site.scheduling.resume_program(program);
                }
            }
            Payload::SnapshotCollect { program } => {
                // Quiesce locally (running frames of the program drain —
                // the program is paused, so nothing new starts), then
                // contribute this site's share. Blocking → helper thread.
                site.spawn_task(move |site| {
                    let quiesced = site
                        .scheduling
                        .wait_quiesced(program, site.config.request_timeout / 2);
                    if !quiesced {
                        // An empty part would masquerade as "this site
                        // holds nothing" and the coordinator would store a
                        // silently incomplete snapshot — fail loudly.
                        site.reply_to(
                            &msg,
                            ManagerId::Program,
                            Payload::Error {
                                message: format!("{program} did not quiesce on this site"),
                            },
                        );
                        return;
                    }
                    // Settle window: let in-flight results from the other
                    // sites' draining executions land before we cut.
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    let (objects, mut frames) = site.memory.snapshot_program(program);
                    let queued = site.scheduling.snapshot_program(program);
                    frames.extend(queued.into_iter().map(|f| f.to_wire()));
                    frames.sort_by_key(|f| f.id);
                    site.reply_to(
                        &msg,
                        ManagerId::Program,
                        Payload::SnapshotPart {
                            program,
                            objects,
                            frames,
                        },
                    );
                });
            }
            Payload::DeadLetterSweep { letters } => {
                // A draining peer hands over its quarantined frames so
                // they stay inspectable/re-drivable after it departs.
                // The typed cause did not survive the wire; it arrives
                // as the stringified error and is re-wrapped.
                for (wf, cause) in letters {
                    site.deadletter.adopt(
                        crate::frame::Microframe::from_wire(wf),
                        SdvmError::Application(cause),
                    );
                }
            }
            Payload::SnapshotCollectIncremental { program } => {
                // Pause-free variant of `SnapshotCollect`: no program
                // pause, no quiesce wait, no settle window. The cut is
                // only per-shard consistent; restore semantics are
                // at-least-once (re-executed frames re-deliver results,
                // which the receiving frame's slot-fill check rejects
                // as duplicates). Blocking (shard locks) → helper
                // thread, like the quiesced path.
                site.spawn_task(move |site| {
                    let cut = site.memory.snapshot_program_incremental(program);
                    site.metrics.checkpoint_incremental_cuts.inc();
                    site.metrics
                        .checkpoint_incremental_shards_captured
                        .add(cut.shards_captured as u64);
                    site.metrics
                        .checkpoint_incremental_shards_reused
                        .add(cut.shards_reused as u64);
                    site.metrics
                        .checkpoint_incremental_block_us
                        .observe_duration(cut.max_block);
                    let queued = site.scheduling.snapshot_program(program);
                    let mut frames = cut.frames;
                    frames.extend(queued.into_iter().map(|f| f.to_wire()));
                    frames.sort_by_key(|f| f.id);
                    frames.dedup_by_key(|f| f.id);
                    site.reply_to(
                        &msg,
                        ManagerId::Program,
                        Payload::SnapshotPart {
                            program,
                            objects: cut.objects,
                            frames,
                        },
                    );
                });
            }
            Payload::CheckpointStore {
                program,
                epoch,
                snapshot,
            } => {
                let mut cps = self.checkpoints.lock();
                let newer = cps.get(&program).map(|(e, _)| *e < epoch).unwrap_or(true);
                if newer {
                    cps.insert(program, (epoch, snapshot));
                }
                drop(cps);
                site.reply_to(
                    &msg,
                    ManagerId::Program,
                    Payload::CheckpointAck { program, epoch },
                );
            }
            Payload::CheckpointFetch { program } => {
                let reply = match self.stored_checkpoint(program) {
                    Some((epoch, snapshot)) => Payload::CheckpointData {
                        program,
                        epoch,
                        snapshot,
                    },
                    None => Payload::CheckpointNone { program },
                };
                site.reply_to(&msg, ManagerId::Program, reply);
            }
            other => {
                site.reply_to(
                    &msg,
                    ManagerId::Program,
                    Payload::Error {
                        message: format!("program: unexpected {}", other.name()),
                    },
                );
            }
        }
    }
}
