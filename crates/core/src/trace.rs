//! The telemetry event bus: machine-checkable reproductions of the
//! paper's behavioural figures, with timestamps.
//!
//! Figure 4 (execution cycle) and Figure 5 (the career of microframes:
//! *incomplete → executable → ready → work*) describe runtime behaviour;
//! Figure 6 shows a message's hops through message → cluster → security →
//! network managers. Sites emit [`TraceEvent`]s at those points, so tests
//! can assert the exact lifecycle and the `trace_career` example prints
//! it for inspection.
//!
//! Every event is declared once, in the `events!` table below: its
//! fields, its [`Category`] (the unit `SDVM_TELEMETRY` filters on), the
//! per-site counter it bumps and its name on the Perfetto cluster track.
//! The emitting site is not a field of any event: it rides on the
//! [`BusEvent`] envelope with the sequence numbers and the timestamp, so
//! a site reads its own id only when a bus is attached.
//!
//! The collector is a bounded ring buffer. Old events are overwritten
//! once it is full ([`TraceLog::dropped`] counts them); an emit costs one
//! clock read and a short lock, and wall-clock time is derived on demand
//! from the bus's construction epoch. Non-blocking subscriber taps
//! ([`TraceLog::subscribe`]) receive live copies without ever stalling an
//! emitting site.

use crate::telemetry::{Counter, Metrics};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::{Mutex, RwLock};
use sdvm_types::{GlobalAddress, ManagerId, MicrothreadId, PlatformId, ProgramId, SiteId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default ring capacity: large enough that every existing test and
/// example sees the complete event stream, small enough to bound memory
/// on long chaos runs.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Default depth of a subscriber tap's channel.
pub const DEFAULT_TAP_CAPACITY: usize = 1024;

/// The event table, in three sections:
///
/// - `categories`: `Name = bit, "name";` declares a [`Category`] and the
///   name `SDVM_TELEMETRY` selects it by; `all` is every bit declared.
/// - `reasons`: one [`DropReason`] per line; `DropReason::ALL` is the
///   enum by construction.
/// - `events`: `Variant { fields } => Category[, count field][, label
///   expr];` declares a [`TraceEvent`] variant, its category, the
///   [`Metrics`] counter every emit of it bumps, and the name of its
///   instant on the Perfetto cluster track (an expression over the
///   fields).
///
/// Adding an event is one entry here. What is not a per-variant constant
/// stays hand-written where it is used: the career marks and slices,
/// hop counting, migration flows, `Dropped`'s labelled counter and the
/// flight-recorder triggers.
macro_rules! events {
    (@counter $m:ident) => { None };
    (@counter $m:ident $counter:ident) => { Some(&$m.$counter) };
    (@label) => { None };
    (@label $label:expr) => { Some($label) };
    (
        categories {$( $(#[$cdoc:meta])* $C:ident = $bit:expr, $cname:literal; )*}
        reasons {$( $(#[$rdoc:meta])* $R:ident, )*}
        events {$(
            $(#[$doc:meta])*
            $V:ident { $( $(#[$fdoc:meta])* $f:ident: $t:ty, )* }
                => $cat:ident $(, count $counter:ident)? $(, label $label:expr)?;
        )*}
    ) => {
        /// Coarse event families the `SDVM_TELEMETRY` filter selects on.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u32)]
        pub enum Category {
            $( $(#[$cdoc])* $C = $bit, )*
        }

        impl Category {
            const ALL: u32 = 0 $( | $bit )*;

            fn from_name(name: &str) -> Option<u32> {
                Some(match name {
                    $( $cname => Category::$C as u32, )*
                    "all" => Category::ALL,
                    "off" | "none" => 0,
                    _ => return None,
                })
            }
        }

        /// Why a site discarded a message or result without telling
        /// anyone: the label values of `sdvm_dropped_total` (the variant
        /// names, like the `manager` label of `sdvm_dispatch_us`) and the
        /// payload of [`TraceEvent::Dropped`]. Most are benign
        /// (at-least-once delivery makes duplicates normal); a hung
        /// program shows up as one of these climbing, a hostile peer as
        /// one of the receive-path reasons.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum DropReason {
            $( $(#[$rdoc])* $R, )*
        }

        impl DropReason {
            /// Every reason, in `sdvm_dropped_total` series order.
            pub const ALL: [DropReason; [$(DropReason::$R),*].len()] = [$(DropReason::$R),*];
        }

        /// Something observable happened inside a site; the
        /// [`BusEvent`] carrying it names the site.
        #[derive(Clone, Debug, PartialEq)]
        pub enum TraceEvent {
            $( $(#[$doc])* $V { $( $(#[$fdoc])* $f: $t, )* }, )*
        }

        impl TraceEvent {
            /// The telemetry category this event belongs to (the unit
            /// the `SDVM_TELEMETRY` env filter selects on).
            pub fn category(&self) -> Category {
                match self {
                    $( TraceEvent::$V { .. } => Category::$cat, )*
                }
            }

            /// The counter of `m` this event bumps, if any.
            pub(crate) fn counter<'m>(&self, m: &'m Metrics) -> Option<&'m Counter> {
                match self {
                    $( TraceEvent::$V { .. } => events!(@counter m $($counter)?), )*
                }
            }

            /// The name of this event's instant on the Perfetto cluster
            /// track, if it is drawn there.
            #[allow(unused_variables)]
            pub(crate) fn label(&self) -> Option<String> {
                match self {
                    $( TraceEvent::$V { $($f),* } => events!(@label $($label)?), )*
                }
            }
        }
    };
}

events! {
    categories {
        /// Microframe career transitions (Fig. 5).
        Career = 1 << 0, "career";
        /// Help-request traffic (work stealing / migration).
        Help = 1 << 1, "help";
        /// Code requests and on-the-fly compiles.
        Code = 1 << 2, "code";
        /// Message hops through the manager stack (Fig. 6).
        Hops = 1 << 3, "hops";
        /// Join / sign-off / crash declarations.
        Membership = 1 << 4, "membership";
        /// Failure-detector internals (suspicions, refutations, fencing).
        Detector = 1 << 5, "detector";
        /// Crash recovery.
        Recovery = 1 << 6, "recovery";
        /// Execution-engine robustness: retries, quarantines, worker
        /// respawns, stuck-program verdicts, silent drops.
        Engine = 1 << 7, "engine";
        /// Attraction-memory coherence (replica invalidations).
        Memory = 1 << 8, "memory";
    }
    reasons {
        /// `apply_or_forward` ran out of attempts: the target stayed
        /// unknown at its directory (a consumed frame's duplicate result)
        /// or its owner stayed unreachable.
        ForwardGaveUp,
        /// The directory names this site as owner but the frame is no
        /// longer waiting (already executable or consumed): the result is
        /// stale.
        StaleOwnerSelf,
        /// The target frame was consumed cluster-wide: a duplicate result.
        Tombstone,
        /// A voted or hedged frame's winning send could not be applied.
        WinnerSendFailed,
        /// An unsolicited id-block grant this site's id strategy cannot use.
        IdGrantIgnored,
        /// An envelope failed to open: forged, corrupt, or sealed for a
        /// security setting this site does not run.
        Unauthenticated,
        /// A batch record's interior did not parse; the rest of the batch
        /// is discarded with it.
        MalformedBatch,
        /// An opened record did not decode to a message.
        Undecodable,
        /// A reply arrived for a request nobody waits for any more (its
        /// waiter timed out) and carries no state that must be adopted.
        UnclaimedReply,
        /// A message addressed a manager that handles no messages.
        NoSuchManager,
    }
    events {
        /// A microframe was allocated (career state: *incomplete*).
        FrameCreated {
            /// The frame.
            frame: GlobalAddress,
            /// The microthread it will fire.
            thread: MicrothreadId,
            /// Number of parameters it waits for.
            slots: usize,
        } => Career;
        /// A parameter was applied to a waiting frame.
        ParamApplied {
            /// The frame.
            frame: GlobalAddress,
            /// Which slot was filled.
            slot: u32,
            /// Parameters still missing afterwards.
            missing: usize,
        } => Career;
        /// The frame received its last parameter (career: *executable*).
        FrameExecutable {
            /// The frame.
            frame: GlobalAddress,
        } => Career;
        /// The corresponding microthread's code was obtained (career: *ready*).
        FrameReady {
            /// The frame.
            frame: GlobalAddress,
        } => Career;
        /// The processing manager executed the frame (career: *work*; the
        /// frame is consumed).
        FrameExecuted {
            /// The frame.
            frame: GlobalAddress,
            /// The microthread that ran.
            thread: MicrothreadId,
        } => Career, count frames_executed;
        /// The scheduling manager of an idle site sent a help request.
        HelpRequested {
            /// Asked site.
            target: SiteId,
        } => Help, count help_requests, label format!("ask help {}", target.0);
        /// A help request was answered with a frame (work migrates away
        /// from the emitting site).
        HelpGranted {
            /// Site that asked.
            requester: SiteId,
            /// The migrated frame.
            frame: GlobalAddress,
            /// Locality score of the pick (argument objects near the
            /// requester / far from the granter score higher).
            score: i32,
        } => Help, count help_granted;
        /// A help request was answered with can't-help.
        HelpDenied {
            /// Site that asked.
            requester: SiteId,
        } => Help, count help_denied, label format!("deny help {}", requester.0);
        /// Code was requested from another site.
        CodeRequested {
            /// The microthread.
            thread: MicrothreadId,
            /// Platform the binary is wanted for.
            platform: PlatformId,
        } => Code, label format!("request code {thread:?}");
        /// Source code was compiled on the fly.
        CodeCompiled {
            /// The microthread.
            thread: MicrothreadId,
            /// Target platform.
            platform: PlatformId,
        } => Code, label format!("compile {thread:?}");
        /// One hop of an SDMessage through the manager stack (Fig. 6).
        MessageHop {
            /// Manager the message passed through.
            manager: ManagerId,
            /// Payload kind name.
            payload: &'static str,
            /// `true` while sending, `false` while receiving.
            outgoing: bool,
            /// Trace id the message's wire [`TraceContext`] carried
            /// (0 = untraced). Lets exporters stitch one logical
            /// operation's hops across sites.
            ///
            /// [`TraceContext`]: sdvm_wire::TraceContext
            trace: u32,
        } => Hops;
        /// A site joined the cluster.
        SiteJoined {
            /// The new site.
            joined: SiteId,
        } => Membership, label format!("join site {}", joined.0);
        /// The failure detector moved a silent site to *suspected* (first
        /// phase of the two-phase detector; indirect probes are in flight).
        SiteSuspected {
            /// The suspect.
            suspect: SiteId,
        } => Detector, count suspicions_raised, label format!("suspect site {}", suspect.0);
        /// A suspicion was withdrawn: the suspect answered a probe, gossiped
        /// fresh liveness, or refuted with a bumped incarnation.
        SuspicionRefuted {
            /// The no-longer-suspect.
            suspect: SiteId,
            /// Incarnation the site is now known to live at.
            incarnation: u64,
        } => Detector, count suspicions_refuted, label format!("refute site {}", suspect.0);
        /// A message from a declared-dead incarnation of a site was fenced
        /// (dropped) instead of re-admitting the zombie into membership.
        StaleIncarnation {
            /// The zombie sender.
            from: SiteId,
            /// The stale incarnation the message carried.
            incarnation: u64,
        } => Detector, count zombies_fenced, label format!("fence zombie {}", from.0);
        /// A site left (orderly) or was declared crashed.
        SiteGone {
            /// The departed site.
            gone: SiteId,
            /// True if it crashed, false if it signed off.
            crashed: bool,
        } => Membership,
            label format!("{} {}", if *crashed { "declare crash" } else { "sign-off" }, gone.0);
        /// Crash recovery revived backed-up state.
        Recovered {
            /// The dead site whose work was revived.
            dead: SiteId,
            /// Frames revived.
            frames: usize,
            /// Memory objects revived.
            objects: usize,
        } => Recovery, label format!("recover {} ({frames} frames)", dead.0);
        /// A frame's execution failed on an infrastructure error and it was
        /// re-enqueued with backoff (budgeted — see
        /// `SiteConfig::max_frame_retries`).
        FrameRetried {
            /// The frame.
            frame: GlobalAddress,
            /// The microthread it fires.
            thread: MicrothreadId,
            /// Which retry this is (1-based).
            attempt: u32,
        } => Engine, count frames_retried,
            label format!("retry frame {}.{} (attempt {attempt})", frame.home.0, frame.local);
        /// A poisoned frame (panicked handler, application error, or
        /// exhausted retry budget) was moved to the site's dead-letter store.
        FrameQuarantined {
            /// The frame.
            frame: GlobalAddress,
            /// The microthread it would have fired.
            thread: MicrothreadId,
            /// The cause, stringified. Boxed behind an `Arc` so this cold
            /// variant does not grow `TraceEvent` (and with it every ring
            /// slot) past one cache line.
            cause: Arc<String>,
        } => Engine, count frames_quarantined,
            label format!("quarantine frame {}.{}: {cause}", frame.home.0, frame.local);
        /// The supervisor replaced a worker-slot thread that died despite
        /// panic isolation.
        WorkerRespawned {
            /// The processing slot that was respawned.
            slot: u32,
        } => Engine, count workers_respawned, label format!("respawn worker slot {slot}");
        /// The stuck-program watchdog of the program's frontend site
        /// declared a program stuck: undelivered result, no runnable
        /// frames, no in-flight requests.
        ProgramStuck {
            /// The stuck program.
            program: ProgramId,
        } => Engine, count programs_stuck, label format!("program {program} stuck");
        /// The flight recorder wrote a postmortem black box.
        PostmortemWritten {
            /// The trigger that claimed the dump slot (stable name, e.g.
            /// `declare_crashed`).
            trigger: &'static str,
            /// Path of the written file, `Arc`'d so this cold variant does
            /// not grow every ring slot.
            path: Arc<String>,
        } => Engine;
        /// A cached read replica was dropped on an owner's invalidation
        /// (emitted by the site that held it).
        ReplicaInvalidated {
            /// The invalidated object.
            object: GlobalAddress,
            /// The owner's new write version that made the copy stale.
            version: u64,
        } => Memory, count mem_invalidations,
            label format!("invalidate replica {}.{} (v{version})", object.home.0, object.local);
        /// The replication manager of a frame's home (its coordinator)
        /// dispatched one replica of it (vote-mode ballot or hedge
        /// duplicate).
        ReplicaDispatched {
            /// The replicated frame.
            frame: GlobalAddress,
            /// Executing site the replica went to.
            target: SiteId,
            /// Dispatch round.
            generation: u32,
            /// Replica index within the round.
            replica: u8,
            /// True for vote-mode ballots, false for hedge duplicates.
            vote: bool,
        } => Engine, count replicas_dispatched;
        /// Successful vote-mode replicas of a frame disagreed on the result
        /// — silent data corruption surfaced at the coordinator.
        ResultDivergence {
            /// The frame whose replicas diverged.
            frame: GlobalAddress,
            /// The microthread that ran.
            thread: MicrothreadId,
        } => Engine, count result_divergence;
        /// A frame blew its hedge deadline and its coordinator dispatched
        /// a duplicate to another site.
        HedgeFired {
            /// The straggling frame.
            frame: GlobalAddress,
            /// Site the hedge duplicate went to.
            target: SiteId,
        } => Engine, count hedges_fired;
        /// A hedge duplicate finished first: the hedge won the race against
        /// the straggler.
        HedgeWon {
            /// The hedged frame.
            frame: GlobalAddress,
            /// Site whose execution completed the frame.
            winner: SiteId,
        } => Engine, count hedge_wins;
        /// The site discarded a message or result (see [`DropReason`]).
        Dropped {
            /// Why.
            reason: DropReason,
            /// What was dropped, for a human reading the trace.
            detail: String,
        } => Engine;
    }
}

impl Category {
    /// Parse an `SDVM_TELEMETRY`-style spec (comma-separated category
    /// names, `all`, or `off`) into a category bitmask. Unknown names are
    /// ignored; an empty spec means *all*.
    pub fn parse_spec(spec: &str) -> u32 {
        let spec = spec.trim();
        if spec.is_empty() {
            return Category::ALL;
        }
        let mut mask = 0u32;
        let mut any = false;
        for part in spec.split(',') {
            if let Some(bits) = Category::from_name(part.trim()) {
                mask |= bits;
                any = true;
            }
        }
        if any {
            mask
        } else {
            Category::ALL
        }
    }
}

/// One recorded event with its bus metadata: timestamps and sequencing.
#[derive(Clone, Debug, PartialEq)]
pub struct BusEvent {
    /// Bus-global sequence number (total order of arrival at this log).
    pub seq: u64,
    /// Per-site sequence number (order within the emitting site).
    pub site_seq: u64,
    /// Monotonic microseconds since the bus was created. Wall-clock time
    /// is `TraceLog::epoch_wall_micros() + at_micros`.
    pub at_micros: u64,
    /// The site that emitted the event.
    pub site: SiteId,
    /// The event itself.
    pub event: TraceEvent,
}

/// The bounded ring holding recent events, behind one short lock.
struct Ring {
    buf: VecDeque<BusEvent>,
    cap: usize,
    next_seq: u64,
    // Linear scan beats hashing: a cluster has a handful of sites and
    // this sits on the per-emit hot path under the lock.
    site_seqs: Vec<(SiteId, u64)>,
}

struct BusInner {
    ring: Mutex<Ring>,
    /// Monotonic zero point for every `at_micros`.
    epoch: Instant,
    /// Wall-clock microseconds since the UNIX epoch at `epoch`, captured
    /// once so the emit path never makes a wall-clock syscall.
    epoch_wall_micros: u64,
    /// Category bitmask; events outside it are not recorded.
    filter_mask: u32,
    /// Echo each event to stderr (examples / debugging).
    echo: bool,
    /// Events overwritten by ring wraparound.
    overwritten: AtomicU64,
    /// Events a full subscriber tap failed to receive.
    tap_dropped: AtomicU64,
    /// Cheap emptiness check so emit skips the subscriber lock entirely
    /// in the common no-subscriber case.
    sub_count: AtomicUsize,
    subscribers: RwLock<Vec<Sender<BusEvent>>>,
}

/// A shared, thread-safe trace collector: the telemetry event bus.
#[derive(Clone)]
pub struct TraceLog {
    inner: Arc<BusInner>,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::with_options(DEFAULT_RING_CAPACITY, Category::ALL, false)
    }
}

impl TraceLog {
    /// A collecting log with the default capacity, recording everything.
    pub fn new() -> Self {
        Self::default()
    }

    /// A log that also prints each event to stderr (for the examples).
    /// The line is formatted *before* the ring lock is taken, so echoing
    /// never serializes sites through lock-held I/O.
    pub fn echoing() -> Self {
        Self::with_options(DEFAULT_RING_CAPACITY, Category::ALL, true)
    }

    /// A log with a specific ring capacity (`cap >= 1`).
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_options(cap, Category::ALL, false)
    }

    /// A log recording only the categories in `mask` (see
    /// [`Category::parse_spec`]).
    pub fn with_filter(mask: u32) -> Self {
        Self::with_options(DEFAULT_RING_CAPACITY, mask, false)
    }

    /// A log configured from the `SDVM_TELEMETRY` environment variable
    /// (comma-separated category names, `all`, or `off`; unset = all).
    pub fn from_env() -> Self {
        let mask = match std::env::var("SDVM_TELEMETRY") {
            Ok(spec) => Category::parse_spec(&spec),
            Err(_) => Category::ALL,
        };
        Self::with_filter(mask)
    }

    fn with_options(cap: usize, filter_mask: u32, echo: bool) -> Self {
        let cap = cap.max(1);
        let epoch_wall_micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        TraceLog {
            inner: Arc::new(BusInner {
                ring: Mutex::new(Ring {
                    buf: VecDeque::with_capacity(cap),
                    cap,
                    next_seq: 0,
                    site_seqs: Vec::new(),
                }),
                epoch: Instant::now(),
                epoch_wall_micros,
                filter_mask,
                echo,
                overwritten: AtomicU64::new(0),
                tap_dropped: AtomicU64::new(0),
                sub_count: AtomicUsize::new(0),
                subscribers: RwLock::new(Vec::new()),
            }),
        }
    }

    /// Record one event `site` emitted, reading the clock once.
    pub fn emit(&self, site: SiteId, ev: TraceEvent) {
        if ev.category() as u32 & self.inner.filter_mask == 0 {
            return;
        }
        self.record(site, ev, Instant::now());
    }

    /// Record two events `site` emitted under a single ring-lock
    /// acquisition, using clocks the caller already read. The send path
    /// emits exactly two hops per outbound message (message manager,
    /// then network manager); pairing them halves its lock traffic.
    pub fn emit_pair_at(
        &self,
        site: SiteId,
        ev0: TraceEvent,
        t0: Instant,
        ev1: TraceEvent,
        t1: Instant,
    ) {
        let mask = self.inner.filter_mask;
        let keep0 = ev0.category() as u32 & mask != 0;
        let keep1 = ev1.category() as u32 & mask != 0;
        match (keep0, keep1) {
            (true, true) => {
                let at0 = self.micros_since_epoch(t0);
                let at1 = self.micros_since_epoch(t1);
                self.record_pair(site, ev0, at0, ev1, at1);
            }
            (true, false) => self.record(site, ev0, t0),
            (false, true) => self.record(site, ev1, t1),
            (false, false) => {}
        }
    }

    /// Whether this log records events of `cat` at all. Hot paths check
    /// before paying for work that only feeds the bus (clock reads,
    /// event construction) — a filtered-out category costs one mask
    /// test.
    pub fn wants(&self, cat: Category) -> bool {
        cat as u32 & self.inner.filter_mask != 0
    }

    fn micros_since_epoch(&self, now: Instant) -> u64 {
        // u64 arithmetic: `Duration::as_micros` divides in u128, which
        // shows up on the per-event hot path.
        let d = now.saturating_duration_since(self.inner.epoch);
        d.as_secs() * 1_000_000 + d.subsec_micros() as u64
    }

    fn record(&self, site: SiteId, ev: TraceEvent, now: Instant) {
        let inner = &*self.inner;
        let at_micros = self.micros_since_epoch(now);
        // Format the echo line *outside* the ring lock, so echo mode
        // never serializes sites through lock-held I/O.
        let echo_line = inner
            .echo
            .then(|| format!("[trace +{at_micros}us site {}] {ev:?}", site.0));
        // Only clone the event out of the ring when a subscriber wants a
        // copy — the common no-subscriber emit stays clone-free.
        let want_copy = inner.sub_count.load(Ordering::Acquire) > 0;
        let mut overwrote = 0u64;
        let for_subs = {
            let mut ring = inner.ring.lock();
            push_locked(&mut ring, site, ev, at_micros, want_copy, &mut overwrote)
        };
        if overwrote > 0 {
            inner.overwritten.fetch_add(overwrote, Ordering::Relaxed);
        }
        if let Some(line) = echo_line {
            eprintln!("{line}");
        }
        if let Some(bus_ev) = for_subs {
            self.fan_out(&bus_ev);
        }
    }

    fn record_pair(&self, site: SiteId, ev0: TraceEvent, at0: u64, ev1: TraceEvent, at1: u64) {
        let inner = &*self.inner;
        let echo_lines = inner.echo.then(|| {
            (
                format!("[trace +{at0}us site {}] {ev0:?}", site.0),
                format!("[trace +{at1}us site {}] {ev1:?}", site.0),
            )
        });
        let want_copy = inner.sub_count.load(Ordering::Acquire) > 0;
        let mut overwrote = 0u64;
        let (s0, s1) = {
            let mut ring = inner.ring.lock();
            (
                push_locked(&mut ring, site, ev0, at0, want_copy, &mut overwrote),
                push_locked(&mut ring, site, ev1, at1, want_copy, &mut overwrote),
            )
        };
        if overwrote > 0 {
            inner.overwritten.fetch_add(overwrote, Ordering::Relaxed);
        }
        if let Some((l0, l1)) = echo_lines {
            eprintln!("{l0}\n{l1}");
        }
        for bus_ev in [s0, s1].into_iter().flatten() {
            self.fan_out(&bus_ev);
        }
    }

    fn fan_out(&self, bus_ev: &BusEvent) {
        let inner = &*self.inner;
        let subs = inner.subscribers.read();
        for tx in subs.iter() {
            match tx.try_send(bus_ev.clone()) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    inner.tap_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Attach a non-blocking subscriber tap with the default channel
    /// depth. Emitters never block on a slow subscriber: once the tap's
    /// channel is full, further events are dropped for that tap (counted
    /// in [`TraceLog::tap_dropped`]) while the ring keeps recording.
    pub fn subscribe(&self) -> Receiver<BusEvent> {
        self.subscribe_with_capacity(DEFAULT_TAP_CAPACITY)
    }

    /// Attach a subscriber tap with an explicit channel depth.
    pub fn subscribe_with_capacity(&self, cap: usize) -> Receiver<BusEvent> {
        let (tx, rx) = bounded(cap.max(1));
        let mut subs = self.inner.subscribers.write();
        subs.push(tx);
        self.inner.sub_count.store(subs.len(), Ordering::Release);
        rx
    }

    /// Events overwritten by ring wraparound so far.
    pub fn dropped(&self) -> u64 {
        self.inner.overwritten.load(Ordering::Relaxed)
    }

    /// Events dropped because a subscriber tap's channel was full.
    pub fn tap_dropped(&self) -> u64 {
        self.inner.tap_dropped.load(Ordering::Relaxed)
    }

    /// Total events recorded since creation (including overwritten ones).
    pub fn total_emitted(&self) -> u64 {
        self.inner.ring.lock().next_seq
    }

    /// Wall-clock microseconds (since the UNIX epoch) at bus creation;
    /// add a [`BusEvent::at_micros`] to place an event on the wall clock.
    pub fn epoch_wall_micros(&self) -> u64 {
        self.inner.epoch_wall_micros
    }

    /// Snapshot of the buffered events with their bus metadata
    /// (sequence numbers and timestamps), oldest first.
    pub fn timestamped(&self) -> Vec<BusEvent> {
        self.inner.ring.lock().buf.iter().cloned().collect()
    }

    /// Snapshot of all buffered events so far, without their bus
    /// metadata ([`TraceLog::timestamped`] keeps it, the site included).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .ring
            .lock()
            .buf
            .iter()
            .map(|b| b.event.clone())
            .collect()
    }

    /// Buffered events matching a predicate, without their bus metadata.
    pub fn filter(&self, f: impl Fn(&TraceEvent) -> bool) -> Vec<TraceEvent> {
        self.inner
            .ring
            .lock()
            .buf
            .iter()
            .filter(|b| f(&b.event))
            .map(|b| b.event.clone())
            .collect()
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.inner.ring.lock().buf.len()
    }

    /// True if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.inner.ring.lock().buf.is_empty()
    }

    /// The career (ordered trace states) of one frame, as Figure 5 names
    /// them: `created → applied* → executable → ready → executed`, with
    /// possible migration in between.
    pub fn career_of(&self, frame: GlobalAddress) -> Vec<String> {
        self.inner
            .ring
            .lock()
            .buf
            .iter()
            .filter_map(|b| match &b.event {
                TraceEvent::FrameCreated { frame: f, .. } if *f == frame => {
                    Some("incomplete".to_string())
                }
                TraceEvent::ParamApplied { frame: f, .. } if *f == frame => {
                    Some("param".to_string())
                }
                TraceEvent::FrameExecutable { frame: f, .. } if *f == frame => {
                    Some("executable".to_string())
                }
                TraceEvent::FrameReady { frame: f, .. } if *f == frame => Some("ready".to_string()),
                TraceEvent::FrameExecuted { frame: f, .. } if *f == frame => {
                    Some("executed".to_string())
                }
                TraceEvent::HelpGranted { frame: f, .. } if *f == frame => {
                    Some("migrated".to_string())
                }
                _ => None,
            })
            .collect()
    }
}

/// Append one event to the ring (the lock is already held), assigning
/// its sequence numbers and handling wraparound. Returns a copy for
/// subscriber fan-out when `want_copy` is set. Overwritten events are
/// tallied into `overwrote` so the caller can settle the shared counter
/// once, outside the lock.
fn push_locked(
    ring: &mut Ring,
    site: SiteId,
    ev: TraceEvent,
    at_micros: u64,
    want_copy: bool,
    overwrote: &mut u64,
) -> Option<BusEvent> {
    let seq = ring.next_seq;
    ring.next_seq += 1;
    let site_seq = match ring.site_seqs.iter_mut().find(|(s, _)| *s == site) {
        Some((_, n)) => {
            let v = *n;
            *n += 1;
            v
        }
        None => {
            ring.site_seqs.push((site, 1));
            0
        }
    };
    let bus_ev = BusEvent {
        seq,
        site_seq,
        at_micros,
        site,
        event: ev,
    };
    if ring.buf.len() == ring.cap {
        ring.buf.pop_front();
        *overwrote += 1;
    }
    let for_subs = want_copy.then(|| bus_ev.clone());
    ring.buf.push_back(bus_ev);
    for_subs
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use sdvm_types::ProgramId;

    #[test]
    fn collects_and_filters() {
        let log = TraceLog::new();
        assert!(log.is_empty());
        log.emit(SiteId(1), TraceEvent::SiteJoined { joined: SiteId(2) });
        log.emit(
            SiteId(1),
            TraceEvent::SiteGone {
                gone: SiteId(2),
                crashed: true,
            },
        );
        assert_eq!(log.len(), 2);
        let crashes = log.filter(|e| matches!(e, TraceEvent::SiteGone { crashed: true, .. }));
        assert_eq!(crashes.len(), 1);
    }

    #[test]
    fn career_extraction() {
        let log = TraceLog::new();
        let frame = GlobalAddress::new(SiteId(1), 1);
        let other = GlobalAddress::new(SiteId(1), 2);
        let thread = MicrothreadId::new(ProgramId(1), 0);
        log.emit(
            SiteId(1),
            TraceEvent::FrameCreated {
                frame,
                thread,
                slots: 1,
            },
        );
        log.emit(
            SiteId(1),
            TraceEvent::FrameCreated {
                frame: other,
                thread,
                slots: 1,
            },
        );
        log.emit(
            SiteId(1),
            TraceEvent::ParamApplied {
                frame,
                slot: 0,
                missing: 0,
            },
        );
        log.emit(SiteId(1), TraceEvent::FrameExecutable { frame });
        log.emit(SiteId(1), TraceEvent::FrameReady { frame });
        log.emit(SiteId(1), TraceEvent::FrameExecuted { frame, thread });
        assert_eq!(
            log.career_of(frame),
            vec!["incomplete", "param", "executable", "ready", "executed"]
        );
        assert_eq!(log.career_of(other), vec!["incomplete"]);
    }

    #[test]
    fn sequences_and_timestamps_are_monotonic() {
        let log = TraceLog::new();
        for i in 0..5 {
            log.emit(
                SiteId(1 + (i % 2)),
                TraceEvent::SiteJoined { joined: SiteId(9) },
            );
        }
        let evs = log.timestamped();
        assert_eq!(evs.len(), 5);
        for (i, b) in evs.iter().enumerate() {
            assert_eq!(b.seq, i as u64);
        }
        for w in evs.windows(2) {
            assert!(w[1].at_micros >= w[0].at_micros);
        }
        // Per-site sequences count independently.
        let site1: Vec<u64> = evs
            .iter()
            .filter(|b| b.site == SiteId(1))
            .map(|b| b.site_seq)
            .collect();
        assert_eq!(site1, vec![0, 1, 2]);
    }

    #[test]
    fn drop_reason_all_is_the_enum_in_order() {
        // Exhaustive: a reason added to the enum fails to compile here
        // until it is given its position.
        let position = |r: DropReason| match r {
            DropReason::ForwardGaveUp => 0,
            DropReason::StaleOwnerSelf => 1,
            DropReason::Tombstone => 2,
            DropReason::WinnerSendFailed => 3,
            DropReason::IdGrantIgnored => 4,
            DropReason::Unauthenticated => 5,
            DropReason::MalformedBatch => 6,
            DropReason::Undecodable => 7,
            DropReason::UnclaimedReply => 8,
            DropReason::NoSuchManager => 9,
        };
        assert_eq!(DropReason::ALL.len(), 10, "ALL covers every variant");
        for (i, r) in DropReason::ALL.into_iter().enumerate() {
            assert_eq!(r as usize, i);
            assert_eq!(position(r), i);
        }
    }

    #[test]
    fn category_spec_parses() {
        assert_eq!(Category::parse_spec("all"), Category::ALL);
        assert_eq!(Category::parse_spec("off"), 0);
        assert_eq!(
            Category::parse_spec("career,hops"),
            Category::Career as u32 | Category::Hops as u32
        );
        // Unknown-only specs fall back to everything.
        assert_eq!(Category::parse_spec("bogus"), Category::ALL);
    }

    #[test]
    fn filtered_categories_are_not_recorded() {
        let log = TraceLog::with_filter(Category::Career as u32);
        log.emit(SiteId(1), TraceEvent::SiteJoined { joined: SiteId(2) });
        assert!(log.is_empty());
        log.emit(
            SiteId(1),
            TraceEvent::FrameExecutable {
                frame: GlobalAddress::new(SiteId(1), 1),
            },
        );
        assert_eq!(log.len(), 1);
    }
}
