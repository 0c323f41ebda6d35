//! Every protocol payload exchanged between SDVM managers, plus the wire
//! form of microframes and memory objects.
//!
//! Grouped as in the paper's manager structure (§4): scheduling (help
//! requests), code distribution, attraction memory, program/checkpoint
//! management, cluster membership, I/O, and site lifecycle.

use crate::codec::{Decode, Encode, WireReader, WireWriter};
use bytes::Bytes;
use sdvm_types::{
    Coord, FileHandle, GlobalAddress, LoadReport, MicrothreadId, PlatformId, ProgramId,
    ReplicationPolicy, SchedulingHint, SdvmError, SdvmResult, SiteDescriptor, SiteId, Value,
};

/// Serialized microframe: the unit shipped by help replies, relocation at
/// sign-off, and checkpoints (paper Fig. 2: id, input parameters, owning
/// microthread, target addresses).
#[derive(Clone, PartialEq, Debug)]
pub struct WireFrame {
    /// Global id of the frame (it is a special memory object).
    pub id: GlobalAddress,
    /// The microthread this frame will fire.
    pub thread: MicrothreadId,
    /// Parameter slots; `None` = still missing.
    pub slots: Vec<Option<Value>>,
    /// Target addresses the microthread will send its results to (may also
    /// be passed inside parameter values; this field carries the
    /// statically-known part).
    pub targets: Vec<GlobalAddress>,
    /// Scheduling hints (priority from the CDAG or the programmer).
    pub hint: SchedulingHint,
}

impl WireFrame {
    /// The program this frame belongs to.
    pub fn program(&self) -> ProgramId {
        self.thread.program
    }

    /// Number of parameters still missing before the frame is executable.
    pub fn missing(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }

    /// True when every parameter has arrived (dataflow firing rule).
    pub fn is_executable(&self) -> bool {
        self.missing() == 0
    }
}

impl Encode for WireFrame {
    fn encode(&self, w: &mut WireWriter) {
        self.id.encode(w);
        self.thread.encode(w);
        self.slots.encode(w);
        self.targets.encode(w);
        self.hint.encode(w);
    }
}

impl Decode for WireFrame {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(WireFrame {
            id: GlobalAddress::decode(r)?,
            thread: MicrothreadId::decode(r)?,
            slots: Vec::decode(r)?,
            targets: Vec::decode(r)?,
            hint: SchedulingHint::decode(r)?,
        })
    }
}

/// Serialized global memory object (for migration, relocation, checkpoints).
#[derive(Clone, PartialEq, Debug)]
pub struct WireMemObject {
    /// Global address (homesite encoded within).
    pub addr: GlobalAddress,
    /// Owning program (objects die with their program).
    pub program: ProgramId,
    /// Contents.
    pub data: Value,
    /// Monotonic write version (wire v4). Bumped by the owner on every
    /// write; read replicas remember the version they were cut from so
    /// stale copies are detectable.
    pub version: u64,
}

impl Encode for WireMemObject {
    fn encode(&self, w: &mut WireWriter) {
        self.addr.encode(w);
        self.program.encode(w);
        self.data.encode(w);
        w.put_varint(self.version);
    }
}

impl Decode for WireMemObject {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(WireMemObject {
            addr: GlobalAddress::decode(r)?,
            program: ProgramId::decode(r)?,
            data: Value::decode(r)?,
            version: r.get_varint()?,
        })
    }
}

/// One buffered result send produced by a vote-mode replica execution
/// (wire v6): the escrow coordinator replays the winning replica's sends
/// after the vote decides.
#[derive(Clone, PartialEq, Debug)]
pub struct WireSend {
    /// The consumer frame's parameter slot address.
    pub target: GlobalAddress,
    /// Slot index within the target frame.
    pub slot: u32,
    /// The result value.
    pub value: Value,
}

impl Encode for WireSend {
    fn encode(&self, w: &mut WireWriter) {
        self.target.encode(w);
        self.slot.encode(w);
        self.value.encode(w);
    }
}

impl Decode for WireSend {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(WireSend {
            target: GlobalAddress::decode(r)?,
            slot: u32::decode(r)?,
            value: Value::decode(r)?,
        })
    }
}

/// Compact per-site telemetry digest piggybacked on heartbeat traffic
/// (wire v7): the counters an operator steers by, plus the two
/// latency histograms needed for cluster-merged quantiles. Bucket
/// vectors are raw per-bucket counts from the site's log2 histograms
/// (index = `bucket_of(µs)`), so any receiver can merge digests by
/// element-wise addition and re-derive p50/p99/p999 without resolution
/// loss beyond the bucket width.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct WireMetricsSummary {
    /// Messages sent by the reporting site.
    pub messages_sent: u64,
    /// Messages received by the reporting site.
    pub messages_received: u64,
    /// Microframes executed.
    pub frames_executed: u64,
    /// Microframes retried after a failure.
    pub frames_retried: u64,
    /// Microframes quarantined (dead-lettered).
    pub frames_quarantined: u64,
    /// Crash declarations this site originated or observed.
    pub crashes_declared: u64,
    /// Help requests sent (work-stealing pressure signal).
    pub help_requests: u64,
    /// Help requests this site granted.
    pub help_granted: u64,
    /// Sum of all frame career latencies, in microseconds.
    pub career_sum_us: u64,
    /// Per-bucket counts of the frame career log2 histogram.
    pub career_buckets: Vec<u64>,
    /// Sum of all help round-trip latencies, in microseconds.
    pub help_rtt_sum_us: u64,
    /// Per-bucket counts of the help RTT log2 histogram.
    pub help_rtt_buckets: Vec<u64>,
}

impl Encode for WireMetricsSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.messages_sent);
        w.put_varint(self.messages_received);
        w.put_varint(self.frames_executed);
        w.put_varint(self.frames_retried);
        w.put_varint(self.frames_quarantined);
        w.put_varint(self.crashes_declared);
        w.put_varint(self.help_requests);
        w.put_varint(self.help_granted);
        w.put_varint(self.career_sum_us);
        self.career_buckets.encode(w);
        w.put_varint(self.help_rtt_sum_us);
        self.help_rtt_buckets.encode(w);
    }
}

impl Decode for WireMetricsSummary {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(WireMetricsSummary {
            messages_sent: r.get_varint()?,
            messages_received: r.get_varint()?,
            frames_executed: r.get_varint()?,
            frames_retried: r.get_varint()?,
            frames_quarantined: r.get_varint()?,
            crashes_declared: r.get_varint()?,
            help_requests: r.get_varint()?,
            help_granted: r.get_varint()?,
            career_sum_us: r.get_varint()?,
            career_buckets: Vec::decode(r)?,
            help_rtt_sum_us: r.get_varint()?,
            help_rtt_buckets: Vec::decode(r)?,
        })
    }
}

macro_rules! payloads {
    (
        $(
            $(#[$meta:meta])*
            $tag:literal $variant:ident { $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)? }
        ),* $(,)?
    ) => {
        /// A typed protocol payload carried by an [`SdMessage`](crate::SdMessage).
        ///
        /// Field meanings are documented on each variant; the field names
        /// themselves are self-describing.
        #[derive(Clone, PartialEq, Debug)]
        #[allow(missing_docs)]
        pub enum Payload {
            $(
                $(#[$meta])*
                $variant { $( $(#[$fmeta])* $field: $ty, )* },
            )*
        }

        impl Payload {
            /// Stable wire tag of this payload kind.
            pub fn tag(&self) -> u16 {
                match self {
                    $( Payload::$variant { .. } => $tag, )*
                }
            }

            /// Human-readable payload kind (for traces and logs).
            pub fn name(&self) -> &'static str {
                match self {
                    $( Payload::$variant { .. } => stringify!($variant), )*
                }
            }
        }

        impl Encode for Payload {
            fn encode(&self, w: &mut WireWriter) {
                w.put_varint(self.tag() as u64);
                match self {
                    $(
                        #[allow(unused_variables)]
                        Payload::$variant { $( $field, )* } => {
                            $( $field.encode(w); )*
                        }
                    )*
                }
            }
        }

        impl Decode for Payload {
            fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
                let tag = r.get_varint()?;
                match tag {
                    $(
                        $tag => Ok(Payload::$variant {
                            $( $field: <$ty>::decode(r)?, )*
                        }),
                    )*
                    t => Err(SdvmError::Decode(format!("unknown payload tag {t}"))),
                }
            }
        }
    };
}

payloads! {
    // ---- cluster membership (§3.4, §4 cluster manager) ----

    /// A new site asks to join; sent to the cluster manager of a site it
    /// already knows. Carries the joiner's self-description (its id is
    /// still `SiteId::NONE`).
    1 SignOn { descriptor: SiteDescriptor },
    /// Reply to `SignOn`: the assigned logical id plus knowledge about the
    /// current composition of the cluster.
    2 SignOnAck { assigned: SiteId, cluster: Vec<SiteDescriptor> },
    /// Join refused (e.g. id space exhausted under the modulo strategy or
    /// contact site cannot allocate).
    3 SignOnRefused { reason: String },
    /// Epidemic propagation of site knowledge with normal traffic.
    4 SiteAnnounce { descriptor: SiteDescriptor },
    /// Orderly sign-off announcement (after relocation finished).
    /// `successor` takes over the leaver's homesite directory role.
    5 SignOff { site: SiteId, successor: SiteId },
    /// Periodic liveness + load gossip. `coord` (wire v9) piggybacks
    /// the sender's Vivaldi network coordinate so receivers can rank
    /// peers by predicted proximity without extra probe traffic.
    6 Heartbeat { load: LoadReport, coord: Option<Coord> },
    /// Request the full cluster list (new sites, recovery).
    7 ClusterListRequest {},
    /// The full cluster list.
    8 ClusterList { sites: Vec<SiteDescriptor> },
    /// Id-server protocol (contingents strategy): ask for a fresh block.
    9 IdBlockRequest {},
    /// Id-server protocol: a block of free logical ids [start, start+len).
    10 IdBlockGrant { start: u32, len: u32 },
    /// A site was detected crashed; propagate so everyone drops it.
    /// `successor` takes over its homesite directory role during recovery.
    /// `incarnation` is the highest incarnation of `site` known to the
    /// declarer: every incarnation at or below it is fenced as a zombie.
    11 SiteCrashed { site: SiteId, successor: SiteId, incarnation: u64 },

    // ---- failure detection (SWIM-style suspicion; §2.2 robustness) ----

    /// Gossip: the sender suspects `site` (incarnation `incarnation`) of
    /// having crashed — it has been silent past the suspect timeout and
    /// direct probes went unanswered so far. Receivers that heard from
    /// the site recently may answer with `ProbeAck`; the suspect itself
    /// refutes with a bumped incarnation.
    12 SuspectSite { site: SiteId, incarnation: u64 },
    /// A suspected site protests it is alive: re-announces its descriptor
    /// with an incarnation bumped past the suspicion it refutes.
    13 RefuteSuspicion { descriptor: SiteDescriptor },
    /// Indirect probe: ask the receiver to ping `target` on the sender's
    /// behalf (the sender cannot reach it, or wants a second opinion).
    /// `coord` (wire v9) piggybacks the requester's Vivaldi coordinate.
    14 ProbeRequest { target: SiteId, coord: Option<Coord> },
    /// Indirect probe succeeded (or the sender has fresh first-hand
    /// evidence): `target` is alive at `incarnation`. `coord` (wire v9)
    /// piggybacks the prober's Vivaldi coordinate.
    15 ProbeAck { target: SiteId, incarnation: u64, coord: Option<Coord> },
    /// Fencing notice sent to a zombie: "the cluster declared incarnation
    /// `incarnation` of you dead". The zombie rejoins by re-announcing
    /// itself with a higher incarnation.
    16 DeathNotice { incarnation: u64 },

    // ---- distributed scheduling (§3.3, §4 scheduling manager) ----

    /// An idle site asks another for work. Carries current load and — on a
    /// site's *first* request — its descriptor, which doubles as the join
    /// announcement (§3.4).
    20 HelpRequest { load: LoadReport, descriptor: Option<SiteDescriptor> },
    /// Positive answer: an executable (or ready) microframe migrates to
    /// the requester.
    21 HelpReply { frame: WireFrame },
    /// The asked site has no spare work either.
    22 CantHelp {},

    // ---- code distribution (§4 code manager) ----

    /// Request a microthread's code, in the requester's platform-specific
    /// binary format if possible.
    30 CodeRequest { thread: MicrothreadId, platform: PlatformId },
    /// Code in the requested binary format.
    31 CodeBinary { thread: MicrothreadId, platform: PlatformId, artifact: Bytes },
    /// No binary for that platform is known; source code instead. The
    /// requester compiles on the fly.
    32 CodeSource { thread: MicrothreadId, source: Bytes },
    /// Neither binary nor source available here.
    33 CodeUnavailable { thread: MicrothreadId },
    /// After on-the-fly compilation, the fresh binary is uploaded to a
    /// code distribution site so future requesters get binaries at first go.
    34 CodeUpload { thread: MicrothreadId, platform: PlatformId, artifact: Bytes },

    // ---- attraction memory (§4) ----

    /// Apply a microthread result to a waiting frame's parameter slot —
    /// the fundamental dataflow message.
    40 ApplyResult { target: GlobalAddress, slot: u32, value: Value },
    /// Read a global object; `migrate` requests ownership transfer
    /// (attraction), otherwise a copy suffices. `replica` (wire v4) asks
    /// the owner to also enter the reader into the object's copyset so
    /// the copy may be cached locally until invalidated.
    41 MemRead { addr: GlobalAddress, migrate: bool, replica: bool },
    /// Successful read/migration reply. `replica` echoes that the reader
    /// was entered into the copyset and may cache the value.
    42 MemValue { obj: WireMemObject, migrated: bool, replica: bool },
    /// Write a global object (forwarded to the current owner).
    43 MemWrite { addr: GlobalAddress, value: Value },
    /// Write acknowledged.
    44 MemWriteAck { addr: GlobalAddress },
    /// Homesite directory: ask who currently owns an object.
    45 OwnerQuery { addr: GlobalAddress },
    /// Homesite directory answer.
    46 OwnerReply { addr: GlobalAddress, owner: Option<SiteId> },
    /// Homesite directory update: object migrated to a new owner.
    47 OwnerUpdate { addr: GlobalAddress, owner: SiteId },
    /// The object is not owned by the replying site. `hint` (wire v4)
    /// carries the last-known owner so the chaser can jump straight to it
    /// instead of re-querying the homesite after a blind backoff.
    48 MemMissing { addr: GlobalAddress, hint: Option<SiteId> },
    /// Bulk transfer of objects + frames during sign-off relocation.
    /// `directory` hands over the leaver's homesite directory entries
    /// (address → current owner).
    49 Relocate { objects: Vec<WireMemObject>, frames: Vec<WireFrame>, directory: Vec<(GlobalAddress, SiteId)> },
    /// Relocation accepted.
    50 RelocateAck {},
    /// The owner wrote (or migrated) the object: every copyset member
    /// must drop its cached replica. `version` is the owner's version
    /// after the write, for tracing; the drop itself is unconditional.
    51 ReplicaInvalidate { addr: GlobalAddress, version: u64 },

    // ---- crash management: backup mirroring (§2.2, [4]) ----

    /// The frame migrated away from `owner`; drop it from that bucket
    /// (unlike `BackupConsumed` this is not a tombstone — the new owner
    /// mirrors it afresh). Sent by the *adopter* after it has re-mirrored
    /// the frame, so there is never a moment with no backup anywhere.
    54 BackupRelease { frame: GlobalAddress, owner: SiteId },
    /// Mirror of a freshly created frame to its backup site.
    55 BackupFrame { frame: WireFrame },
    /// Mirror of a result application (sent by the *result sender* so no
    /// crash window exists between owner receipt and mirroring).
    56 BackupApply { target: GlobalAddress, slot: u32, value: Value },
    /// The frame was executed; its backup may be discarded.
    57 BackupConsumed { frame: GlobalAddress },
    /// Mirror of a global memory object (on alloc and write).
    58 BackupObject { obj: WireMemObject },
    /// Ask a backup site to revive everything it holds for a dead site.
    59 RecoverSite { dead: SiteId },

    // ---- program management & checkpoints (§4, [4]) ----

    /// Announce a program: code home site, number of microthreads, and
    /// (wire v6) its replication policy, so every site coordinates
    /// replicated/hedged dispatch identically.
    60 ProgramRegister { program: ProgramId, code_home: SiteId, name: String, threads: u32, replication: ReplicationPolicy },
    /// The program produced its final result / terminated; sites may purge
    /// its microthreads and objects.
    61 ProgramTerminated { program: ProgramId },
    /// Store a checkpoint snapshot on a checkpoint site.
    62 CheckpointStore { program: ProgramId, epoch: u64, snapshot: Bytes },
    /// Snapshot stored.
    63 CheckpointAck { program: ProgramId, epoch: u64 },
    /// Fetch the latest snapshot (crash recovery).
    64 CheckpointFetch { program: ProgramId },
    /// Latest snapshot.
    65 CheckpointData { program: ProgramId, epoch: u64, snapshot: Bytes },
    /// No snapshot stored here.
    66 CheckpointNone { program: ProgramId },
    /// Pause (or resume) executing a program's microframes cluster-wide;
    /// used to quiesce before collecting a checkpoint snapshot.
    67 ProgramPause { program: ProgramId, paused: bool },
    /// Ask a site for its share of a program's state (without draining
    /// it — unlike `Relocate`).
    68 SnapshotCollect { program: ProgramId },
    /// A site's contribution to a program snapshot.
    69 SnapshotPart { program: ProgramId, objects: Vec<WireMemObject>, frames: Vec<WireFrame> },

    // ---- I/O manager (§4) ----

    /// Program output routed to the frontend site.
    70 IoOutput { program: ProgramId, text: String },
    /// Program requests an input line from the user (via frontend).
    71 IoInputRequest { program: ProgramId, prompt: String },
    /// The user's input line.
    72 IoInputReply { program: ProgramId, line: String },
    /// Open a file on the site it resides on.
    73 FileOpen { path: String, create: bool },
    /// File opened; the handle embeds the owning site.
    74 FileOpened { handle: FileHandle },
    /// Read `len` bytes at `offset` (rerouted to the handle's site).
    75 FileRead { handle: FileHandle, offset: u64, len: u32 },
    /// Bytes read.
    76 FileData { handle: FileHandle, data: Bytes },
    /// Write bytes at `offset`.
    77 FileWrite { handle: FileHandle, offset: u64, data: Bytes },
    /// Write acknowledged.
    78 FileAck { handle: FileHandle },
    /// Close the file.
    79 FileClose { handle: FileHandle },
    /// A file operation failed.
    80 FileError { message: String },

    // ---- poison-frame quarantine (§2.2 robustness) ----

    /// A microframe of `program` was quarantined on the sender (dead-letter
    /// store) after a handler panic, an application error, or retry-budget
    /// exhaustion. Sent to the program's code home (frontend), whose
    /// failure policy decides whether the program fails fast or skips the
    /// frame and continues.
    81 FrameQuarantined { program: ProgramId, frame: GlobalAddress, thread: MicrothreadId, cause: String },

    // ---- replicated / hedged execution (wire v6) ----

    /// Execute `frame` as replica number `replica` (generation
    /// `generation`) on behalf of `coordinator` (the frame's home site,
    /// which holds the escrow entry). With `vote` set the executor
    /// buffers its result sends and reports them in `ReplicaDone`
    /// instead of applying them — the coordinator compares the buffered
    /// sends across replicas and applies the winners. Without `vote`
    /// (hedged dispatch) the replica executes normally: first write
    /// wins, the loser's duplicates are fenced.
    82 ReplicaTask { frame: WireFrame, generation: u32, replica: u8, coordinator: SiteId, vote: bool },
    /// A replica finished executing. For vote-mode replicas `sends`
    /// carries the buffered result sends (the escrow ballot); `ok:false`
    /// reports a failed/panicked replica with `error` as the cause.
    83 ReplicaDone { frame: GlobalAddress, generation: u32, replica: u8, ok: bool, sends: Vec<WireSend>, error: String },

    // ---- cluster-wide metrics rollup (wire v7, ops plane) ----

    /// Periodic telemetry digest piggybacked on heartbeat fan-out: the
    /// sender's cumulative counters and latency histograms, compact
    /// enough to ride every heartbeat tick. Receivers keep the latest
    /// digest per site (digests are cumulative, so latest-wins) and any
    /// site can merge its table into cluster totals and quantiles.
    84 MetricsSummary { summary: WireMetricsSummary },

    // ---- planned departure & online checkpoint (wire v8) ----

    /// Gossip: `site` (at `incarnation`) entered the `Draining` membership
    /// state — it is leaving on purpose. Receivers stop granting it help,
    /// stop announcing programs to it, skip it as a relocation successor
    /// and as a backup buddy, but do NOT suspect it: draining is not a
    /// failure, and the detector stays out of it. The state clears when
    /// the site's `SignOff` arrives (or a fresh descriptor rejoins it).
    85 SiteDraining { site: SiteId, incarnation: u64 },
    /// A draining site hands its dead-letter store to its successor so
    /// quarantined frames stay redrivable after the departure. Each
    /// letter is the quarantined frame plus its human-readable cause.
    86 DeadLetterSweep { letters: Vec<(WireFrame, String)> },
    /// Pause-free checkpoint round (online checkpoint): ask a site for
    /// its share of a program's state captured as per-shard consistent
    /// cuts — dirty shards re-captured under their own shard lock, clean
    /// shards answered from the previous cut — without quiescing the
    /// execution engine the way `SnapshotCollect` does. Answered with a
    /// regular `SnapshotPart`.
    87 SnapshotCollectIncremental { program: ProgramId },

    // ---- generic ----

    /// Generic error reply carrying the failed request's description.
    90 Error { message: String },
    /// Liveness probe used by tests and the site manager's status query.
    91 Ping { token: u64 },
    /// Answer to `Ping`.
    92 Pong { token: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvm_types::{PhysicalAddr, Priority};

    fn rt(p: Payload) {
        let bytes = p.encode_to_vec();
        let back = Payload::decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, p);
    }

    fn sample_frame() -> WireFrame {
        WireFrame {
            id: GlobalAddress::new(SiteId(1), 7),
            thread: MicrothreadId::new(ProgramId(2), 3),
            slots: vec![
                Some(Value::from_u64(1)),
                None,
                Some(Value::from_str_val("x")),
            ],
            targets: vec![GlobalAddress::new(SiteId(4), 9)],
            hint: SchedulingHint {
                priority: Priority(5),
                sticky: true,
            },
        }
    }

    #[test]
    fn frame_executability() {
        let mut f = sample_frame();
        assert_eq!(f.missing(), 1);
        assert!(!f.is_executable());
        f.slots[1] = Some(Value::empty());
        assert!(f.is_executable());
        assert_eq!(f.program(), ProgramId(2));
    }

    #[test]
    fn roundtrip_every_payload_kind() {
        let d = SiteDescriptor::new(SiteId(3), PhysicalAddr::Mem(3), PlatformId(1));
        let obj = WireMemObject {
            addr: GlobalAddress::new(SiteId(1), 5),
            program: ProgramId(1),
            data: Value::from_u64(9),
            version: 4,
        };
        let samples = vec![
            Payload::SignOn {
                descriptor: d.clone(),
            },
            Payload::SignOnAck {
                assigned: SiteId(9),
                cluster: vec![d.clone()],
            },
            Payload::SignOnRefused {
                reason: "full".into(),
            },
            Payload::SiteAnnounce {
                descriptor: d.clone(),
            },
            Payload::SignOff {
                site: SiteId(2),
                successor: SiteId(3),
            },
            Payload::Heartbeat {
                load: LoadReport {
                    epoch: 3,
                    ..Default::default()
                },
                coord: Some(Coord {
                    x: 1.25,
                    y: -0.5,
                    z: 3.0,
                    h: 0.1,
                    err: 0.4,
                }),
            },
            Payload::ClusterListRequest {},
            Payload::ClusterList {
                sites: vec![d.clone(), d.clone()],
            },
            Payload::IdBlockRequest {},
            Payload::IdBlockGrant {
                start: 100,
                len: 50,
            },
            Payload::SiteCrashed {
                site: SiteId(4),
                successor: SiteId(5),
                incarnation: 2,
            },
            Payload::SuspectSite {
                site: SiteId(4),
                incarnation: 1,
            },
            Payload::RefuteSuspicion {
                descriptor: d.clone(),
            },
            Payload::ProbeRequest {
                target: SiteId(4),
                coord: None,
            },
            Payload::ProbeAck {
                target: SiteId(4),
                incarnation: 3,
                coord: Some(Coord::origin()),
            },
            Payload::DeathNotice { incarnation: 2 },
            Payload::HelpRequest {
                load: LoadReport::default(),
                descriptor: Some(d.clone()),
            },
            Payload::HelpReply {
                frame: sample_frame(),
            },
            Payload::CantHelp {},
            Payload::CodeRequest {
                thread: MicrothreadId::new(ProgramId(1), 2),
                platform: PlatformId(3),
            },
            Payload::CodeBinary {
                thread: MicrothreadId::new(ProgramId(1), 2),
                platform: PlatformId(3),
                artifact: Bytes::from_static(b"bin"),
            },
            Payload::CodeSource {
                thread: MicrothreadId::new(ProgramId(1), 2),
                source: Bytes::from_static(b"src"),
            },
            Payload::CodeUnavailable {
                thread: MicrothreadId::new(ProgramId(1), 2),
            },
            Payload::CodeUpload {
                thread: MicrothreadId::new(ProgramId(1), 2),
                platform: PlatformId(1),
                artifact: Bytes::from_static(b"bin2"),
            },
            Payload::ApplyResult {
                target: GlobalAddress::new(SiteId(1), 1),
                slot: 2,
                value: Value::from_i64(-5),
            },
            Payload::MemRead {
                addr: GlobalAddress::new(SiteId(1), 1),
                migrate: true,
                replica: false,
            },
            Payload::MemValue {
                obj: obj.clone(),
                migrated: false,
                replica: true,
            },
            Payload::MemWrite {
                addr: GlobalAddress::new(SiteId(1), 1),
                value: Value::empty(),
            },
            Payload::MemWriteAck {
                addr: GlobalAddress::new(SiteId(1), 1),
            },
            Payload::OwnerQuery {
                addr: GlobalAddress::new(SiteId(1), 1),
            },
            Payload::OwnerReply {
                addr: GlobalAddress::new(SiteId(1), 1),
                owner: Some(SiteId(2)),
            },
            Payload::OwnerUpdate {
                addr: GlobalAddress::new(SiteId(1), 1),
                owner: SiteId(2),
            },
            Payload::MemMissing {
                addr: GlobalAddress::new(SiteId(1), 1),
                hint: Some(SiteId(3)),
            },
            Payload::Relocate {
                objects: vec![obj.clone()],
                frames: vec![sample_frame()],
                directory: vec![(GlobalAddress::new(SiteId(1), 3), SiteId(2))],
            },
            Payload::RelocateAck {},
            Payload::ReplicaInvalidate {
                addr: GlobalAddress::new(SiteId(1), 1),
                version: 7,
            },
            Payload::BackupRelease {
                frame: GlobalAddress::new(SiteId(1), 1),
                owner: SiteId(2),
            },
            Payload::BackupFrame {
                frame: sample_frame(),
            },
            Payload::BackupApply {
                target: GlobalAddress::new(SiteId(1), 1),
                slot: 0,
                value: Value::from_u64(3),
            },
            Payload::BackupConsumed {
                frame: GlobalAddress::new(SiteId(1), 1),
            },
            Payload::BackupObject { obj: obj.clone() },
            Payload::RecoverSite { dead: SiteId(3) },
            Payload::ProgramRegister {
                program: ProgramId(1),
                code_home: SiteId(1),
                name: "primes".into(),
                threads: 4,
                replication: sdvm_types::ReplicationPolicy::Replicate {
                    k: 3,
                    selector: sdvm_types::ReplicaSelector::Thread(0),
                },
            },
            Payload::ProgramTerminated {
                program: ProgramId(1),
            },
            Payload::CheckpointStore {
                program: ProgramId(1),
                epoch: 2,
                snapshot: Bytes::from_static(b"snap"),
            },
            Payload::CheckpointAck {
                program: ProgramId(1),
                epoch: 2,
            },
            Payload::CheckpointFetch {
                program: ProgramId(1),
            },
            Payload::CheckpointData {
                program: ProgramId(1),
                epoch: 2,
                snapshot: Bytes::from_static(b"snap"),
            },
            Payload::CheckpointNone {
                program: ProgramId(1),
            },
            Payload::ProgramPause {
                program: ProgramId(1),
                paused: true,
            },
            Payload::SnapshotCollect {
                program: ProgramId(1),
            },
            Payload::SnapshotPart {
                program: ProgramId(1),
                objects: vec![obj.clone()],
                frames: vec![sample_frame()],
            },
            Payload::IoOutput {
                program: ProgramId(1),
                text: "hello".into(),
            },
            Payload::IoInputRequest {
                program: ProgramId(1),
                prompt: "> ".into(),
            },
            Payload::IoInputReply {
                program: ProgramId(1),
                line: "yes".into(),
            },
            Payload::FileOpen {
                path: "/tmp/x".into(),
                create: true,
            },
            Payload::FileOpened {
                handle: FileHandle {
                    site: SiteId(1),
                    local: 2,
                },
            },
            Payload::FileRead {
                handle: FileHandle {
                    site: SiteId(1),
                    local: 2,
                },
                offset: 0,
                len: 16,
            },
            Payload::FileData {
                handle: FileHandle {
                    site: SiteId(1),
                    local: 2,
                },
                data: Bytes::from_static(b"data"),
            },
            Payload::FileWrite {
                handle: FileHandle {
                    site: SiteId(1),
                    local: 2,
                },
                offset: 8,
                data: Bytes::from_static(b"data"),
            },
            Payload::FileAck {
                handle: FileHandle {
                    site: SiteId(1),
                    local: 2,
                },
            },
            Payload::FileClose {
                handle: FileHandle {
                    site: SiteId(1),
                    local: 2,
                },
            },
            Payload::FileError {
                message: "enoent".into(),
            },
            Payload::FrameQuarantined {
                program: ProgramId(1),
                frame: GlobalAddress::new(SiteId(2), 4),
                thread: MicrothreadId::new(ProgramId(1), 2),
                cause: "handler panicked: boom".into(),
            },
            Payload::ReplicaTask {
                frame: sample_frame(),
                generation: 1,
                replica: 2,
                coordinator: SiteId(1),
                vote: true,
            },
            Payload::ReplicaDone {
                frame: GlobalAddress::new(SiteId(1), 7),
                generation: 1,
                replica: 2,
                ok: true,
                sends: vec![WireSend {
                    target: GlobalAddress::new(SiteId(4), 9),
                    slot: 0,
                    value: Value::from_u64(42),
                }],
                error: String::new(),
            },
            Payload::MetricsSummary {
                summary: WireMetricsSummary {
                    messages_sent: 100,
                    messages_received: 98,
                    frames_executed: 42,
                    frames_retried: 1,
                    frames_quarantined: 0,
                    crashes_declared: 2,
                    help_requests: 7,
                    help_granted: 5,
                    career_sum_us: 123_456,
                    career_buckets: vec![0, 3, 9, 30],
                    help_rtt_sum_us: 9_999,
                    help_rtt_buckets: vec![1, 2],
                },
            },
            Payload::SiteDraining {
                site: SiteId(4),
                incarnation: 3,
            },
            Payload::DeadLetterSweep {
                letters: vec![(sample_frame(), "handler panicked: boom".into())],
            },
            Payload::SnapshotCollectIncremental {
                program: ProgramId(1),
            },
            Payload::Error {
                message: "nope".into(),
            },
            Payload::Ping { token: 99 },
            Payload::Pong { token: 99 },
        ];
        for p in samples {
            rt(p);
        }
    }

    #[test]
    fn tags_are_unique() {
        // Build a few payloads of each family and check tag uniqueness by
        // decoding garbage tags fails.
        assert!(Payload::decode_from_slice(&[200, 1]).is_err());
    }

    #[test]
    fn name_matches_variant() {
        assert_eq!(Payload::CantHelp {}.name(), "CantHelp");
        assert_eq!(Payload::Ping { token: 0 }.name(), "Ping");
    }
}
