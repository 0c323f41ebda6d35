//! Golden-bytes tests: pin the exact wire encoding of representative
//! SDMessages. Heterogeneous clusters mix daemon builds, so an
//! accidental codec change is a silent cluster-wide incompatibility —
//! these tests make it a loud one. If a change is *intentional*, bump
//! `WIRE_VERSION` and update the constants.

use sdvm_types::{GlobalAddress, LoadReport, ManagerId, MicrothreadId, ProgramId, SiteId, Value};
use sdvm_wire::{Payload, SdMessage, TraceContext};

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn golden_apply_result() {
    let msg = SdMessage::new(
        SiteId(3),
        ManagerId::Memory,
        SiteId(7),
        ManagerId::Memory,
        42,
        Payload::ApplyResult {
            target: GlobalAddress::new(SiteId(2), 9),
            slot: 1,
            value: Value::from_u64(0x0102030405060708),
        },
    );
    let bytes = msg.to_bytes();
    assert_eq!(
        hex(&bytes),
        "0b03000307032a0000\
0028020901080807060504030201",
        "ApplyResult wire encoding changed — bump WIRE_VERSION if intentional"
    );
    assert_eq!(SdMessage::from_bytes(&bytes).unwrap(), msg);
}

#[test]
fn golden_traced_ping() {
    // New in WIRE_VERSION 3: the causal trace context (origin site id +
    // 32-bit trace id, two varints) rides the envelope between
    // `in_reply_to` and the payload.
    let mut msg = SdMessage::new(
        SiteId(5),
        ManagerId::Scheduling,
        SiteId(1),
        ManagerId::Scheduling,
        7,
        Payload::Ping { token: 1 },
    );
    msg.trace = TraceContext {
        origin: SiteId(3),
        id: 300,
    };
    let bytes = msg.to_bytes();
    assert_eq!(
        hex(&bytes),
        "0b0500010101070003ac02\
5b01",
        "TraceContext wire encoding changed — bump WIRE_VERSION if intentional"
    );
    assert_eq!(SdMessage::from_bytes(&bytes).unwrap(), msg);
}

#[test]
fn frames_of_every_earlier_version_are_rejected_loudly() {
    // The exact golden ApplyResult bytes of each earlier WIRE_VERSION,
    // with what the next version changed. Every later layout would
    // misparse them (a payload tag read as trace-context bytes, memory
    // payloads that gained fields, batch records a v4 peer cannot open,
    // replication and drain gossip treated as unknown payloads, the
    // coordinate's extra option byte, the descriptor's dropped speed, a
    // refutation sent under a tag that no longer exists), so
    // a current daemon must refuse them at the version byte, not decode
    // best-effort.
    let earlier = [
        // v2 put `src_incarnation` into the envelope.
        (1, "01030307032a0028020901080807060504030201"),
        // v3: the trace context.
        (2, "0203000307032a0028020901080807060504030201"),
        // v4: object versions and the replica mode in memory payloads.
        (3, "0303000307032a00000028020901080807060504030201"),
        // v5: batch-sealed security records.
        (4, "0403000307032a00000028020901080807060504030201"),
        // v6: replicated/hedged execution.
        (5, "0503000307032a00000028020901080807060504030201"),
        // v7: the ops-plane metrics rollup.
        (6, "0603000307032a00000028020901080807060504030201"),
        // v8: the planned-departure plane.
        (7, "0703000307032a00000028020901080807060504030201"),
        // v9: Vivaldi network coordinates.
        (8, "0803000307032a00000028020901080807060504030201"),
        // v10: the site descriptor without its speed.
        (9, "0903000307032a00000028020901080807060504030201"),
        // v11: the dead cluster-list, refutation and recovery payloads
        // left the tag table.
        (10, "0a03000307032a00000028020901080807060504030201"),
    ];
    for (version, frame) in earlier {
        let err = SdMessage::from_bytes(&unhex(frame)).unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("version"),
            "v{version} frame must fail on the version byte, got: {msg}"
        );
    }
}

#[test]
fn golden_replica_invalidate() {
    // New in WIRE_VERSION 4: owners invalidate cached read replicas on
    // write/migration.
    let msg = SdMessage::new(
        SiteId(2),
        ManagerId::Memory,
        SiteId(6),
        ManagerId::Memory,
        11,
        Payload::ReplicaInvalidate {
            addr: GlobalAddress::new(SiteId(2), 9),
            version: 300,
        },
    );
    let bytes = msg.to_bytes();
    assert_eq!(
        hex(&bytes),
        "0b02000306030b0000\
00330209ac02",
        "ReplicaInvalidate wire encoding changed — bump WIRE_VERSION if intentional"
    );
    assert_eq!(SdMessage::from_bytes(&bytes).unwrap(), msg);
}

#[test]
fn golden_help_request() {
    let mut msg = SdMessage::new(
        SiteId(5),
        ManagerId::Scheduling,
        SiteId(1),
        ManagerId::Scheduling,
        7,
        Payload::HelpRequest {
            load: LoadReport {
                queued_frames: 2,
                busy_slots: 5,
                programs: 1,
                memory_bytes: 1024,
                epoch: 3,
            },
            descriptor: None,
        },
    );
    msg.in_reply_to = None;
    let bytes = msg.to_bytes();
    assert_eq!(
        hex(&bytes),
        "0b05000101010700000014020501\
80080300",
        "HelpRequest wire encoding changed — bump WIRE_VERSION if intentional"
    );
    assert_eq!(SdMessage::from_bytes(&bytes).unwrap(), msg);
}

#[test]
fn golden_ping_reply() {
    let req = SdMessage::new(
        SiteId(1),
        ManagerId::Site,
        SiteId(2),
        ManagerId::Site,
        100,
        Payload::Ping { token: 255 },
    );
    let reply = req.reply(101, ManagerId::Site, Payload::Pong { token: 255 });
    let bytes = reply.to_bytes();
    assert_eq!(
        hex(&bytes),
        "0b02000801086501640000\
5cff01",
        "Pong wire encoding changed — bump WIRE_VERSION if intentional"
    );
    assert_eq!(SdMessage::from_bytes(&bytes).unwrap(), reply);
}

#[test]
fn golden_suspect_site() {
    // New in WIRE_VERSION 2: suspicion gossip for the two-phase detector.
    let msg = SdMessage::new(
        SiteId(1),
        ManagerId::Cluster,
        SiteId(2),
        ManagerId::Cluster,
        9,
        Payload::SuspectSite {
            site: SiteId(4),
            incarnation: 3,
        },
    );
    let bytes = msg.to_bytes();
    assert_eq!(
        hex(&bytes),
        "0b0100060206090000\
000c0403",
        "SuspectSite wire encoding changed — bump WIRE_VERSION if intentional"
    );
    assert_eq!(SdMessage::from_bytes(&bytes).unwrap(), msg);
}

#[test]
fn payload_tags_are_stable() {
    // Tags are the wire contract; reordering the enum must not move them.
    let samples: Vec<(u16, Payload)> = vec![
        (
            1,
            Payload::SignOn {
                descriptor: sdvm_types::SiteDescriptor::new(
                    SiteId(1),
                    sdvm_types::PhysicalAddr::Mem(1),
                    sdvm_types::PlatformId(0),
                ),
            },
        ),
        (
            12,
            Payload::SuspectSite {
                site: SiteId(1),
                incarnation: 1,
            },
        ),
        (
            15,
            Payload::ProbeAck {
                target: SiteId(1),
                incarnation: 1,
                coord: None,
            },
        ),
        (16, Payload::DeathNotice { incarnation: 1 }),
        (
            20,
            Payload::HelpRequest {
                load: LoadReport::default(),
                descriptor: None,
            },
        ),
        (
            21,
            Payload::HelpReply {
                frame: sdvm_wire::WireFrame {
                    id: GlobalAddress::new(SiteId(1), 1),
                    thread: MicrothreadId::new(ProgramId(1), 0),
                    slots: vec![],
                    targets: vec![],
                    hint: Default::default(),
                },
            },
        ),
        (
            40,
            Payload::ApplyResult {
                target: GlobalAddress::new(SiteId(1), 1),
                slot: 0,
                value: Value::empty(),
            },
        ),
        (
            51,
            Payload::ReplicaInvalidate {
                addr: GlobalAddress::new(SiteId(1), 1),
                version: 1,
            },
        ),
        (
            54,
            Payload::BackupRelease {
                frame: GlobalAddress::new(SiteId(1), 1),
                owner: SiteId(2),
            },
        ),
        (
            62,
            Payload::CheckpointStore {
                program: ProgramId(1),
                epoch: 1,
                snapshot: bytes::Bytes::new(),
            },
        ),
        (
            67,
            Payload::ProgramPause {
                program: ProgramId(1),
                paused: true,
            },
        ),
        (
            60,
            Payload::ProgramRegister {
                program: ProgramId(1),
                code_home: SiteId(1),
                name: String::new(),
                threads: 1,
                replication: sdvm_types::ReplicationPolicy::Off,
            },
        ),
        (
            82,
            Payload::ReplicaTask {
                frame: sdvm_wire::WireFrame {
                    id: GlobalAddress::new(SiteId(1), 1),
                    thread: MicrothreadId::new(ProgramId(1), 0),
                    slots: vec![],
                    targets: vec![],
                    hint: Default::default(),
                },
                generation: 1,
                replica: 0,
                coordinator: SiteId(1),
                vote: true,
            },
        ),
        (
            83,
            Payload::ReplicaDone {
                frame: GlobalAddress::new(SiteId(1), 1),
                generation: 1,
                replica: 0,
                ok: true,
                sends: vec![],
                error: String::new(),
            },
        ),
        (
            84,
            Payload::MetricsSummary {
                summary: sdvm_wire::WireMetricsSummary::default(),
            },
        ),
        (
            85,
            Payload::SiteDraining {
                site: SiteId(1),
                incarnation: 1,
            },
        ),
        (86, Payload::DeadLetterSweep { letters: vec![] }),
        (
            87,
            Payload::SnapshotCollectIncremental {
                program: ProgramId(1),
            },
        ),
        (91, Payload::Ping { token: 0 }),
    ];
    for (tag, p) in samples {
        assert_eq!(p.tag(), tag, "tag moved for {}", p.name());
    }
}
