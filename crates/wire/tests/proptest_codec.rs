//! Property-based tests of the wire codec: arbitrary values round-trip,
//! arbitrary bytes never panic the decoder.

use bytes::Bytes;
use proptest::prelude::*;
use sdvm_types::{
    FileHandle, GlobalAddress, LoadReport, ManagerId, MicrothreadId, PhysicalAddr, PlatformId,
    Priority, ProgramId, ReplicaSelector, ReplicationPolicy, SchedulingHint, SiteDescriptor,
    SiteId, Value,
};
use sdvm_wire::{Decode, Encode, Payload, SdMessage, WireFrame, WireMemObject};

fn arb_site() -> impl Strategy<Value = SiteId> {
    any::<u32>().prop_map(SiteId)
}

fn arb_addr() -> impl Strategy<Value = GlobalAddress> {
    (any::<u32>(), any::<u64>()).prop_map(|(h, l)| GlobalAddress::new(SiteId(h), l))
}

fn arb_thread() -> impl Strategy<Value = MicrothreadId> {
    (any::<u32>(), any::<u32>()).prop_map(|(p, i)| MicrothreadId::new(ProgramId(p), i))
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop::collection::vec(any::<u8>(), 0..256).prop_map(|v| Value::from_bytes(Bytes::from(v)))
}

fn arb_physical() -> impl Strategy<Value = PhysicalAddr> {
    prop_oneof![
        any::<u64>().prop_map(PhysicalAddr::Mem),
        "[a-z0-9\\.:]{1,32}".prop_map(PhysicalAddr::Tcp),
    ]
}

fn arb_descriptor() -> impl Strategy<Value = SiteDescriptor> {
    (
        arb_site(),
        arb_physical(),
        any::<u16>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(
            |(site, addr, platform, code_distribution, incarnation)| SiteDescriptor {
                site,
                addr,
                platform: PlatformId(platform),
                code_distribution,
                incarnation,
            },
        )
}

fn arb_hint() -> impl Strategy<Value = SchedulingHint> {
    (any::<i32>(), any::<bool>()).prop_map(|(p, sticky)| SchedulingHint {
        priority: Priority(p),
        sticky,
    })
}

fn arb_frame() -> impl Strategy<Value = WireFrame> {
    (
        arb_addr(),
        arb_thread(),
        prop::collection::vec(prop::option::of(arb_value()), 0..16),
        prop::collection::vec(arb_addr(), 0..8),
        arb_hint(),
    )
        .prop_map(|(id, thread, slots, targets, hint)| WireFrame {
            id,
            thread,
            slots,
            targets,
            hint,
        })
}

fn arb_replication() -> impl Strategy<Value = ReplicationPolicy> {
    fn selector() -> impl Strategy<Value = ReplicaSelector> {
        prop_oneof![
            Just(ReplicaSelector::All),
            any::<u32>().prop_map(ReplicaSelector::Thread),
        ]
    }
    prop_oneof![
        Just(ReplicationPolicy::Off),
        (any::<u8>(), selector())
            .prop_map(|(k, selector)| ReplicationPolicy::Replicate { k, selector }),
        (0u64..10_000_000, selector()).prop_map(|(us, selector)| ReplicationPolicy::Hedge {
            delay: std::time::Duration::from_micros(us),
            selector,
        }),
    ]
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        arb_descriptor().prop_map(|descriptor| Payload::SignOn { descriptor }),
        (arb_site(), prop::collection::vec(arb_descriptor(), 0..8))
            .prop_map(|(assigned, cluster)| Payload::SignOnAck { assigned, cluster }),
        arb_frame().prop_map(|frame| Payload::HelpReply { frame }),
        Just(Payload::CantHelp {}),
        (arb_addr(), any::<u32>(), arb_value()).prop_map(|(target, slot, value)| {
            Payload::ApplyResult {
                target,
                slot,
                value,
            }
        }),
        (arb_addr(), any::<bool>(), any::<bool>()).prop_map(|(addr, migrate, replica)| {
            Payload::MemRead {
                addr,
                migrate,
                replica,
            }
        }),
        (arb_addr(), arb_value(), any::<u32>(), any::<u64>()).prop_map(
            |(addr, data, p, version)| Payload::MemValue {
                obj: WireMemObject {
                    addr,
                    program: ProgramId(p),
                    data,
                    version,
                },
                migrated: false,
                replica: false,
            }
        ),
        (
            any::<u32>(),
            arb_site(),
            "[a-z]{0,12}",
            any::<u32>(),
            arb_replication()
        )
            .prop_map(|(program, code_home, name, threads, replication)| {
                Payload::ProgramRegister {
                    program: ProgramId(program),
                    code_home,
                    name,
                    threads,
                    replication,
                }
            }),
        (arb_site(), any::<u32>()).prop_map(|(site, local)| Payload::FileOpened {
            handle: FileHandle { site, local }
        }),
        any::<u64>().prop_map(|token| Payload::Ping { token }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sdmessage_roundtrip(
        src in arb_site(),
        dst in arb_site(),
        seq in any::<u64>(),
        reply in prop::option::of(any::<u64>()),
        incarnation in any::<u64>(),
        payload in arb_payload(),
    ) {
        let mut msg = SdMessage::new(
            src,
            ManagerId::Scheduling,
            dst,
            ManagerId::Memory,
            seq,
            payload,
        );
        msg.in_reply_to = reply;
        msg.src_incarnation = incarnation;
        let bytes = msg.to_bytes();
        let back = SdMessage::from_bytes(&bytes).expect("roundtrip");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn frame_roundtrip_preserves_missing(frame in arb_frame()) {
        let bytes = frame.encode_to_vec();
        let back = WireFrame::decode_from_slice(&bytes).expect("roundtrip");
        prop_assert_eq!(back.missing(), frame.missing());
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn decoder_never_panics(noise in prop::collection::vec(any::<u8>(), 0..512)) {
        // Any outcome is fine, panics are not.
        let _ = SdMessage::from_bytes(&noise);
        let _ = Payload::decode_from_slice(&noise);
        let _ = WireFrame::decode_from_slice(&noise);
        let _ = SiteDescriptor::decode_from_slice(&noise);
        let _ = LoadReport::decode_from_slice(&noise);
    }

    #[test]
    fn truncation_never_decodes_to_success_with_trailing_loss(
        payload in arb_payload(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let msg = SdMessage::new(
            SiteId(1), ManagerId::Site, SiteId(2), ManagerId::Site, 9, payload,
        );
        let bytes = msg.to_bytes();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        if cut < bytes.len() {
            // A strict prefix must never decode successfully.
            prop_assert!(SdMessage::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn value_scalar_roundtrips(x in any::<i64>(), y in any::<u64>(), f in any::<f64>()) {
        prop_assert_eq!(Value::from_i64(x).as_i64().unwrap(), x);
        prop_assert_eq!(Value::from_u64(y).as_u64().unwrap(), y);
        let back = Value::from_f64(f).as_f64().unwrap();
        prop_assert!(back == f || (back.is_nan() && f.is_nan()));
    }

    #[test]
    fn value_slice_roundtrips(v in prop::collection::vec(any::<u64>(), 0..64)) {
        prop_assert_eq!(Value::from_u64_slice(&v).as_u64_slice().unwrap(), v);
    }
}
