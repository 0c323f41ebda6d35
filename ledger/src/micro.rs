//! Stand-alone loops over the public codec, crypto and framing
//! functions, on the exact `ApplyResult` message a relay hop sends.
//!
//! They bound what a codec or crypto change can save per message;
//! multiply by `msgs_per_frame` for the saving per frame.

use crate::util::{median, now_ns};
use bytes::{Bytes, BytesMut};
use sdvm_crypto::KeyStore;
use sdvm_types::{GlobalAddress, ManagerId, SiteId, Value};
use sdvm_wire::{
    frame_bytes, FrameRead, FrameReader, Payload, SdMessage, TraceContext, WireWriter,
};
use std::hint::black_box;

/// Messages per timed batch.
const BATCH: usize = 4_000;
/// Batches per loop; the median batch is reported.
const BATCHES: usize = 5;

/// Nanoseconds per operation of each loop.
pub struct MicroCosts {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub seal_ns: f64,
    pub open_ns: f64,
    pub frame_read_ns: f64,
}

/// The message a relay hop's `ctx.send` puts on the wire.
fn relay_apply(token: &[u8]) -> SdMessage {
    let target = GlobalAddress::new(SiteId(2), 4_321);
    let mut msg = SdMessage::new(
        SiteId(1),
        ManagerId::Memory,
        SiteId(2),
        ManagerId::Memory,
        98_765,
        Payload::ApplyResult {
            target,
            slot: 0,
            value: Value::from_bytes(token.to_vec()),
        },
    );
    msg.src_incarnation = 1;
    msg.trace = TraceContext {
        origin: target.home,
        id: target.local as u32,
    };
    msg
}

fn encode(msg: &SdMessage) -> Bytes {
    let mut w = WireWriter::from_buf(BytesMut::with_capacity(160));
    msg.encode_into(&mut w);
    w.into_buf().freeze()
}

/// Median ns per operation over `BATCHES` batches; `batch` runs `BATCH`
/// operations.
fn per_op(mut batch: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = now_ns();
            batch();
            (now_ns() - start) as f64 / BATCH as f64
        })
        .collect();
    median(&times)
}

/// Run every loop.
pub fn measure() -> MicroCosts {
    let msg = relay_apply(&[0x5a; 64]);
    let plain = encode(&msg);

    let encode_ns = per_op(|| {
        for _ in 0..BATCH {
            black_box(encode(black_box(&msg)));
        }
    });
    let decode_ns = per_op(|| {
        for _ in 0..BATCH {
            black_box(SdMessage::from_bytes(black_box(&plain)).expect("decodes"));
        }
    });

    // Every sealed record can be opened once (the replay window), so
    // each batch opens records sealed for it beforehand.
    let mut sender = KeyStore::from_password(1, "frame-ledger");
    let mut receiver = KeyStore::from_password(2, "frame-ledger");
    let mut sealed: Vec<Bytes> = Vec::with_capacity(BATCH * BATCHES);
    let seal_ns = per_op(|| {
        for _ in 0..BATCH {
            sealed.push(sender.seal_for(2, black_box(&plain)));
        }
    });
    let mut records = sealed.iter();
    let open_ns = per_op(|| {
        for record in records.by_ref().take(BATCH) {
            black_box(receiver.open_from(1, record).expect("opens"));
        }
    });

    let mut stream = Vec::new();
    for record in &sealed {
        stream.extend_from_slice(&frame_bytes(record).expect("frames"));
    }
    let mut cursor = std::io::Cursor::new(stream);
    let mut reader = FrameReader::new();
    let frame_read_ns = per_op(|| {
        for _ in 0..BATCH {
            match reader.read_frame(&mut cursor).expect("reads") {
                FrameRead::Frame(body) => {
                    black_box(body);
                }
                other => panic!("frame stream ended early: {other:?}"),
            }
        }
    });

    MicroCosts {
        encode_ns,
        decode_ns,
        seal_ns,
        open_ns,
        frame_read_ns,
    }
}
