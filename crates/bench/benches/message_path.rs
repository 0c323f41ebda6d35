//! Criterion: the outbound message path — encode, (optionally) seal,
//! frame — in the zero-copy single-buffer pipeline the transport uses
//! (one allocation, encryption in place):
//!   `begin_frame` → envelope header → `encode_into` →
//!   `seal_for_in_place` → `finish_frame`
//!
//! The path seeds `begin_frame` with a capacity hint learned from
//! the previous frame, mirroring `SecurityManager::seal_frame` — a
//! cold under-reserve pays growth reallocs that erase the copy savings.
//!
//! "8 peers" fans the same message out to eight destinations — each
//! gets its own seal (per-peer nonce counters), which is exactly the
//! site manager broadcasting load reports or a microframe spraying its
//! parameters.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use sdvm_crypto::{KeyStore, NONCE_PREFIX_LEN};
use sdvm_types::{FileHandle, ManagerId, SiteId};
use sdvm_wire::{begin_frame, finish_frame, Payload, SdMessage, WireWriter};

const TAG_PLAIN: u8 = 0;
const TAG_PEER: u8 = 1;

fn sample_msg(dst: u32, payload_len: usize) -> SdMessage {
    SdMessage::new(
        SiteId(1),
        ManagerId::Memory,
        SiteId(dst),
        ManagerId::Memory,
        42,
        Payload::FileData {
            handle: FileHandle {
                site: SiteId(1),
                local: 7,
            },
            data: Bytes::from(vec![0xabu8; payload_len]),
        },
    )
}

fn plain(cap: &mut usize, msg: &SdMessage) -> Bytes {
    let mut buf = begin_frame(*cap);
    buf.put_u8(TAG_PLAIN);
    let mut w = WireWriter::from_buf(buf);
    msg.encode_into(&mut w);
    let frame = finish_frame(w.into_buf()).expect("frame");
    *cap = frame.len() + 32;
    frame
}

fn sealed(cap: &mut usize, ks: &mut KeyStore, dst: u32, msg: &SdMessage) -> Bytes {
    let mut buf = begin_frame(*cap);
    buf.put_u8(TAG_PEER);
    buf.extend_from_slice(&1u32.to_le_bytes());
    let seal_start = buf.len();
    buf.resize(seal_start + NONCE_PREFIX_LEN, 0);
    let mut w = WireWriter::from_buf(buf);
    msg.encode_into(&mut w);
    let mut buf = w.into_buf();
    ks.seal_for_in_place(dst, &mut buf, seal_start);
    let frame = finish_frame(buf).expect("frame");
    *cap = frame.len() + 32;
    frame
}

fn bench_message_path(c: &mut Criterion) {
    let payload_len = 256usize;
    let mut g = c.benchmark_group("message_path");
    for peers in [1u32, 8] {
        let msgs: Vec<SdMessage> = (1..=peers)
            .map(|d| sample_msg(d + 1, payload_len))
            .collect();
        let mut cap = 128usize;
        let frame_len = plain(&mut cap, &msgs[0]).len() as u64;
        g.throughput(Throughput::Bytes(frame_len * peers as u64));

        g.bench_function(format!("plain/{peers}peer"), |b| {
            b.iter(|| {
                for m in &msgs {
                    black_box(plain(&mut cap, black_box(m)));
                }
            })
        });

        let mut ks = KeyStore::from_password(1, "bench-pw");
        let mut cap = 128usize;
        g.bench_function(format!("encrypted/{peers}peer"), |b| {
            b.iter(|| {
                for (i, m) in msgs.iter().enumerate() {
                    black_box(sealed(&mut cap, &mut ks, i as u32 + 2, black_box(m)));
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_message_path);
criterion_main!(benches);
