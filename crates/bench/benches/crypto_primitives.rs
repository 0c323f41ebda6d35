//! Criterion: the security manager's primitives — SHA-256, wide
//! ChaCha20 keystream, HMAC midstate reuse, in-place seal/open, and the
//! amortization a batch record buys over per-record sealing. The
//! per-message cost the paper trades against trust (E5's microbenchmark
//! side).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sdvm_crypto::chacha::ChaChaKey;
use sdvm_crypto::hmac::{hmac_sha256, HmacKey};
use sdvm_crypto::sha256::sha256;
use sdvm_crypto::SecureChannel;

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16384] {
        let data = vec![0xa5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}"), |b| {
            b.iter(|| sha256(std::hint::black_box(&data)))
        });
    }
    g.finish();
}

fn bench_chacha_wide(c: &mut Criterion) {
    let mut g = c.benchmark_group("chacha20_keystream");
    let key = ChaChaKey::new(&[7u8; 32]);
    let nonce = [9u8; 12];
    for size in [64usize, 256, 1024, 16384, 1 << 20] {
        let mut buf = vec![0xa5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("xor/{size}"), |b| {
            b.iter(|| key.xor(&nonce, 1, std::hint::black_box(&mut buf)))
        });
    }
    g.finish();
}

fn bench_hmac_midstate(c: &mut Criterion) {
    let mut g = c.benchmark_group("hmac_sha256");
    let data = vec![0x5au8; 64];
    g.throughput(Throughput::Bytes(64));
    // One-shot: pays the ipad/opad key absorption every call.
    g.bench_function("oneshot/64", |b| {
        b.iter(|| hmac_sha256(b"key material here", std::hint::black_box(&data)))
    });
    // Midstate: ipad/opad absorbed once, ~100 B of state cloned per MAC.
    let key = HmacKey::new(b"key material here");
    g.bench_function("midstate/64", |b| {
        b.iter(|| key.mac_of(std::hint::black_box(&data)))
    });
    g.finish();
}

fn bench_seal_open(c: &mut Criterion) {
    let mut g = c.benchmark_group("secure_channel_v2");
    for size in [64usize, 256, 1024, 4096] {
        let payload = vec![0x5au8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("seal/{size}"), |b| {
            let mut tx = SecureChannel::new(&[3u8; 32]);
            b.iter(|| tx.seal(std::hint::black_box(&payload)))
        });
        g.bench_function(format!("seal_open_in_place/{size}"), |b| {
            let mut tx = SecureChannel::new(&[3u8; 32]);
            let mut rx = SecureChannel::new(&[3u8; 32]);
            b.iter(|| {
                let mut sealed = tx.seal(std::hint::black_box(&payload)).to_vec();
                rx.open_in_place(&mut sealed, 0).expect("authentic")
            })
        });
    }
    g.finish();
}

/// The amortization argument behind batch-sealed records: sealing one
/// 64-record run as a single unit vs 64 per-record seals of the same
/// total payload.
fn bench_batch_amortization(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_amortization");
    const RECORDS: usize = 64;
    const RECORD_LEN: usize = 256;
    let total = RECORDS * RECORD_LEN;
    g.throughput(Throughput::Bytes(total as u64));
    let run = vec![0xabu8; total];
    g.bench_function("one_batch_record", |b| {
        let mut tx = SecureChannel::new(&[3u8; 32]);
        b.iter(|| tx.seal(std::hint::black_box(&run)))
    });
    let record = vec![0xabu8; RECORD_LEN];
    g.bench_function("per_record_x64", |b| {
        let mut tx = SecureChannel::new(&[3u8; 32]);
        b.iter(|| {
            for _ in 0..RECORDS {
                std::hint::black_box(tx.seal(std::hint::black_box(&record)));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_chacha_wide,
    bench_hmac_midstate,
    bench_seal_open,
    bench_batch_amortization
);
criterion_main!(benches);
