//! `objects.rw`: the attraction memory used both ways.
//!
//! Site 0 allocates 1 024 objects of 256 bytes. Eight sticky loops on
//! site 1 each do one seeded operation per frame: nine in ten read an
//! object (replica hit, or remote fetch on a miss), one in ten writes
//! one (write-through to the owner, which invalidates the replicas). The
//! timed interval is the duration of the `ctx.read`/`ctx.write` call.
//!
//! A loop writes only the objects whose index is its own modulo the
//! loop count, so every object has one writer and its sequence numbers
//! are issued in order.

use super::{frame_id, Fields, Launched, RunCtl, Verdict, STICKY};
use crate::cluster::Cluster;
use crate::record::{spanned, Kind};
use crate::util::{now_ns, seeded, seeded_fill};
use sdvm_core::{AppBuilder, ExecCtx};
use sdvm_types::{GlobalAddress, SdvmResult, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const OBJECTS: usize = 1024;
const OBJECT_LEN: usize = 256;
const LOOPS: usize = 8;
/// One operation in this many is a write.
const WRITE_ONE_IN: u64 = 10;

const OP: u32 = 0;
const JOIN: u32 = 1;
const RELEASE: u32 = 0;

/// Object `index` as written with sequence number `seq`: index,
/// sequence, then bytes only the seed can predict.
fn object_bytes(seed: u64, index: u64, seq: u64) -> Value {
    let mut b = vec![0u8; OBJECT_LEN];
    b[..8].copy_from_slice(&index.to_le_bytes());
    b[8..16].copy_from_slice(&seq.to_le_bytes());
    seeded_fill(seed, index, seq, &mut b[16..]);
    Value::from_bytes(b)
}

struct Objects {
    ctl: Arc<RunCtl>,
    addrs: OnceLock<Vec<GlobalAddress>>,
    /// Highest sequence number a completed read returned, per object.
    seen: Vec<AtomicU64>,
    /// Sequence number of the last acknowledged write, per object.
    written: Vec<AtomicU64>,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl Objects {
    /// One loop iteration: a seeded read or write, then the next frame.
    fn op(&self, ctx: &mut ExecCtx<'_>) -> SdvmResult<()> {
        let ctl = &self.ctl;
        let mut f = Fields::new(ctx.param(0)?.bytes());
        let (lp, n) = (f.u64()?, f.u64()?);
        let addrs = self.addrs.get().expect("objects allocated before launch");
        let r = seeded(ctl.seed, lp, n);
        let is_write = r.is_multiple_of(WRITE_ONE_IN);
        let pick = (r / WRITE_ONE_IN) as usize;
        let id = frame_id(lp as u32, n as u32);
        let spans = ctl.spans(n, 1);

        spanned(spans, Kind::Handler, 1, id, || {
            let (end, latency, ok) = if is_write {
                let index = (pick % (OBJECTS / LOOPS)) * LOOPS + lp as usize;
                let seq = self.written[index].load(Ordering::Relaxed) + 1;
                let value = object_bytes(ctl.seed, index as u64, seq);
                let start = now_ns();
                spanned(spans, Kind::MemWrite, 1, id, || {
                    ctx.write(addrs[index], value)
                })?;
                let end = now_ns();
                self.written[index].store(seq, Ordering::Relaxed);
                self.writes.fetch_add(1, Ordering::Relaxed);
                (end, end - start, true)
            } else {
                let index = pick % OBJECTS;
                // A value seen by a read that completed before this one
                // started must not be newer than what this one returns.
                let floor = self.seen[index].load(Ordering::SeqCst);
                let start = now_ns();
                let got = spanned(spans, Kind::MemRead, 1, id, || ctx.read(addrs[index]))?;
                let end = now_ns();
                let mut g = Fields::new(got.bytes());
                let (got_index, seq) = (g.u64()?, g.u64()?);
                let ok = got_index == index as u64
                    && seq >= floor
                    && got == object_bytes(ctl.seed, index as u64, seq);
                self.seen[index].fetch_max(seq, Ordering::SeqCst);
                self.reads.fetch_add(1, Ordering::Relaxed);
                (end, end - start, ok)
            };
            if !ok {
                ctl.reject();
                return Ok(());
            }
            ctl.rec.record(end, Some(latency));

            let join = ctx.target(0)?;
            if ctl.stopping() {
                return ctx.send(join, lp as u32, Value::from_u64(n + 1));
            }
            let next = ctx.create_frame(OP, 1, vec![join], STICKY);
            ctx.send(next, 0, Value::from_u64_slice(&[lp, n + 1]))
        })
    }
}

/// Sum the loops' operation counts into `target(0)` (the result) and
/// release the owning program through `target(1)`.
fn join(ctx: &mut ExecCtx<'_>) -> SdvmResult<()> {
    let mut total = 0u64;
    for slot in 0..ctx.param_count() as u32 {
        total += ctx.param(slot)?.as_u64()?;
    }
    ctx.send(ctx.target(1)?, 0, Value::from_u64(total))?;
    ctx.send(ctx.target(0)?, 0, Value::from_u64(total))
}

/// Allocate the objects on site 0 and start the loops on site 1.
pub fn launch(cluster: &Cluster, ctl: &Arc<RunCtl>) -> SdvmResult<Launched> {
    let counters = || (0..OBJECTS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
    let state = Arc::new(Objects {
        ctl: ctl.clone(),
        addrs: OnceLock::new(),
        seen: counters(),
        written: counters(),
        reads: AtomicU64::new(0),
        writes: AtomicU64::new(0),
    });

    // The owner's program only allocates, then waits to be released:
    // objects die with their program.
    let mut owner_app = AppBuilder::new("ledger-objects-owner");
    owner_app.thread("release", |ctx| {
        let ops = ctx.param(0)?.clone();
        ctx.send(ctx.target(0)?, 0, ops)
    });
    let seed = ctl.seed;
    let mut release = None;
    let owner = cluster.sites[0].launch(&owner_app, |ctx, result| {
        release = Some(ctx.create_frame(RELEASE, 1, vec![result], STICKY));
        let addrs = (0..OBJECTS as u64)
            .map(|i| ctx.alloc(object_bytes(seed, i, 0)))
            .collect();
        state.addrs.set(addrs).expect("objects allocated once");
        Ok(())
    })?;
    let release = release.expect("owner bootstrap ran");

    let mut app = AppBuilder::new("ledger-objects");
    let s = state.clone();
    assert_eq!(app.thread("op", move |ctx| s.op(ctx)), OP);
    assert_eq!(app.thread("join", join), JOIN);
    let loops = cluster.sites[1].launch(&app, |ctx, result| {
        let join = ctx.create_frame(JOIN, LOOPS, vec![result, release], STICKY);
        for lp in 0..LOOPS as u64 {
            let first = ctx.create_frame(OP, 1, vec![join], STICKY);
            ctx.send(first, 0, Value::from_u64_slice(&[lp, 0]))?;
        }
        Ok(())
    })?;

    let ctl = ctl.clone();
    Ok(Launched {
        handles: vec![loops, owner],
        verify: Box::new(move |results| {
            let mut v = Verdict::default();
            let ops = state.reads.load(Ordering::Relaxed) + state.writes.load(Ordering::Relaxed);
            for (who, r) in ["loops", "owner"].iter().zip(results) {
                let joined = r.as_u64().ok();
                v.check(joined == Some(ops), || {
                    format!("{who} program joined {joined:?} operations, handlers ran {ops}")
                });
            }
            v.expected = ops + u64::from(ctl.break_check);
            v.verified = ctl.rec.total_frames();
            v.extras.push((
                "write_share",
                state.writes.load(Ordering::Relaxed) as f64 / ops.max(1) as f64,
            ));
            v
        }),
    })
}
