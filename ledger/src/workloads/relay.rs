//! `relay.k1` / `relay.k64`: chains of sticky one-slot frames that
//! ping-pong a 64-byte token between two sites.
//!
//! Each handler creates its own next receive frame and sends that
//! frame's address inside the token, so every hop is the full
//! cross-site career of a result: the sender looks the owner up at the
//! frame's homesite (`OwnerQuery`/`OwnerReply`), then sends the
//! `ApplyResult` that fires the frame.
//!
//! The timed interval of a hop is the `ctx.send` stamp on one site →
//! handler entry on the other. A latency sample is the mean of two
//! consecutive hops of a chain, one in each direction: single hops are
//! bimodal by direction, so their pooled median flips between modes.

use super::{frame_id, Fields, Launched, RunCtl, Verdict, STICKY};
use crate::cluster::Cluster;
use crate::record::{spanned, Kind};
use crate::util::{now_ns, seeded_fill};
use sdvm_core::{AppBuilder, ExecCtx};
use sdvm_types::{GlobalAddress, SdvmResult, SiteId, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const TOKEN_LEN: usize = 64;
const FILLER_LEN: usize = 28;
const NO_LATENCY: u32 = u32::MAX;
const FLAG_FIN: u32 = 1;

/// The 64 bytes a hop carries.
struct Token {
    chain: u32,
    /// Hops this chain has made before this one.
    hop: u32,
    /// Stamp taken right before the `ctx.send` that sent this token.
    sent_at: u64,
    /// The previous hop's latency, for the two-hop sample.
    prev_latency: u32,
    flags: u32,
    /// The sender's next receive frame (unused on the last token).
    next: GlobalAddress,
    filler: [u8; FILLER_LEN],
}

impl Token {
    fn new(seed: u64, chain: u32, hop: u32) -> Token {
        let mut filler = [0u8; FILLER_LEN];
        seeded_fill(seed, chain as u64, hop as u64, &mut filler);
        Token {
            chain,
            hop,
            sent_at: 0,
            prev_latency: NO_LATENCY,
            flags: 0,
            next: GlobalAddress::new(SiteId::NONE, 0),
            filler,
        }
    }

    fn encode(&self) -> Value {
        let mut b = Vec::with_capacity(TOKEN_LEN);
        b.extend_from_slice(&self.chain.to_le_bytes());
        b.extend_from_slice(&self.hop.to_le_bytes());
        b.extend_from_slice(&self.sent_at.to_le_bytes());
        b.extend_from_slice(&self.prev_latency.to_le_bytes());
        b.extend_from_slice(&self.flags.to_le_bytes());
        b.extend_from_slice(&self.next.home.0.to_le_bytes());
        b.extend_from_slice(&self.next.local.to_le_bytes());
        b.extend_from_slice(&self.filler);
        debug_assert_eq!(b.len(), TOKEN_LEN);
        Value::from_bytes(b)
    }

    fn decode(value: &Value) -> SdvmResult<Token> {
        let mut f = Fields::new(value.bytes());
        Ok(Token {
            chain: f.u32()?,
            hop: f.u32()?,
            sent_at: f.u64()?,
            prev_latency: f.u32()?,
            flags: f.u32()?,
            next: GlobalAddress::new(SiteId(f.u32()?), f.u64()?),
            filler: f.take(FILLER_LEN)?.try_into().expect("took filler"),
        })
    }
}

/// Benchmark-side state of one relay run.
struct Relay {
    ctl: Arc<RunCtl>,
    /// Handler runs per (site, chain).
    ran: [Vec<AtomicU64>; 2],
    /// Hop number of each chain's last token, set by the handler that
    /// ended the chain.
    last_hop: Vec<AtomicU64>,
}

impl Relay {
    /// The relay microthread as run on site `side`. `target(0)` is the
    /// side's join frame.
    fn hop(&self, side: usize, ctx: &mut ExecCtx<'_>) -> SdvmResult<()> {
        let entry = now_ns();
        let ctl = &self.ctl;
        let token = Token::decode(ctx.param(0)?)?;
        let chain = token.chain as usize;
        let spans = ctl.spans(token.chain as u64, 1);
        let site = side as u32;
        spanned(
            spans,
            Kind::Handler,
            site,
            frame_id(token.chain, token.hop),
            || {
                let expected = Token::new(ctl.seed, token.chain, token.hop);
                if chain >= self.last_hop.len() || token.filler != expected.filler {
                    ctl.reject();
                    return Ok(());
                }
                let ran = self.ran[side][chain].fetch_add(1, Ordering::Relaxed) + 1;
                let join = ctx.target(0)?;
                if token.flags & FLAG_FIN != 0 {
                    return ctx.send(join, token.chain, Value::from_u64(ran));
                }
                let latency = entry.saturating_sub(token.sent_at);
                let sample = (token.prev_latency != NO_LATENCY)
                    .then(|| (token.prev_latency as u64 + latency) / 2);
                ctl.rec.record(entry, sample);

                let mut out = Token::new(ctl.seed, token.chain, token.hop + 1);
                let out_id = frame_id(out.chain, out.hop);
                if ctl.stopping() {
                    out.flags = FLAG_FIN;
                    self.last_hop[chain].store(out.hop as u64, Ordering::Relaxed);
                    ctx.send(token.next, 0, out.encode())?;
                    return ctx.send(join, token.chain, Value::from_u64(ran));
                }
                out.next = spanned(spans, Kind::CreateFrame, site, out_id, || {
                    ctx.create_frame(0, 1, vec![join], STICKY)
                });
                out.prev_latency = latency.min(NO_LATENCY as u64 - 1) as u32;
                // The stamp and the span start are the same instant: the
                // hop timeline starts where the latency interval starts.
                spanned(spans, Kind::Send, site, out_id, || {
                    out.sent_at = now_ns();
                    ctx.send(token.next, 0, out.encode())
                })
            },
        )
    }
}

/// Sum every slot into `target(0)`: the per-site join of the chains.
fn join_sum(ctx: &mut ExecCtx<'_>) -> SdvmResult<()> {
    let mut total = 0u64;
    for slot in 0..ctx.param_count() as u32 {
        total += ctx.param(slot)?.as_u64()?;
    }
    ctx.send(ctx.target(0)?, 0, Value::from_u64(total))
}

/// Start `chains` relay chains between sites 0 and 1 of `cluster`.
pub fn launch(cluster: &Cluster, ctl: &Arc<RunCtl>, chains: usize) -> SdvmResult<Launched> {
    let counters = || (0..chains).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
    let state = Arc::new(Relay {
        ctl: ctl.clone(),
        ran: [counters(), counters()],
        last_hop: counters(),
    });
    // The same two microthreads on both sites: index 0 relays, index 1
    // joins. Each site launches its own program so that its first frames
    // are created there — placement by construction, not by help-request
    // luck. Results cross programs by address.
    let app = |side: usize| {
        let mut app = AppBuilder::new("ledger-relay");
        let state = state.clone();
        app.thread("relay", move |ctx| state.hop(side, ctx));
        app.thread("join", join_sum);
        app
    };

    let mut far_frames = Vec::with_capacity(chains);
    let far = cluster.sites[1].launch(&app(1), |ctx, result| {
        let join = ctx.create_frame(1, chains, vec![result], STICKY);
        for _ in 0..chains {
            far_frames.push(ctx.create_frame(0, 1, vec![join], STICKY));
        }
        Ok(())
    })?;
    let seed = ctl.seed;
    let near = cluster.sites[0].launch(&app(0), |ctx, result| {
        let join = ctx.create_frame(1, chains, vec![result], STICKY);
        for (chain, first) in far_frames.iter().enumerate() {
            let mut token = Token::new(seed, chain as u32, 0);
            token.next = ctx.create_frame(0, 1, vec![join], STICKY);
            token.sent_at = now_ns();
            ctx.send(*first, 0, token.encode())?;
        }
        Ok(())
    })?;

    let ctl = ctl.clone();
    Ok(Launched {
        handles: vec![near, far],
        verify: Box::new(move |results| {
            let mut v = Verdict::default();
            // Tokens 0..last are relayed and recorded; token `last` only
            // ends the chain. Every token is one handler run.
            let mut handler_runs = 0u64;
            for chain in 0..chains {
                let last = state.last_hop[chain].load(Ordering::Relaxed);
                let ran: u64 = state
                    .ran
                    .iter()
                    .map(|side| side[chain].load(Ordering::Relaxed))
                    .sum();
                v.check(ran == last + 1, || {
                    format!("chain {chain}: {ran} handler runs for {} tokens", last + 1)
                });
                v.expected += last;
                handler_runs += last + 1;
            }
            let joined: u64 = results.iter().filter_map(|r| r.as_u64().ok()).sum();
            v.check(joined == handler_runs, || {
                format!("programs joined {joined} handler runs, tokens say {handler_runs}")
            });
            if ctl.break_check {
                v.expected += 1;
            }
            v.verified = ctl.rec.total_frames();
            v
        }),
    })
}
