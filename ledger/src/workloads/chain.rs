//! `fan.local` and `farm.s4`: chains of collect → leaf → collect.
//!
//! A sticky collect frame on site 0 takes a leaf's result, checks it,
//! and spawns the chain's next collect frame and next leaf. The leaf is
//! the benchmark frame: the timed interval is the collect's `ctx.send`
//! of the leaf's input → the leaf's handler entry, which covers the
//! queue wait and, on the farm, the help round and the migration.
//!
//! - `fan.local`: one site, empty leaves. No message leaves the site.
//! - `farm.s4`: four sites; leaves are free to migrate and sleep a
//!   seeded 2–8 ms (emulated compute: two cores cannot host 20 spinning
//!   slots).

use super::{frame_id, Fields, Launched, RunCtl, Verdict, STICKY};
use crate::cluster::Cluster;
use crate::record::{spanned, Kind};
use crate::util::{mix, now_ns, seeded};
use sdvm_core::{AppBuilder, ExecCtx};
use sdvm_types::{GlobalAddress, SchedulingHint, SdvmResult, SiteId, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const COLLECT: u32 = 0;
const LEAF: u32 = 1;
const JOIN: u32 = 2;

/// Shortest and longest emulated leaf computation on the farm.
const LEAF_MIN_US: u64 = 2_000;
const LEAF_SPAN_US: u64 = 6_001;
/// Coordinate offset separating the duration stream from the input
/// stream of the same `(chain, step)`.
const DURATION_STREAM: u64 = 1 << 40;

/// `fan.local` runs two orders of magnitude more frames than the other
/// workloads; its traced run records one step in this many.
const FAN_TRACE_EVERY: u64 = 16;

/// What a chain has done so far; travels from collect to collect.
#[derive(Clone, Copy, Default)]
struct Acc {
    steps: u64,
    sum: u64,
}

impl Acc {
    fn encode(self) -> Value {
        Value::from_u64_slice(&[self.steps, self.sum])
    }

    fn decode(value: &Value) -> SdvmResult<Acc> {
        let mut f = Fields::new(value.bytes());
        Ok(Acc {
            steps: f.u64()?,
            sum: f.u64()?,
        })
    }
}

struct Chains {
    ctl: Arc<RunCtl>,
    chains: usize,
    farm: bool,
    /// Leaves that ran on a site other than site 0.
    migrated: AtomicU64,
    /// Each chain's final accumulator, stored by the join frame.
    finals: Mutex<Vec<Acc>>,
}

impl Chains {
    fn input(&self, chain: u64, step: u64) -> u64 {
        seeded(self.ctl.seed, chain, step)
    }

    fn sleep_us(&self, chain: u64, step: u64) -> u64 {
        if self.farm {
            LEAF_MIN_US + seeded(self.ctl.seed, chain, DURATION_STREAM + step) % LEAF_SPAN_US
        } else {
            0
        }
    }

    fn trace_every(&self) -> u64 {
        if self.farm {
            1
        } else {
            FAN_TRACE_EVERY
        }
    }

    /// Create step `acc.steps` of `chain`: its collect frame (holding
    /// `acc`) and the leaf feeding it.
    fn spawn(
        &self,
        ctx: &mut ExecCtx<'_>,
        join: GlobalAddress,
        chain: u64,
        acc: Acc,
        spans: bool,
    ) -> SdvmResult<()> {
        let id = frame_id(chain as u32, acc.steps as u32);
        let collect = spanned(spans, Kind::CreateFrame, 0, id, || {
            ctx.create_frame(COLLECT, 2, vec![join], STICKY)
        });
        ctx.send(collect, 1, acc.encode())?;
        let leaf = spanned(spans, Kind::CreateFrame, 0, id, || {
            ctx.create_frame(LEAF, 1, vec![collect], SchedulingHint::default())
        });
        let x = self.input(chain, acc.steps);
        let sleep_us = self.sleep_us(chain, acc.steps);
        spanned(spans, Kind::Send, 0, id, || {
            ctx.send(
                leaf,
                0,
                Value::from_u64_slice(&[chain, acc.steps, x, sleep_us, now_ns()]),
            )
        })
    }

    /// The leaf microthread: the benchmark frame.
    fn leaf(&self, ctx: &mut ExecCtx<'_>) -> SdvmResult<()> {
        let entry = now_ns();
        let mut f = Fields::new(ctx.param(0)?.bytes());
        let (chain, step, x, sleep_us, sent_at) =
            (f.u64()?, f.u64()?, f.u64()?, f.u64()?, f.u64()?);
        let here = ctx.site_id();
        let site = here.0.saturating_sub(1);
        let spans = self.ctl.spans(step, self.trace_every());
        let id = frame_id(chain as u32, step as u32);
        spanned(spans, Kind::Handler, site, id, || {
            if here != SiteId::FIRST {
                self.migrated.fetch_add(1, Ordering::Relaxed);
            }
            if sleep_us > 0 {
                std::thread::sleep(Duration::from_micros(sleep_us));
            }
            let out = Value::from_u64_slice(&[chain, step, mix(x), entry.saturating_sub(sent_at)]);
            let collect = ctx.target(0)?;
            spanned(spans, Kind::Send, site, id, || ctx.send(collect, 0, out))
        })
    }

    /// The collect microthread: verify a leaf's output, continue or end
    /// the chain. Slot 0 is the leaf's output, slot 1 the accumulator.
    fn collect(&self, ctx: &mut ExecCtx<'_>) -> SdvmResult<()> {
        let now = now_ns();
        let ctl = &self.ctl;
        let mut f = Fields::new(ctx.param(0)?.bytes());
        let (chain, step, value, latency) = (f.u64()?, f.u64()?, f.u64()?, f.u64()?);
        let mut acc = Acc::decode(ctx.param(1)?)?;
        if chain >= self.chains as u64 || step != acc.steps || value != mix(self.input(chain, step))
        {
            ctl.reject();
            return Ok(());
        }
        ctl.rec.record(now, Some(latency));
        acc.steps += 1;
        acc.sum = acc.sum.wrapping_add(value);
        let join = ctx.target(0)?;
        if ctl.stopping() {
            return ctx.send(join, chain as u32, acc.encode());
        }
        // The collect's own span would only repeat what its children
        // show; its sampled steps are the next leaf's.
        let spans = ctl.spans(acc.steps, self.trace_every());
        self.spawn(ctx, join, chain, acc, spans)
    }

    /// The join microthread: keep every chain's final accumulator for
    /// the checker and send the number of leaves on.
    fn join(&self, ctx: &mut ExecCtx<'_>) -> SdvmResult<()> {
        let mut finals = Vec::with_capacity(self.chains);
        for slot in 0..ctx.param_count() as u32 {
            finals.push(Acc::decode(ctx.param(slot)?)?);
        }
        let leaves: u64 = finals.iter().map(|a| a.steps).sum();
        *self.finals.lock().expect("finals poisoned") = finals;
        ctx.send(ctx.target(0)?, 0, Value::from_u64(leaves))
    }
}

/// Start `chains` collect→leaf chains from site 0 of `cluster`.
pub fn launch(
    cluster: &Cluster,
    ctl: &Arc<RunCtl>,
    chains: usize,
    farm: bool,
) -> SdvmResult<Launched> {
    let state = Arc::new(Chains {
        ctl: ctl.clone(),
        chains,
        farm,
        migrated: AtomicU64::new(0),
        finals: Mutex::new(Vec::new()),
    });
    let mut app = AppBuilder::new(if farm { "ledger-farm" } else { "ledger-fan" });
    let s = state.clone();
    assert_eq!(app.thread("collect", move |ctx| s.collect(ctx)), COLLECT);
    let s = state.clone();
    assert_eq!(app.thread("leaf", move |ctx| s.leaf(ctx)), LEAF);
    let s = state.clone();
    assert_eq!(app.thread("join", move |ctx| s.join(ctx)), JOIN);

    let handle = cluster.sites[0].launch(&app, |ctx, result| {
        let join = ctx.create_frame(JOIN, chains, vec![result], STICKY);
        for chain in 0..chains as u64 {
            state.spawn(ctx, join, chain, Acc::default(), false)?;
        }
        Ok(())
    })?;

    let ctl = ctl.clone();
    Ok(Launched {
        handles: vec![handle],
        verify: Box::new(move |results| {
            let mut v = Verdict::default();
            let finals = state.finals.lock().expect("finals poisoned").clone();
            v.check(finals.len() == chains, || {
                format!("join saw {} chains of {chains}", finals.len())
            });
            let mut leaf_us = 0u64;
            for (chain, acc) in finals.iter().enumerate() {
                let chain = chain as u64;
                let mut sum = 0u64;
                for step in 0..acc.steps {
                    sum = sum.wrapping_add(mix(state.input(chain, step)));
                    leaf_us += state.sleep_us(chain, step);
                }
                v.check(sum == acc.sum, || {
                    format!(
                        "chain {chain}: leaf results sum to {}, seed says {sum}",
                        acc.sum
                    )
                });
                v.expected += acc.steps;
            }
            let joined = results.first().and_then(|r| r.as_u64().ok());
            let leaves = v.expected;
            v.check(joined == Some(leaves), || {
                format!("program joined {joined:?} leaves, chains say {leaves}")
            });
            if farm && v.expected > 0 {
                let migrated = state.migrated.load(Ordering::Relaxed);
                v.extras
                    .push(("sched.migrated_share", migrated as f64 / v.expected as f64));
                v.extras
                    .push(("leaf_mean_us", leaf_us as f64 / v.expected as f64));
            }
            if ctl.break_check {
                v.expected += 1;
            }
            v.verified = ctl.rec.total_frames();
            v
        }),
    })
}
