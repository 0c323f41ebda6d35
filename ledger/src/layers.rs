//! Per-layer metrics from a traced run, outside in: spans recorded
//! around `ExecCtx` calls and by the transport tap, counters of the
//! sites, and procfs. Layers carry this repository's module names.

use crate::micro::MicroCosts;
use crate::record::{Kind, Span};
use crate::run::Measured;
use crate::tap::{BACKGROUND_KINDS, MSG_APPLY, MSG_BACKGROUND, MSG_OWNER_QUERY, MSG_OWNER_REPLY};
use crate::util::{mean, median};
use std::collections::HashMap;

/// Name, unit and direction of every per-layer metric, in the order
/// they are printed. A metric that does not apply to a workload (no
/// peer traffic on `fan.local`, no objects on the relays) reads 0.
pub const PER_LAYER: [(&str, &str, &str); 30] = [
    ("core.send_us", "us", "lower"),
    ("core.create_frame_us", "us", "lower"),
    ("core.mem_read_us", "us", "lower"),
    ("core.mem_write_us", "us", "lower"),
    ("replica_hit_ratio", "ratio", "higher"),
    ("net.enqueue_us", "us", "lower"),
    ("net.queue_wait_us", "us", "lower"),
    ("security.seal_us", "us", "lower"),
    ("security.records_per_seal", "count", "higher"),
    ("net.wire_us", "us", "lower"),
    ("core.inbound_us", "us", "lower"),
    ("sched.help_grant_ratio", "ratio", "higher"),
    ("sched.migrated_share", "ratio", "higher"),
    ("sched.efficiency", "ratio", "higher"),
    ("wire.encode_ns", "ns", "lower"),
    ("wire.decode_ns", "ns", "lower"),
    ("crypto.seal_ns", "ns", "lower"),
    ("crypto.open_ns", "ns", "lower"),
    ("wire.frame_read_ns", "ns", "lower"),
    ("msgs_per_frame", "count", "lower"),
    ("bytes_per_frame", "B", "lower"),
    ("seals_per_frame", "count", "lower"),
    ("mem_shard_contention_per_kframe", "count", "lower"),
    ("backpressure_stalls", "count", "lower"),
    ("handler_us", "us", "lower"),
    ("cpu_s_per_kframe", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("cluster_form_ms", "ms", "lower"),
    ("trace_overhead", "ratio", "higher"),
    ("unattributed_us", "us", "lower"),
];

/// The stages of one relay hop, in order. Their durations sum to the
/// hop's latency exactly; each is attributed to the layer in brackets.
pub const HOP_STAGES: [&str; 16] = [
    "send: apply_local miss, resolve home [core]",
    "query: send_plain [net]",
    "query: wait in peer queue [net]",
    "query: seal [security]",
    "query: write, loopback, read scan, FrameReader [net]",
    "query: open, decode, dispatch, directory, encode reply [core]",
    "reply: send_plain [net]",
    "reply: wait in peer queue [net]",
    "reply: seal [security]",
    "reply: write, loopback, read scan, FrameReader [net]",
    "reply: open, decode, wake the blocked sender, encode apply [core]",
    "apply: send_plain [net]",
    "apply: wait in peer queue [net]",
    "apply: seal [security]",
    "apply: write, loopback, read scan, FrameReader [net]",
    "apply: open, decode, dispatch, shard apply, enqueue, worker wake [core]",
];

/// The median hop of a traced relay run, stage by stage.
pub struct HopTimeline {
    /// Mean duration of each of [`HOP_STAGES`] over the hops of the
    /// samples closest to the median sample, in µs.
    pub stages_us: Vec<f64>,
    /// The traced run's `latency_p50_us`.
    pub p50_us: f64,
    /// `p50_us` minus the sum of the stages.
    pub unattributed_us: f64,
    /// Two-hop samples whose every stage was found, and all samples.
    pub complete: usize,
    pub samples: usize,
}

fn duration_us(s: &Span) -> f64 {
    (s.end - s.start) as f64 / 1e3
}

/// One message's three tap spans.
#[derive(Clone, Copy)]
struct Message<'a> {
    enqueue: &'a Span,
    seal: &'a Span,
    wire: &'a Span,
}

impl Message<'_> {
    /// Enqueue, queue wait, seal, wire — in ns, summing to
    /// `wire.end - enqueue.start`.
    fn stages(&self) -> [u64; 4] {
        let enqueued = self.enqueue.end.min(self.seal.start);
        [
            enqueued.saturating_sub(self.enqueue.start),
            self.seal.start.saturating_sub(self.enqueue.end),
            self.seal.end.saturating_sub(self.seal.start),
            self.wire.end.saturating_sub(self.seal.end),
        ]
    }
}

/// Spans of a traced run, indexed the ways the analysis needs.
struct Index<'a> {
    spans: &'a [Span],
    seal_of: HashMap<u64, &'a Span>,
    wire_of: HashMap<u64, &'a Span>,
    children: HashMap<u64, Vec<&'a Span>>,
}

impl<'a> Index<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let mut ix = Index {
            spans,
            seal_of: HashMap::new(),
            wire_of: HashMap::new(),
            children: HashMap::new(),
        };
        for s in spans {
            match s.kind {
                Kind::Seal => {
                    ix.seal_of.insert(s.id, s);
                }
                Kind::Wire => {
                    ix.wire_of.insert(s.id, s);
                }
                _ => {}
            }
            if s.parent != 0 {
                ix.children.entry(s.parent).or_default().push(s);
            }
        }
        ix
    }

    fn of(&self, kind: Kind) -> impl Iterator<Item = &'a Span> + '_ {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    fn message(&self, enqueue: &'a Span) -> Option<Message<'a>> {
        Some(Message {
            enqueue,
            seal: self.seal_of.get(&enqueue.id)?,
            wire: self.wire_of.get(&enqueue.id)?,
        })
    }

    fn median_us(&self, kind: Kind) -> f64 {
        median(&self.of(kind).map(duration_us).collect::<Vec<_>>())
    }
}

/// The 16 stage durations (ns) of the hop sent by `send`, if every span
/// of it was recorded.
fn hop_stages(
    ix: &Index<'_>,
    send: &Span,
    handlers: &HashMap<u64, &Span>,
    replies: &HashMap<(u32, u64), &Span>,
) -> Option<[u64; 16]> {
    let mut sent: Vec<&Span> = ix
        .children
        .get(&send.span)?
        .iter()
        .copied()
        .filter(|s| s.kind == Kind::Enqueue)
        .collect();
    sent.sort_by_key(|s| s.start);
    let [query, apply] = sent[..] else {
        return None;
    };
    if query.aux[0] != MSG_OWNER_QUERY || apply.aux[0] != MSG_APPLY {
        return None;
    }
    // The reply comes from the site the query went to and answers the
    // query's sequence number.
    let reply = replies.get(&(query.aux[2] as u32, query.aux[1]))?;
    let handler = handlers.get(&send.id)?;
    let (q, r, a) = (ix.message(query)?, ix.message(reply)?, ix.message(apply)?);
    let mut out = [0u64; 16];
    out[0] = query.start.saturating_sub(send.start);
    out[1..5].copy_from_slice(&q.stages());
    out[5] = reply.start.saturating_sub(q.wire.end);
    out[6..10].copy_from_slice(&r.stages());
    out[10] = apply.start.saturating_sub(r.wire.end);
    out[11..15].copy_from_slice(&a.stages());
    out[15] = handler.start.saturating_sub(a.wire.end);
    Some(out)
}

/// The timeline of the median two-hop sample of a traced relay run.
fn hop_timeline(ix: &Index<'_>, p50_us: f64) -> HopTimeline {
    let handlers: HashMap<u64, &Span> = ix.of(Kind::Handler).map(|s| (s.id, s)).collect();
    // Replies by (logical id of the answering site, sequence answered).
    // Site ids are assigned in sign-on order, one above the site index.
    let replies: HashMap<(u32, u64), &Span> = ix
        .of(Kind::Enqueue)
        .filter(|s| s.aux[0] == MSG_OWNER_REPLY)
        .map(|s| ((s.site + 1, s.aux[1]), s))
        .collect();
    let sends: HashMap<u64, &Span> = ix.of(Kind::Send).map(|s| (s.id, s)).collect();

    // A sample is two consecutive hops of a chain, as in the recorder.
    let mut samples: Vec<(u64, Option<[u64; 16]>)> = Vec::new();
    for (&id, second) in &sends {
        let Some(first) = id.checked_sub(1).and_then(|prev| sends.get(&prev)) else {
            continue;
        };
        let (Some(h1), Some(h2)) = (handlers.get(&first.id), handlers.get(&id)) else {
            continue;
        };
        let latency =
            (h1.start.saturating_sub(first.start) + h2.start.saturating_sub(second.start)) / 2;
        let stages = hop_stages(ix, first, &handlers, &replies)
            .zip(hop_stages(ix, second, &handlers, &replies))
            .map(|(a, b)| std::array::from_fn(|i| (a[i] + b[i]) / 2));
        samples.push((latency, stages));
    }
    samples.sort_by_key(|(latency, _)| *latency);
    let n = samples.len();
    let middle = &samples[n * 45 / 100..(n * 55 / 100 + 1).min(n)];
    let complete: Vec<&[u64; 16]> = middle.iter().filter_map(|(_, s)| s.as_ref()).collect();
    let stages_us: Vec<f64> = (0..16)
        .map(|i| {
            mean(
                &complete
                    .iter()
                    .map(|s| s[i] as f64 / 1e3)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    HopTimeline {
        unattributed_us: p50_us - stages_us.iter().sum::<f64>(),
        stages_us,
        p50_us,
        complete: samples.iter().filter(|(_, s)| s.is_some()).count(),
        samples: n,
    }
}

/// Every per-layer metric of a traced run, by name, plus the relay hop
/// timeline where there is one.
pub fn per_layer(
    workload: &str,
    traced: &Measured,
    untraced_frames_per_s: f64,
    micro: &MicroCosts,
) -> (HashMap<&'static str, f64>, Option<HopTimeline>) {
    let ix = Index::new(&traced.spans);
    let mut m: HashMap<&'static str, f64> = HashMap::new();
    let frames = traced.timed_frames.max(1) as f64;
    let kframes = frames / 1e3;
    // A ratio that reads 0 where it does not apply.
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let frames_per_s = median(&traced.rounds.frames_per_s);
    let p50_us = median(&traced.rounds.p50_us);

    m.insert("core.send_us", ix.median_us(Kind::Send));
    m.insert("core.create_frame_us", ix.median_us(Kind::CreateFrame));
    m.insert("core.mem_read_us", ix.median_us(Kind::MemRead));
    m.insert("core.mem_write_us", ix.median_us(Kind::MemWrite));
    let c = &traced.counters;
    m.insert(
        "replica_hit_ratio",
        ratio(
            c.replica_hits as f64,
            (c.replica_hits + c.replica_misses) as f64,
        ),
    );

    m.insert("net.enqueue_us", ix.median_us(Kind::Enqueue));
    let enqueues: HashMap<u64, &Span> = ix.of(Kind::Enqueue).map(|s| (s.span, s)).collect();
    let waits: Vec<f64> = ix
        .of(Kind::Seal)
        .filter_map(|seal| {
            let enqueue = enqueues.get(&seal.parent)?;
            Some(seal.start.saturating_sub(enqueue.end) as f64 / 1e3)
        })
        .collect();
    m.insert("net.queue_wait_us", median(&waits));
    // Seal calls that carried at least one record of a frame's career,
    // as (duration, career records). There is one span per record; a
    // batch's records share one call, told apart by site and start
    // stamp. Background records that happen to share a call (a help
    // round coalesced behind a result) are not counted: on `relay.k1`
    // every career message must be sealed alone.
    let mut calls: HashMap<(u32, u64), (f64, f64)> = HashMap::new();
    for seal in ix.of(Kind::Seal) {
        let career = enqueues
            .get(&seal.parent)
            .is_some_and(|e| e.aux[0] != MSG_BACKGROUND);
        let call = calls
            .entry((seal.site, seal.start))
            .or_insert((duration_us(seal), 0.0));
        call.1 += f64::from(u8::from(career));
    }
    let calls: Vec<(f64, f64)> = calls.into_values().filter(|c| c.1 > 0.0).collect();
    m.insert(
        "security.seal_us",
        median(&calls.iter().map(|c| c.0).collect::<Vec<_>>()),
    );
    m.insert(
        "security.records_per_seal",
        mean(&calls.iter().map(|c| c.1).collect::<Vec<_>>()),
    );
    m.insert("seals_per_frame", calls.len() as f64 / frames);
    m.insert("net.wire_us", ix.median_us(Kind::Wire));

    let (career_msgs, career_bytes) = traced.by_kind.as_ref().map_or((0, 0), |kinds| {
        kinds
            .iter()
            .filter(|(kind, _)| !BACKGROUND_KINDS.contains(kind))
            .fold((0, 0), |acc, (_, (n, bytes))| (acc.0 + n, acc.1 + bytes))
    });
    m.insert("msgs_per_frame", career_msgs as f64 / frames);
    m.insert("bytes_per_frame", career_bytes as f64 / frames);

    let timeline = workload
        .starts_with("relay.")
        .then(|| hop_timeline(&ix, p50_us));
    m.insert(
        "core.inbound_us",
        timeline.as_ref().map_or(0.0, |t| t.stages_us[15]),
    );
    m.insert(
        "unattributed_us",
        timeline.as_ref().map_or(0.0, |t| t.unattributed_us),
    );

    m.insert(
        "sched.help_grant_ratio",
        ratio(c.help_granted as f64, c.help_requests as f64),
    );
    let extra = |name: &str| {
        traced
            .verdict
            .extras
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    };
    m.insert(
        "sched.migrated_share",
        extra("sched.migrated_share").unwrap_or(0.0),
    );
    // Frames per second the slots could run if none ever waited.
    m.insert(
        "sched.efficiency",
        extra("leaf_mean_us").map_or(0.0, |leaf_us| {
            frames_per_s / (traced.slots as f64 / (leaf_us / 1e6))
        }),
    );

    m.insert("wire.encode_ns", micro.encode_ns);
    m.insert("wire.decode_ns", micro.decode_ns);
    m.insert("crypto.seal_ns", micro.seal_ns);
    m.insert("crypto.open_ns", micro.open_ns);
    m.insert("wire.frame_read_ns", micro.frame_read_ns);

    m.insert(
        "mem_shard_contention_per_kframe",
        c.shard_contention as f64 / kframes,
    );
    m.insert("backpressure_stalls", c.backpressure_stalls as f64);
    // A handler's own time: its span minus the `ExecCtx` calls inside.
    let own: Vec<f64> = ix
        .of(Kind::Handler)
        .map(|h| {
            let inside: f64 = ix
                .children
                .get(&h.span)
                .map_or(0.0, |kids| kids.iter().map(|k| duration_us(k)).sum());
            (duration_us(h) - inside).max(0.0)
        })
        .collect();
    m.insert("handler_us", median(&own));
    m.insert("cpu_s_per_kframe", traced.cpu_s / kframes);
    m.insert("peak_rss_mib", crate::run::peak_rss_mib());
    m.insert("cluster_form_ms", traced.form_ms);
    m.insert("trace_overhead", ratio(frames_per_s, untraced_frames_per_s));
    debug_assert!(PER_LAYER.iter().all(|(name, ..)| m.contains_key(name)));
    (m, timeline)
}
