//! The transport tap: the only place the ledger sees messages.
//!
//! A [`Tap`] wraps a [`TcpTransport`] behind the public
//! [`Transport`]/[`DrainSealer`] traits and forwards every method. It
//! exists only in traced runs; timed runs hand the site the bare
//! `TcpTransport`. Per record it notes three spans:
//!
//! - `Enqueue`: the `send_plain` call (the plaintext record is decoded
//!   here, so the span knows the payload kind and the request/reply
//!   sequence numbers that link a query to its reply);
//! - `Seal`: the `DrainSealer` call that carried the record, matched by
//!   the record's buffer address;
//! - `Wire`: sealed frame handed back to the poller → the same bytes
//!   arriving on the peer's `incoming()`, matched by the frame's first
//!   bytes (envelope header and nonce, unique per frame).

use crate::record::{current_span, next_span_id, push_span, tracing, Kind, Span};
use crate::util::now_ns;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use sdvm_net::{DrainSealer, TcpTransport, Transport};
use sdvm_types::{PhysicalAddr, SdvmResult};
use sdvm_wire::{Payload, SdMessage};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Payload kinds the timeline needs to tell apart (`Span::aux[0]` of an
/// `Enqueue` span).
pub const MSG_OTHER: u64 = 0;
pub const MSG_OWNER_QUERY: u64 = 1;
pub const MSG_OWNER_REPLY: u64 = 2;
pub const MSG_APPLY: u64 = 3;
/// A message that keeps the cluster alive or looks for work rather than
/// carry a frame's career.
pub const MSG_BACKGROUND: u64 = 4;

/// Payload kinds counted as background: membership, failure detection,
/// metrics gossip, and help rounds (an idle slot asks about every 20 ms
/// whether or not the workload has work to give).
pub const BACKGROUND_KINDS: [&str; 8] = [
    "Heartbeat",
    "MetricsSummary",
    "SiteAnnounce",
    "SuspectSite",
    "ProbeRequest",
    "ProbeAck",
    "HelpRequest",
    "CantHelp",
];

/// Leading bytes of a sealed frame body used as its identity on the
/// wire: envelope tag, source site and nonce prefix.
const FRAME_KEY_LEN: usize = 24;
type FrameKey = [u8; FRAME_KEY_LEN];

/// A record between `send_plain` and its seal.
struct Queued {
    msg_no: u64,
    enqueue_span: u64,
}

/// A sealed frame between the poller and the peer's inbox.
struct InFlight {
    sealed_at: u64,
    /// `(message number, seal span)` of every record in the frame.
    records: Vec<(u64, u64)>,
}

/// State shared by the taps of one cluster.
#[derive(Default)]
pub struct TapShared {
    /// Sealed frames on the wire, by leading bytes: written by the
    /// sending site's poller, taken by the receiving site's relay.
    in_flight: Mutex<HashMap<FrameKey, InFlight>>,
    next_msg: AtomicU64,
    /// Each site's own state, in site order.
    sites: Mutex<Vec<Arc<SiteTap>>>,
}

/// What only one site's threads touch.
#[derive(Default)]
struct SiteTap {
    /// Records waiting for their seal, by buffer address.
    queued: Mutex<HashMap<usize, Queued>>,
    /// Messages and plaintext bytes sent, by payload kind.
    by_kind: Mutex<HashMap<&'static str, (u64, u64)>>,
}

impl TapShared {
    /// Message and byte counts by payload kind, so far, over all sites.
    pub fn by_kind(&self) -> HashMap<&'static str, (u64, u64)> {
        let mut total: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for site in self.sites.lock().expect("tap sites poisoned").iter() {
            for (kind, (n, bytes)) in site.by_kind.lock().expect("tap counters poisoned").iter() {
                let t = total.entry(kind).or_insert((0, 0));
                t.0 += n;
                t.1 += bytes;
            }
        }
        total
    }
}

fn frame_key(body: &[u8]) -> FrameKey {
    let mut key = [0u8; FRAME_KEY_LEN];
    let n = body.len().min(FRAME_KEY_LEN);
    key[..n].copy_from_slice(&body[..n]);
    key
}

/// The sealer handed to the wrapped transport in the site's place.
struct TapSealer {
    inner: Arc<dyn DrainSealer>,
    shared: Arc<TapShared>,
    own: Arc<SiteTap>,
    site: u32,
}

impl TapSealer {
    fn sealed(&self, bodies: &[&[u8]], start: u64, frame: &Bytes) {
        let end = now_ns();
        if !tracing() {
            return;
        }
        let mut records = Vec::with_capacity(bodies.len());
        {
            let mut queued = self.own.queued.lock().expect("tap queue poisoned");
            for body in bodies {
                let Some(q) = queued.remove(&(body.as_ptr() as usize)) else {
                    continue;
                };
                let span = next_span_id();
                push_span(Span {
                    kind: Kind::Seal,
                    span,
                    parent: q.enqueue_span,
                    site: self.site,
                    start,
                    end,
                    id: q.msg_no,
                    aux: [bodies.len() as u64, 0, 0],
                });
                records.push((q.msg_no, span));
            }
        }
        // The returned frame starts with the 4-byte length prefix the
        // peer's reader strips.
        if frame.len() > 4 {
            self.shared
                .in_flight
                .lock()
                .expect("tap wire map poisoned")
                .insert(
                    frame_key(&frame[4..]),
                    InFlight {
                        sealed_at: end,
                        records,
                    },
                );
        }
    }
}

impl DrainSealer for TapSealer {
    fn seal_one(&self, dst: u32, body: &[u8]) -> SdvmResult<Bytes> {
        let start = now_ns();
        let frame = self.inner.seal_one(dst, body)?;
        self.sealed(&[body], start, &frame);
        Ok(frame)
    }

    fn seal_batch(&self, dst: u32, bodies: &[Bytes]) -> SdvmResult<Bytes> {
        let start = now_ns();
        let frame = self.inner.seal_batch(dst, bodies)?;
        let views: Vec<&[u8]> = bodies.iter().map(|b| &b[..]).collect();
        self.sealed(&views, start, &frame);
        Ok(frame)
    }
}

/// A `TcpTransport` with every method forwarded and timed.
pub struct Tap {
    inner: Arc<TcpTransport>,
    shared: Arc<TapShared>,
    own: Arc<SiteTap>,
    site: u32,
    inbox: Receiver<Bytes>,
    closed: Arc<AtomicBool>,
    relay: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Tap {
    /// Wrap `inner` as site number `site` of the cluster sharing `shared`.
    pub fn new(inner: Arc<TcpTransport>, shared: Arc<TapShared>, site: u32) -> Arc<Tap> {
        let (tx, inbox) = unbounded();
        let closed = Arc::new(AtomicBool::new(false));
        let relay = {
            let from = inner.incoming();
            let shared = shared.clone();
            let closed = closed.clone();
            std::thread::Builder::new()
                .name(format!("ledger-tap-{site}"))
                .spawn(move || {
                    while !closed.load(Ordering::SeqCst) {
                        match from.recv_timeout(Duration::from_millis(20)) {
                            Ok(body) => {
                                arrived(&shared, site, &body);
                                if tx.send(body).is_err() {
                                    break;
                                }
                            }
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                })
                .expect("spawn tap relay thread")
        };
        let own = Arc::new(SiteTap::default());
        shared
            .sites
            .lock()
            .expect("tap sites poisoned")
            .push(own.clone());
        Arc::new(Tap {
            inner,
            shared,
            own,
            site,
            inbox,
            closed,
            relay: Mutex::new(Some(relay)),
        })
    }

    /// Wait for the relay thread to end. Call after `shutdown`.
    pub fn join(&self) {
        if let Some(h) = self.relay.lock().expect("tap relay handle poisoned").take() {
            h.join().expect("tap relay thread panicked");
        }
    }
}

/// A body reached a site's inbox: close the `Wire` span of every record
/// of the frame it is.
fn arrived(shared: &TapShared, site: u32, body: &[u8]) {
    if !tracing() {
        return;
    }
    let now = now_ns();
    let Some(frame) = shared
        .in_flight
        .lock()
        .expect("tap wire map poisoned")
        .remove(&frame_key(body))
    else {
        return; // join traffic, sealed before the tap could see it
    };
    for (msg_no, seal_span) in frame.records {
        push_span(Span {
            kind: Kind::Wire,
            span: next_span_id(),
            parent: seal_span,
            site,
            start: frame.sealed_at,
            end: now,
            id: msg_no,
            aux: [0; 3],
        });
    }
}

/// What the timeline needs to know about one plaintext record.
fn classify(body: &[u8]) -> (&'static str, [u64; 3]) {
    let Ok(msg) = SdMessage::from_bytes(body) else {
        return ("undecodable", [MSG_OTHER, 0, 0]);
    };
    let name = msg.payload.name();
    let aux = match msg.payload {
        Payload::OwnerQuery { .. } => [MSG_OWNER_QUERY, msg.seq, 0],
        Payload::OwnerReply { .. } => [MSG_OWNER_REPLY, msg.in_reply_to.unwrap_or(0), 0],
        Payload::ApplyResult { .. } => [MSG_APPLY, msg.seq, 0],
        _ if BACKGROUND_KINDS.contains(&name) => [MSG_BACKGROUND, msg.seq, 0],
        _ => [MSG_OTHER, msg.seq, 0],
    };
    (name, aux)
}

impl Transport for Tap {
    fn local_addr(&self) -> PhysicalAddr {
        self.inner.local_addr()
    }

    fn send(&self, to: &PhysicalAddr, frame: Bytes) -> SdvmResult<()> {
        self.inner.send(to, frame)
    }

    fn install_drain_sealer(&self, sealer: Arc<dyn DrainSealer>) -> bool {
        self.inner.install_drain_sealer(Arc::new(TapSealer {
            inner: sealer,
            shared: self.shared.clone(),
            own: self.own.clone(),
            site: self.site,
        }))
    }

    fn send_plain(&self, to: &PhysicalAddr, dst: u32, body: Bytes) -> SdvmResult<()> {
        let (name, mut aux) = classify(&body);
        {
            let mut by_kind = self.own.by_kind.lock().expect("tap counters poisoned");
            let entry = by_kind.entry(name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += body.len() as u64;
        }
        if !tracing() {
            return self.inner.send_plain(to, dst, body);
        }
        let msg_no = self.shared.next_msg.fetch_add(1, Ordering::Relaxed);
        let span = next_span_id();
        let key = body.as_ptr() as usize;
        aux[2] = dst as u64;
        let start = now_ns();
        // Registered before the record enters the queue: the poller may
        // seal it before `send_plain` returns.
        self.own.queued.lock().expect("tap queue poisoned").insert(
            key,
            Queued {
                msg_no,
                enqueue_span: span,
            },
        );
        let result = self.inner.send_plain(to, dst, body);
        let end = now_ns();
        if result.is_err() {
            self.own
                .queued
                .lock()
                .expect("tap queue poisoned")
                .remove(&key);
        }
        push_span(Span {
            kind: Kind::Enqueue,
            span,
            parent: current_span(),
            site: self.site,
            start,
            end,
            id: msg_no,
            aux,
        });
        result
    }

    fn incoming(&self) -> Receiver<Bytes> {
        self.inbox.clone()
    }

    fn outbound_depths(&self) -> Vec<(String, usize)> {
        self.inner.outbound_depths()
    }

    fn outbound_retries(&self) -> Vec<(String, u64)> {
        self.inner.outbound_retries()
    }

    fn outbound_stalls(&self) -> u64 {
        self.inner.outbound_stalls()
    }

    fn peers_connected(&self) -> usize {
        self.inner.peers_connected()
    }

    fn driver_threads(&self) -> usize {
        self.inner.driver_threads()
    }

    fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.inner.shutdown();
    }
}
