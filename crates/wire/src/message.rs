//! The SDMessage envelope (paper §4, message manager).
//!
//! "All communication is done between managers only, so a message contains
//! the source's and the target's site ids and manager ids apart from other
//! administrational information and the payload data itself."

use crate::codec::{Decode, Encode, WireReader, WireWriter};
use crate::payload::Payload;
use sdvm_types::{ManagerId, SdvmResult, SiteId};

/// Wire-format version; bumped on incompatible changes.
///
/// History: v1 = initial format; v2 = `src_incarnation` added to the
/// envelope (zombie fencing) and membership payloads learned incarnation
/// fields; v3 = causal [`TraceContext`] (origin site + 32-bit trace id)
/// added to the envelope so one microframe's migration is stitchable
/// across sites; v4 = attraction memory v2 — objects carry a monotonic
/// version, `MemRead`/`MemValue` grew a `replica` mode, `MemMissing`
/// carries a forwarding hint, and `ReplicaInvalidate` joined the memory
/// family; v5 = batch-sealed security records — the envelope layer may
/// seal a whole coalesced writer batch under one nonce + MAC (security
/// tag 3). The message encoding itself is unchanged from v4, but the
/// version byte fences mixed clusters: a v4 daemon cannot open batch
/// records, so it must reject v5 traffic loudly rather than drop
/// whole batches on the floor; v6 = replicated/hedged execution —
/// `ProgramRegister` carries the program's `ReplicationPolicy`, and the
/// `ReplicaTask`/`ReplicaDone` payloads carry a replica id + generation
/// so escrow votes and hedge duplicates are fenced per dispatch round.
/// A v5 daemon would treat replica traffic as unknown payloads, so
/// mixed clusters are fenced at the version byte; v7 = ops plane —
/// the `MetricsSummary` payload (per-site counter/histogram digest)
/// piggybacks on heartbeat fan-out so any site can serve cluster-wide
/// rollups. A v6 daemon would reply `Error` to every digest and spam
/// the sender, so mixed clusters are fenced at the version byte;
/// v8 = planned departure — the `SiteDraining` membership gossip, the
/// `DeadLetterSweep` handoff, and the pause-free
/// `SnapshotCollectIncremental` checkpoint round. A v7 daemon would
/// treat the draining gossip as an unknown payload and keep granting
/// help and targeting backup buddies at the leaver, so mixed clusters
/// are fenced at the version byte; v9 = proximity routing — the
/// `Heartbeat`, `ProbeRequest` and `ProbeAck` payloads grew an optional
/// Vivaldi network coordinate (`Coord`: 3-D point + height + fit
/// error) piggybacked on traffic that already flows, so sites learn
/// pairwise RTT predictions without extra probes. A v8 daemon would
/// mis-parse the extra option byte in every heartbeat, so mixed
/// clusters are fenced at the version byte.
/// Older frames are rejected loudly, not decoded best-effort.
pub const WIRE_VERSION: u8 = 9;

/// Causal trace context riding every [`SdMessage`] (wire v3).
///
/// Identifies the *logical operation* a message belongs to — typically one
/// microframe's career — so telemetry on different sites can stitch the
/// same operation's spans together without coordination. The id space is
/// partitioned by `origin` (the site that minted the id), so two sites can
/// mint ids concurrently without collision. Encoded as two varints
/// (origin site id, then the 32-bit trace id).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceContext {
    /// Site that minted the trace id (partition of the id space).
    pub origin: SiteId,
    /// Trace id, unique within `origin`. 0 with origin 0 means "none".
    pub id: u32,
}

impl TraceContext {
    /// The absent trace context: untraced administrative traffic.
    pub const NONE: TraceContext = TraceContext {
        origin: SiteId(0),
        id: 0,
    };

    /// Whether this context actually names a trace.
    pub fn is_some(&self) -> bool {
        *self != TraceContext::NONE
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        TraceContext::NONE
    }
}

impl Encode for TraceContext {
    fn encode(&self, w: &mut WireWriter) {
        self.origin.encode(w);
        w.put_varint(self.id as u64);
    }
}

impl Decode for TraceContext {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        let origin = SiteId::decode(r)?;
        let id = r.get_varint()?;
        let id = u32::try_from(id)
            .map_err(|_| sdvm_types::SdvmError::Decode(format!("trace id {id} overflows u32")))?;
        Ok(TraceContext { origin, id })
    }
}

/// A manager-to-manager message between sites.
#[derive(Clone, PartialEq, Debug)]
pub struct SdMessage {
    /// Sending site (logical id).
    pub src_site: SiteId,
    /// Incarnation of the sending site (0 = unknown/not yet signed on).
    /// Receivers fence messages whose incarnation is at or below a
    /// recorded death of `src_site` instead of processing them.
    pub src_incarnation: u64,
    /// Sending manager.
    pub src_manager: ManagerId,
    /// Receiving site (logical id).
    pub dst_site: SiteId,
    /// Receiving manager.
    pub dst_manager: ManagerId,
    /// Sender-local sequence number; replies echo it in `in_reply_to` so
    /// blocked requesters can be woken.
    pub seq: u64,
    /// Sequence number of the request this message answers, if any.
    pub in_reply_to: Option<u64>,
    /// Causal trace context ([`TraceContext::NONE`] for untraced traffic).
    /// Replies inherit the request's context.
    pub trace: TraceContext,
    /// The payload.
    pub payload: Payload,
}

impl SdMessage {
    /// Build a fresh (non-reply) message.
    pub fn new(
        src_site: SiteId,
        src_manager: ManagerId,
        dst_site: SiteId,
        dst_manager: ManagerId,
        seq: u64,
        payload: Payload,
    ) -> Self {
        Self {
            src_site,
            src_incarnation: 0,
            src_manager,
            dst_site,
            dst_manager,
            seq,
            in_reply_to: None,
            trace: TraceContext::NONE,
            payload,
        }
    }

    /// Build the reply to `self`, swapping the endpoints and echoing the
    /// sequence number.
    pub fn reply(&self, seq: u64, src_manager: ManagerId, payload: Payload) -> SdMessage {
        SdMessage {
            src_site: self.dst_site,
            src_incarnation: 0,
            src_manager,
            dst_site: self.src_site,
            dst_manager: self.src_manager,
            seq,
            in_reply_to: Some(self.seq),
            trace: self.trace,
            payload,
        }
    }

    /// Serialize to bytes (including the version byte).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(64);
        self.encode_into(&mut w);
        w.finish()
    }

    /// Serialize (version byte + fields) onto an existing writer: the
    /// zero-copy path, where the writer's buffer already holds the frame
    /// prefix slot and any security-envelope header.
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.put_u8(WIRE_VERSION);
        self.encode(w);
    }

    /// Parse from bytes produced by [`SdMessage::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> SdvmResult<Self> {
        let mut r = WireReader::new(buf);
        let ver = r.get_u8()?;
        if ver != WIRE_VERSION {
            return Err(sdvm_types::SdvmError::Decode(format!(
                "wire version {ver}, expected {WIRE_VERSION}"
            )));
        }
        let m = SdMessage::decode(&mut r)?;
        r.expect_end()?;
        Ok(m)
    }
}

impl Encode for SdMessage {
    fn encode(&self, w: &mut WireWriter) {
        self.src_site.encode(w);
        w.put_varint(self.src_incarnation);
        self.src_manager.encode(w);
        self.dst_site.encode(w);
        self.dst_manager.encode(w);
        w.put_varint(self.seq);
        self.in_reply_to.encode(w);
        self.trace.encode(w);
        self.payload.encode(w);
    }
}

impl Decode for SdMessage {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(SdMessage {
            src_site: SiteId::decode(r)?,
            src_incarnation: r.get_varint()?,
            src_manager: ManagerId::decode(r)?,
            dst_site: SiteId::decode(r)?,
            dst_manager: ManagerId::decode(r)?,
            seq: r.get_varint()?,
            in_reply_to: Option::decode(r)?,
            trace: TraceContext::decode(r)?,
            payload: Payload::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SdMessage {
        SdMessage::new(
            SiteId(1),
            ManagerId::Scheduling,
            SiteId(2),
            ManagerId::Scheduling,
            7,
            Payload::CantHelp {},
        )
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let back = SdMessage::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn incarnation_survives_roundtrip() {
        let mut m = sample();
        m.src_incarnation = 7;
        let back = SdMessage::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back.src_incarnation, 7);
    }

    #[test]
    fn reply_swaps_endpoints_and_links_seq() {
        let m = sample();
        let r = m.reply(99, ManagerId::Scheduling, Payload::Ping { token: 1 });
        assert_eq!(r.src_site, SiteId(2));
        assert_eq!(r.dst_site, SiteId(1));
        assert_eq!(r.dst_manager, ManagerId::Scheduling);
        assert_eq!(r.in_reply_to, Some(7));
        assert_eq!(r.seq, 99);
    }

    #[test]
    fn trace_context_survives_roundtrip_and_reply() {
        let mut m = sample();
        m.trace = TraceContext {
            origin: SiteId(3),
            id: 0xDEAD,
        };
        let back = SdMessage::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back.trace, m.trace);
        // Replies inherit the request's context (causal propagation).
        let r = back.reply(99, ManagerId::Scheduling, Payload::Ping { token: 1 });
        assert_eq!(r.trace, m.trace);
    }

    #[test]
    fn trace_id_overflow_rejected() {
        let mut w = WireWriter::with_capacity(16);
        SiteId(1).encode(&mut w);
        w.put_varint(u64::from(u32::MAX) + 1);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(TraceContext::decode(&mut r).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 99;
        assert!(SdMessage::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(SdMessage::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0xab);
        assert!(SdMessage::from_bytes(&bytes).is_err());
    }
}
