//! The security manager (paper §4): the encryption layer between the
//! message manager and the network manager.
//!
//! Outgoing serialized SDMessages are sealed per peer; incoming traffic
//! is verified and decrypted. Keys derive from the cluster's *start
//! password*. On trusted ("insular") clusters the manager is disabled and
//! traffic flows in plaintext — the performance difference is experiment
//! E5.
//!
//! Wire envelope (outside the SDMessage encoding):
//!
//! ```text
//! [0x00 | plaintext SDMessage]                      — security disabled
//! [0x01 | src_site u32 LE | sealed SDMessage]       — peer channel
//! [0x02 | salt 16 bytes   | sealed SDMessage]       — join channel
//! [0x03 | src_site u32 LE | sealed batch]           — batch-sealed (wire v5)
//! ```
//!
//! The *join channel* covers sign-on traffic, exchanged before the peer
//! relationship (and possibly the local site id) exists: a fresh key is
//! derived per message from the master key and a random salt. Join
//! messages are authenticated by password but (unlike peer channels)
//! carry no replay protection; they are idempotent membership requests.
//!
//! The *batch-sealed* record amortizes sealing across a coalesced writer
//! batch: the TCP transport queues plaintext records and hands whole
//! runs for one destination back to [`WriterSealer`] at drain time, so a
//! burst of N messages pays one nonce, one keystream setup and one MAC
//! instead of N. The sealed plaintext is `count varint | (len varint |
//! SDMessage bytes)*`; the batch shares the peer channel's key, counter
//! space and replay window (one counter per batch), so RFC 2401-style
//! anti-replay semantics carry over unchanged.

use crate::config::SiteConfig;
use crate::site::SiteInner;
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use rand::RngExt;
use sdvm_crypto::channel::SecureChannel;
use sdvm_crypto::KeyStore;
use sdvm_crypto::{kdf, NONCE_PREFIX_LEN};
use sdvm_types::{SdvmError, SdvmResult, SiteId};
use sdvm_wire::{begin_frame, finish_frame, SdMessage, WireReader, WireWriter};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

const TAG_PLAIN: u8 = 0;
const TAG_PEER: u8 = 1;
const TAG_JOIN: u8 = 2;
/// Batch-sealed record (wire v5): a whole coalesced writer batch under
/// one nonce + MAC. Same header shape as [`TAG_PEER`].
const TAG_BATCH: u8 = 3;
const JOIN_SALT_LEN: usize = 16;
/// Envelope header length for peer/batch records: tag + src u32 LE.
const PEER_HDR_LEN: usize = 5;

/// The security manager of one site.
pub struct SecurityManager {
    inner: Option<Mutex<Keys>>,
    /// Capacity hint for the next outgoing frame, learned from the last
    /// one: right-sizing the single send buffer up front avoids growth
    /// reallocations mid-encode (message sizes are strongly clustered).
    frame_cap: AtomicUsize,
}

struct Keys {
    master: [u8; 32],
    store: KeyStore,
}

impl SecurityManager {
    /// Build from the site config; `None` password disables encryption.
    pub fn new(config: &SiteConfig) -> Self {
        let inner = config.password.as_ref().map(|pw| {
            let master = kdf::master_key(pw);
            Mutex::new(Keys {
                master,
                store: KeyStore::from_master(0, master),
            })
        });
        SecurityManager {
            inner,
            frame_cap: AtomicUsize::new(128),
        }
    }

    /// Whether encryption is active.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Re-key after the site's logical id was assigned.
    pub fn rekey(&self, id: SiteId) {
        if let Some(m) = &self.inner {
            let mut k = m.lock();
            let master = k.master;
            k.store = KeyStore::from_master(id.0, master);
        }
    }

    /// Drop channel state for a departed peer.
    pub fn forget(&self, peer: SiteId) {
        if let Some(m) = &self.inner {
            m.lock().store.forget(peer.0);
        }
    }

    /// Serialize `msg` alone — no envelope, no frame prefix: the
    /// plaintext record a drain-time sealer wraps later. This is all the
    /// send path pays up front when the transport seals at drain time.
    pub fn encode_plain(&self, msg: &SdMessage) -> Bytes {
        let cap = self.frame_cap.load(Ordering::Relaxed);
        let mut w = WireWriter::from_buf(BytesMut::with_capacity(cap));
        msg.encode_into(&mut w);
        let buf = w.into_buf();
        self.frame_cap.store(buf.len() + 32, Ordering::Relaxed);
        buf.freeze()
    }

    /// Seal one plaintext record into a complete per-frame wire frame
    /// (the drain-time equivalent of [`SecurityManager::seal_frame`] for
    /// an already-serialized body). Runs on the transport's writer
    /// thread via [`WriterSealer`].
    pub fn seal_plain_record(&self, site: &SiteInner, dst: u32, body: &[u8]) -> SdvmResult<Bytes> {
        let t0 = std::time::Instant::now();
        let Some(m) = &self.inner else {
            let mut buf = begin_frame(body.len() + 8);
            buf.put_u8(TAG_PLAIN);
            buf.extend_from_slice(body);
            return finish_frame(buf);
        };
        let mut buf = begin_frame(body.len() + 64);
        buf.put_u8(TAG_PEER);
        buf.extend_from_slice(&site.my_id().0.to_le_bytes());
        let seal_start = buf.len();
        buf.resize(seal_start + NONCE_PREFIX_LEN, 0);
        buf.extend_from_slice(body);
        m.lock().store.seal_for_in_place(dst, &mut buf, seal_start);
        let frame = finish_frame(buf)?;
        site.metrics.seal_us.observe_duration(t0.elapsed());
        Ok(frame)
    }

    /// Seal a coalesced run of plaintext records for one destination as
    /// a single batch record: one nonce, one keystream, one MAC for the
    /// whole run. Runs on the transport's writer thread via
    /// [`WriterSealer`]; the writer bounds runs (≤256 records, ~1 MiB)
    /// through its drain caps.
    pub fn seal_batch_record(
        &self,
        site: &SiteInner,
        dst: u32,
        bodies: &[Bytes],
    ) -> SdvmResult<Bytes> {
        let Some(m) = &self.inner else {
            return Err(SdvmError::Crypto(
                "batch sealing requires an active security manager".into(),
            ));
        };
        let my = site.my_id();
        if !my.is_valid() {
            return Err(SdvmError::Crypto("batch sealing before sign-on".into()));
        }
        let t0 = std::time::Instant::now();
        let total: usize = bodies.iter().map(|b| b.len() + 5).sum();
        let mut buf = begin_frame(total + 64);
        buf.put_u8(TAG_BATCH);
        buf.extend_from_slice(&my.0.to_le_bytes());
        let seal_start = buf.len();
        buf.resize(seal_start + NONCE_PREFIX_LEN, 0);
        let mut w = WireWriter::from_buf(buf);
        w.put_varint(bodies.len() as u64);
        for body in bodies {
            w.put_bytes(body);
        }
        let mut buf = w.into_buf();
        m.lock().store.seal_for_in_place(dst, &mut buf, seal_start);
        let frame = finish_frame(buf)?;
        site.metrics.seal_us.observe_duration(t0.elapsed());
        Ok(frame)
    }

    /// Encode, seal and frame an outgoing message for `dst` in one
    /// buffer: `[len u32 BE | envelope tag (+src/salt) | nonce | body |
    /// tag]`, with encryption applied in place. This is the transport's
    /// zero-copy send path; [`SecurityManager::seal_plain_record`] serves
    /// callers holding pre-serialized bytes.
    pub fn seal_frame(&self, site: &SiteInner, dst: SiteId, msg: &SdMessage) -> SdvmResult<Bytes> {
        let mut buf = begin_frame(self.frame_cap.load(Ordering::Relaxed));
        let Some(m) = &self.inner else {
            buf.put_u8(TAG_PLAIN);
            let mut w = WireWriter::from_buf(buf);
            msg.encode_into(&mut w);
            return self.finish_learning(w.into_buf());
        };
        let mut k = m.lock();
        if !dst.is_valid() || !site.my_id().is_valid() {
            // Join channel: fresh salted key per message.
            let mut salt = [0u8; JOIN_SALT_LEN];
            rand::rng().fill(&mut salt[..]);
            buf.put_u8(TAG_JOIN);
            buf.extend_from_slice(&salt);
            let seal_start = buf.len();
            buf.resize(seal_start + NONCE_PREFIX_LEN, 0);
            let mut w = WireWriter::from_buf(buf);
            msg.encode_into(&mut w);
            let mut buf = w.into_buf();
            let key = join_key(&k.master, &salt);
            SecureChannel::new(&key).seal_in_place(&mut buf, seal_start);
            return self.finish_learning(buf);
        }
        buf.put_u8(TAG_PEER);
        buf.extend_from_slice(&site.my_id().0.to_le_bytes());
        let seal_start = buf.len();
        buf.resize(seal_start + NONCE_PREFIX_LEN, 0);
        let mut w = WireWriter::from_buf(buf);
        msg.encode_into(&mut w);
        let mut buf = w.into_buf();
        k.store.seal_for_in_place(dst.0, &mut buf, seal_start);
        self.finish_learning(buf)
    }

    /// Finish a frame and remember its size as the next capacity hint.
    fn finish_learning(&self, buf: bytes::BytesMut) -> SdvmResult<Bytes> {
        let frame = finish_frame(buf)?;
        self.frame_cap.store(frame.len() + 32, Ordering::Relaxed);
        Ok(frame)
    }

    /// Open an incoming envelope *in place*: verify + decrypt within the
    /// transport's own receive buffer and return a view over the
    /// plaintext record(s). Taking `raw` by value lets the buffer be
    /// reclaimed without a copy when the transport handed over its only
    /// reference (the common case — the TCP reader allocates per frame).
    pub fn open_traffic(&self, raw: Bytes) -> SdvmResult<OpenedTraffic> {
        let mut buf = match raw.try_into_mut() {
            Ok(b) => b,
            Err(raw) => BytesMut::from(&raw[..]),
        };
        if buf.is_empty() {
            return Err(SdvmError::Crypto("empty envelope".into()));
        }
        let tag = buf[0];
        match (tag, &self.inner) {
            (TAG_PLAIN, None) => Ok(OpenedTraffic {
                body: 1..buf.len(),
                buf,
                batch: false,
            }),
            (TAG_PLAIN, Some(_)) => Err(SdvmError::Crypto(
                "plaintext rejected: security manager active".into(),
            )),
            (_, None) => Err(SdvmError::Crypto(
                "sealed traffic but security disabled".into(),
            )),
            (TAG_PEER | TAG_BATCH, Some(m)) => {
                if buf.len() < PEER_HDR_LEN {
                    return Err(SdvmError::Crypto("short peer envelope".into()));
                }
                let mut src_bytes = [0u8; PEER_HDR_LEN - 1];
                src_bytes.copy_from_slice(&buf[1..PEER_HDR_LEN]);
                let src = u32::from_le_bytes(src_bytes);
                let body = m
                    .lock()
                    .store
                    .open_from_in_place(src, &mut buf, PEER_HDR_LEN)
                    .map_err(|e| SdvmError::Crypto(e.to_string()))?;
                Ok(OpenedTraffic {
                    buf,
                    body,
                    batch: tag == TAG_BATCH,
                })
            }
            (TAG_JOIN, Some(m)) => {
                if buf.len() < 1 + JOIN_SALT_LEN {
                    return Err(SdvmError::Crypto("short join envelope".into()));
                }
                let key = join_key(&m.lock().master, &buf[1..1 + JOIN_SALT_LEN]);
                let body = SecureChannel::new(&key)
                    .open_in_place(&mut buf, 1 + JOIN_SALT_LEN)
                    .map_err(|e| SdvmError::Crypto(e.to_string()))?;
                Ok(OpenedTraffic {
                    buf,
                    body,
                    batch: false,
                })
            }
            _ => Err(SdvmError::Crypto(format!("unknown envelope tag {tag}"))),
        }
    }
}

/// A verified, decrypted incoming envelope: plaintext decrypted in place
/// inside the transport's receive buffer, viewed through
/// [`OpenedTraffic::records`] without further copying.
pub struct OpenedTraffic {
    buf: BytesMut,
    body: Range<usize>,
    batch: bool,
}

impl OpenedTraffic {
    /// Whether this envelope was a batch-sealed record.
    pub fn is_batch(&self) -> bool {
        self.batch
    }

    /// Iterate the serialized SDMessage record(s) inside: exactly one
    /// for per-frame envelopes, the declared count for batch records
    /// (parsed lazily; a malformed interior surfaces as an `Err` item
    /// and ends iteration).
    pub fn records(&self) -> Records<'_> {
        let body = &self.buf[self.body.clone()];
        if self.batch {
            Records {
                single: None,
                batch: Some((WireReader::new(body), None)),
            }
        } else {
            Records {
                single: Some(body),
                batch: None,
            }
        }
    }
}

/// Iterator over the records of an [`OpenedTraffic`].
pub struct Records<'a> {
    single: Option<&'a [u8]>,
    /// Batch cursor: the reader plus how many records remain (`None`
    /// until the leading count varint has been parsed).
    batch: Option<(WireReader<'a>, Option<usize>)>,
}

impl<'a> Iterator for Records<'a> {
    type Item = SdvmResult<&'a [u8]>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(rec) = self.single.take() {
            return Some(Ok(rec));
        }
        // Take the cursor out; it is only put back after a successful
        // record, so any `Err` item terminates the iteration.
        let (mut reader, remaining) = self.batch.take()?;
        let n = match remaining {
            Some(n) => n,
            None => match reader.get_len() {
                Ok(n) => n,
                Err(e) => return Some(Err(e)),
            },
        };
        if n == 0 {
            if reader.remaining() != 0 {
                return Some(Err(SdvmError::Decode(
                    "trailing bytes after batch records".into(),
                )));
            }
            return None;
        }
        match reader.get_bytes() {
            Ok(rec) => {
                self.batch = Some((reader, Some(n - 1)));
                Some(Ok(rec))
            }
            Err(e) => Some(Err(e)),
        }
    }
}

/// Bridges the transport's writer threads back to the security manager:
/// the [`sdvm_net::DrainSealer`] installed on transports that seal at
/// drain time. Holds the site weakly — the transport outlives site
/// shutdown in some tests, and a strong reference would cycle
/// (`SiteInner` owns the transport).
pub struct WriterSealer {
    site: Weak<SiteInner>,
}

impl WriterSealer {
    /// Hook the given site's security manager up for drain-time sealing.
    pub fn new(site: &Arc<SiteInner>) -> Arc<Self> {
        Arc::new(WriterSealer {
            site: Arc::downgrade(site),
        })
    }

    fn site(&self) -> SdvmResult<Arc<SiteInner>> {
        self.site
            .upgrade()
            .ok_or_else(|| SdvmError::Transport("site shut down".into()))
    }
}

impl sdvm_net::DrainSealer for WriterSealer {
    fn seal_one(&self, dst: u32, body: &[u8]) -> SdvmResult<Bytes> {
        let site = self.site()?;
        site.security.seal_plain_record(&site, dst, body)
    }

    fn seal_batch(&self, dst: u32, bodies: &[Bytes]) -> SdvmResult<Bytes> {
        let site = self.site()?;
        site.security.seal_batch_record(&site, dst, bodies)
    }
}

fn join_key(master: &[u8; 32], salt: &[u8]) -> [u8; 32] {
    let mut info = Vec::with_capacity(5 + salt.len());
    info.extend_from_slice(b"join:");
    info.extend_from_slice(salt);
    let mut key = [0u8; 32];
    kdf::expand(master, &info, &mut key);
    key
}
