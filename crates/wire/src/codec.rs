//! A compact, hand-rolled binary codec.
//!
//! Integers use LEB128 varints (most protocol integers are small); floats
//! are fixed 8-byte little-endian; byte strings and collections are
//! length-prefixed; `Option` and enums are tag-prefixed. Decoding is
//! total: any byte sequence either decodes or returns
//! [`SdvmError::Decode`] — it never panics (fuzz-tested below).

use bytes::{Bytes, BytesMut};
use sdvm_types::{
    Coord, FileHandle, GlobalAddress, LoadReport, ManagerId, MicrothreadId, PhysicalAddr,
    PlatformId, Priority, ProgramId, QueuePolicy, ReplicaSelector, ReplicationPolicy,
    SchedulingHint, SdvmError, SdvmResult, SiteDescriptor, SiteId, Value,
};

/// Sanity bound on decoded collection lengths: protects against
/// maliciously huge length prefixes (a 5-byte varint can claim 4 GiB).
pub const MAX_COLLECTION_LEN: usize = 16 * 1024 * 1024;

/// Serializer: appends wire-encoded data to a byte buffer.
///
/// Backed by [`BytesMut`] so encoding can continue an existing buffer —
/// the zero-copy message path seeds the buffer with framing and envelope
/// prefixes, encodes the message in place behind them, and freezes the
/// whole thing into one [`Bytes`] without ever re-copying the payload
/// (see [`crate::framing`] and the security manager).
#[derive(Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Continue writing into an existing buffer (appends after its
    /// current contents).
    pub fn from_buf(buf: BytesMut) -> Self {
        Self { buf }
    }

    /// Finish and take the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        Vec::from(self.buf)
    }

    /// Finish, returning the underlying buffer (prefix bytes from
    /// [`WireWriter::from_buf`] included).
    pub fn into_buf(self) -> BytesMut {
        self.buf
    }

    /// Current encoded length (including any [`WireWriter::from_buf`]
    /// prefix).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Write an unsigned LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                return;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Write a signed integer using zigzag + varint.
    pub fn put_svarint(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Write a fixed 8-byte little-endian float.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Write a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }
}

/// Deserializer: consumes wire-encoded data from a byte slice.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from the given slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless the whole input was consumed (catches trailing junk).
    pub fn expect_end(&self) -> SdvmResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SdvmError::Decode(format!(
                "{} trailing bytes",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> SdvmResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SdvmError::Decode(format!(
                "need {n} bytes, only {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one raw byte.
    pub fn get_u8(&mut self) -> SdvmResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read an unsigned LEB128 varint.
    pub fn get_varint(&mut self) -> SdvmResult<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(SdvmError::Decode("varint overflows u64".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(SdvmError::Decode("varint too long".into()));
            }
        }
    }

    /// Read a zigzag-encoded signed varint.
    pub fn get_svarint(&mut self) -> SdvmResult<i64> {
        let v = self.get_varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Read a fixed 8-byte little-endian float.
    pub fn get_f64(&mut self) -> SdvmResult<f64> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> SdvmResult<&'a [u8]> {
        let len = self.get_varint()? as usize;
        if len > MAX_COLLECTION_LEN {
            return Err(SdvmError::Decode(format!(
                "byte string of {len} exceeds cap"
            )));
        }
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> SdvmResult<&'a str> {
        std::str::from_utf8(self.get_bytes()?).map_err(|e| SdvmError::Decode(format!("utf8: {e}")))
    }

    /// Read a bool byte (strictly 0 or 1).
    pub fn get_bool(&mut self) -> SdvmResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SdvmError::Decode(format!("bool byte {b}"))),
        }
    }

    /// Read a collection length and sanity-check it.
    pub fn get_len(&mut self) -> SdvmResult<usize> {
        let len = self.get_varint()? as usize;
        if len > MAX_COLLECTION_LEN {
            return Err(SdvmError::Decode(format!(
                "collection of {len} exceeds cap"
            )));
        }
        Ok(len)
    }
}

/// Types that can be appended to a [`WireWriter`].
pub trait Encode {
    /// Append the wire encoding of `self`.
    fn encode(&self, w: &mut WireWriter);

    /// Convenience: encode into a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }
}

/// Types that can be parsed from a [`WireReader`].
pub trait Decode: Sized {
    /// Parse one value.
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self>;

    /// Convenience: parse from a slice, requiring full consumption.
    fn decode_from_slice(buf: &[u8]) -> SdvmResult<Self> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

macro_rules! varint_newtype {
    ($t:ty, $inner:ty, $ctor:expr) => {
        impl Encode for $t {
            fn encode(&self, w: &mut WireWriter) {
                w.put_varint(self.0 as u64);
            }
        }
        impl Decode for $t {
            fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
                let v = r.get_varint()?;
                let inner = <$inner>::try_from(v).map_err(|_| {
                    SdvmError::Decode(format!("{} out of range: {v}", stringify!($t)))
                })?;
                Ok($ctor(inner))
            }
        }
    };
}

varint_newtype!(SiteId, u32, SiteId);
varint_newtype!(ProgramId, u32, ProgramId);
varint_newtype!(PlatformId, u16, PlatformId);

impl Encode for u8 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(*self);
    }
}
impl Decode for u8 {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        r.get_u8()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(u64::from(*self));
    }
}
impl Decode for u32 {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        let v = r.get_varint()?;
        u32::try_from(v).map_err(|_| SdvmError::Decode(format!("u32 out of range: {v}")))
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(*self);
    }
}
impl Decode for u64 {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        r.get_varint()
    }
}

impl Encode for i64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_svarint(*self);
    }
}
impl Decode for i64 {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        r.get_svarint()
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f64(*self);
    }
}
impl Decode for f64 {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        r.get_f64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bool(*self);
    }
}
impl Decode for bool {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        r.get_bool()
    }
}

impl Encode for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }
}
impl Decode for String {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(r.get_str()?.to_owned())
    }
}

impl Encode for Bytes {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bytes(self);
    }
}
impl Decode for Bytes {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(Bytes::copy_from_slice(r.get_bytes()?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(SdvmError::Decode(format!("option tag {t}"))),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
}
impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        let len = r.get_len()?;
        // Avoid pre-allocating attacker-controlled lengths: grow as we parse.
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl Encode for Value {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bytes(self.bytes());
    }
}
impl Decode for Value {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(Value::from_bytes(Bytes::copy_from_slice(r.get_bytes()?)))
    }
}

impl Encode for GlobalAddress {
    fn encode(&self, w: &mut WireWriter) {
        self.home.encode(w);
        w.put_varint(self.local);
    }
}
impl Decode for GlobalAddress {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(GlobalAddress {
            home: SiteId::decode(r)?,
            local: r.get_varint()?,
        })
    }
}

impl Encode for MicrothreadId {
    fn encode(&self, w: &mut WireWriter) {
        self.program.encode(w);
        self.index.encode(w);
    }
}
impl Decode for MicrothreadId {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(MicrothreadId {
            program: ProgramId::decode(r)?,
            index: u32::decode(r)?,
        })
    }
}

impl Encode for FileHandle {
    fn encode(&self, w: &mut WireWriter) {
        self.site.encode(w);
        self.local.encode(w);
    }
}
impl Decode for FileHandle {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(FileHandle {
            site: SiteId::decode(r)?,
            local: u32::decode(r)?,
        })
    }
}

impl Encode for ManagerId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(*self as u8);
    }
}
impl Decode for ManagerId {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        let b = r.get_u8()?;
        ManagerId::from_u8(b).ok_or_else(|| SdvmError::Decode(format!("manager id {b}")))
    }
}

impl Encode for PhysicalAddr {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            PhysicalAddr::Mem(n) => {
                w.put_u8(0);
                w.put_varint(*n);
            }
            PhysicalAddr::Tcp(s) => {
                w.put_u8(1);
                w.put_str(s);
            }
        }
    }
}
impl Decode for PhysicalAddr {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        match r.get_u8()? {
            0 => Ok(PhysicalAddr::Mem(r.get_varint()?)),
            1 => Ok(PhysicalAddr::Tcp(r.get_str()?.to_owned())),
            t => Err(SdvmError::Decode(format!("physical addr tag {t}"))),
        }
    }
}

impl Encode for SiteDescriptor {
    fn encode(&self, w: &mut WireWriter) {
        self.site.encode(w);
        self.addr.encode(w);
        self.platform.encode(w);
        w.put_f64(self.speed);
        w.put_bool(self.code_distribution);
        w.put_varint(self.incarnation);
    }
}
impl Decode for SiteDescriptor {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(SiteDescriptor {
            site: SiteId::decode(r)?,
            addr: PhysicalAddr::decode(r)?,
            platform: PlatformId::decode(r)?,
            speed: r.get_f64()?,
            code_distribution: r.get_bool()?,
            incarnation: r.get_varint()?,
        })
    }
}

impl Encode for LoadReport {
    fn encode(&self, w: &mut WireWriter) {
        self.queued_frames.encode(w);
        self.busy_slots.encode(w);
        self.programs.encode(w);
        w.put_varint(self.memory_bytes);
        w.put_varint(self.epoch);
    }
}
impl Decode for LoadReport {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(LoadReport {
            queued_frames: u32::decode(r)?,
            busy_slots: u32::decode(r)?,
            programs: u32::decode(r)?,
            memory_bytes: r.get_varint()?,
            epoch: r.get_varint()?,
        })
    }
}

/// Vivaldi coordinate (wire v9): five little-endian f64s.
impl Encode for Coord {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f64(self.x);
        w.put_f64(self.y);
        w.put_f64(self.z);
        w.put_f64(self.h);
        w.put_f64(self.err);
    }
}
impl Decode for Coord {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(Coord {
            x: r.get_f64()?,
            y: r.get_f64()?,
            z: r.get_f64()?,
            h: r.get_f64()?,
            err: r.get_f64()?,
        })
    }
}

impl Encode for Priority {
    fn encode(&self, w: &mut WireWriter) {
        w.put_svarint(i64::from(self.0));
    }
}
impl Decode for Priority {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        let v = r.get_svarint()?;
        let v = i32::try_from(v).map_err(|_| SdvmError::Decode(format!("priority {v}")))?;
        Ok(Priority(v))
    }
}

impl Encode for SchedulingHint {
    fn encode(&self, w: &mut WireWriter) {
        self.priority.encode(w);
        w.put_bool(self.sticky);
    }
}
impl Decode for SchedulingHint {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        Ok(SchedulingHint {
            priority: Priority::decode(r)?,
            sticky: r.get_bool()?,
        })
    }
}

impl Encode for QueuePolicy {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(match self {
            QueuePolicy::Fifo => 0,
            QueuePolicy::Lifo => 1,
            QueuePolicy::Priority => 2,
        });
    }
}
impl Decode for QueuePolicy {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        match r.get_u8()? {
            0 => Ok(QueuePolicy::Fifo),
            1 => Ok(QueuePolicy::Lifo),
            2 => Ok(QueuePolicy::Priority),
            t => Err(SdvmError::Decode(format!("queue policy tag {t}"))),
        }
    }
}

impl Encode for ReplicaSelector {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ReplicaSelector::All => w.put_u8(0),
            ReplicaSelector::Thread(t) => {
                w.put_u8(1);
                w.put_varint(u64::from(*t));
            }
        }
    }
}
impl Decode for ReplicaSelector {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        match r.get_u8()? {
            0 => Ok(ReplicaSelector::All),
            1 => Ok(ReplicaSelector::Thread(u32::decode(r)?)),
            t => Err(SdvmError::Decode(format!("replica selector tag {t}"))),
        }
    }
}

impl Encode for ReplicationPolicy {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ReplicationPolicy::Off => w.put_u8(0),
            ReplicationPolicy::Replicate { k, selector } => {
                w.put_u8(1);
                w.put_u8(*k);
                selector.encode(w);
            }
            ReplicationPolicy::Hedge { delay, selector } => {
                w.put_u8(2);
                w.put_varint(delay.as_micros() as u64);
                selector.encode(w);
            }
        }
    }
}
impl Decode for ReplicationPolicy {
    fn decode(r: &mut WireReader<'_>) -> SdvmResult<Self> {
        match r.get_u8()? {
            0 => Ok(ReplicationPolicy::Off),
            1 => Ok(ReplicationPolicy::Replicate {
                k: r.get_u8()?,
                selector: ReplicaSelector::decode(r)?,
            }),
            2 => Ok(ReplicationPolicy::Hedge {
                delay: std::time::Duration::from_micros(r.get_varint()?),
                selector: ReplicaSelector::decode(r)?,
            }),
            t => Err(SdvmError::Decode(format!("replication policy tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.encode_to_vec();
        let back = T::decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn varint_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut w = WireWriter::new();
            w.put_varint(v);
            let bytes = w.finish();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn svarint_edges() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut w = WireWriter::new();
            w.put_svarint(v);
            let bytes = w.finish();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.get_svarint().unwrap(), v);
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 10 bytes of continuation describes > 64 bits.
        let bad = [0xffu8; 10];
        let mut r = WireReader::new(&bad);
        assert!(r.get_varint().is_err());
    }

    #[test]
    fn truncated_inputs_error() {
        let mut w = WireWriter::new();
        w.put_str("hello");
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(r.get_str().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn roundtrip_core_types() {
        roundtrip(SiteId(42));
        roundtrip(ProgramId(7));
        roundtrip(PlatformId(3));
        roundtrip(GlobalAddress::new(SiteId(2), 99));
        roundtrip(MicrothreadId::new(ProgramId(1), 5));
        roundtrip(FileHandle {
            site: SiteId(1),
            local: 3,
        });
        roundtrip(ManagerId::Scheduling);
        roundtrip(PhysicalAddr::Mem(17));
        roundtrip(PhysicalAddr::Tcp("10.0.0.1:4444".into()));
        roundtrip(Priority(-3));
        roundtrip(SchedulingHint {
            priority: Priority(9),
            sticky: true,
        });
        roundtrip(QueuePolicy::Lifo);
        roundtrip(ReplicationPolicy::Off);
        roundtrip(ReplicationPolicy::Replicate {
            k: 3,
            selector: ReplicaSelector::Thread(2),
        });
        roundtrip(ReplicationPolicy::Hedge {
            delay: std::time::Duration::from_micros(12_345),
            selector: ReplicaSelector::All,
        });
        roundtrip(Value::from_u64_slice(&[1, 2, 3]));
        roundtrip(Some(SiteId(1)));
        roundtrip(Option::<SiteId>::None);
        roundtrip(vec![
            GlobalAddress::new(SiteId(1), 1),
            GlobalAddress::new(SiteId(2), 2),
        ]);
        roundtrip((SiteId(1), 77u64));
    }

    #[test]
    fn roundtrip_descriptor_and_load() {
        roundtrip(SiteDescriptor {
            site: SiteId(4),
            addr: PhysicalAddr::Tcp("h:1".into()),
            platform: PlatformId(2),
            speed: 1.5,
            code_distribution: true,
            incarnation: 6,
        });
        roundtrip(LoadReport {
            queued_frames: 3,
            busy_slots: 2,
            programs: 1,
            memory_bytes: 4096,
            epoch: 12,
        });
    }

    #[test]
    fn huge_length_prefix_rejected() {
        let mut w = WireWriter::new();
        w.put_varint(u64::MAX / 2); // absurd collection length
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(r.get_len().is_err());
        let mut r2 = WireReader::new(&bytes);
        assert!(r2.get_bytes().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = SiteId(1).encode_to_vec();
        bytes.push(0);
        assert!(SiteId::decode_from_slice(&bytes).is_err());
    }

    #[test]
    fn decode_never_panics_on_noise() {
        // Fuzz-ish: deterministic pseudo-random byte soup must decode or
        // error, never panic.
        let mut state = 0x9e3779b97f4a7c15u64;
        for len in 0..200usize {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (state >> 33) as u8;
            }
            let _ = SiteDescriptor::decode_from_slice(&buf);
            let _ = LoadReport::decode_from_slice(&buf);
            let _ = Vec::<GlobalAddress>::decode_from_slice(&buf);
            let _ = String::decode_from_slice(&buf);
        }
    }
}
