//! The SDVM wire format.
//!
//! All inter-site communication is manager-to-manager *SDMessages* (paper
//! §4, Fig. 6): a message carries source/target site ids and manager ids,
//! administrational data (sequence numbers for request/response
//! correlation) and a typed payload. This crate defines
//!
//! - a small binary codec ([`codec`]: LEB128 varints, length-prefixed
//!   byte strings, tagged options/enums),
//! - the [`SdMessage`] envelope and every protocol [`Payload`],
//! - the serialized form of a microframe ([`WireFrame`]) used for help
//!   replies, relocation and checkpoints,
//! - stream framing for the TCP transport ([`framing`]).
//!
//! The format is deliberately hand-rolled (no serde): the SDMessage format
//! is itself part of the system under reproduction, and the codec is
//! exercised by unit, property and fuzz-style tests below.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod framing;
pub mod message;
pub mod payload;

pub use codec::{Decode, Encode, WireReader, WireWriter};
pub use framing::{
    begin_frame, finish_frame, frame_bytes, read_frame, write_frame, FrameRead, FrameReader,
    FRAME_PREFIX_LEN, MAX_FRAME_LEN,
};
pub use message::{SdMessage, TraceContext, WIRE_VERSION};
pub use payload::{Payload, WireFrame, WireMemObject, WireMetricsSummary, WireSend};
#[doc(hidden)]
pub use sdvm_types::SdvmResult;
