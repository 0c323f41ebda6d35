//! Core vocabulary of the SDVM: identifiers, addresses, values, errors,
//! the configuration enums and the scheduling policies (queue order,
//! help-target choice, Vivaldi coordinates) shared by the runtime
//! (`sdvm-core`) and the discrete-event simulator (`sdvm-sim`).
//!
//! The SDVM (Self Distributing Virtual Machine, Haase/Eschmann/Waldschmidt,
//! IPPS 2005) connects *sites* (machines running the SDVM daemon) into one
//! parallel machine. Programs are split into *microthreads* (code fragments)
//! fired by *microframes* (argument containers); both are addressed through
//! a global, COMA-style *attraction memory*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coord;
pub mod error;
pub mod ids;
pub mod info;
pub mod policy;
pub mod value;

pub use coord::{Coord, VivaldiState};
pub use error::{SdvmError, SdvmResult};
pub use ids::{
    FileHandle, GlobalAddress, ManagerId, MicrothreadId, PhysicalAddr, PlatformId, ProgramId,
    SiteId,
};
pub use info::{LoadReport, SiteDescriptor};
pub use policy::{
    pick_help_target, rank_by_proximity, Candidate, FailurePolicy, IdAllocStrategy, Priority,
    QueuePolicy, ReplicaSelector, ReplicationPolicy, SchedulingHint,
};
pub use value::Value;
