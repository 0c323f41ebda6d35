//! The SDVM's managers (paper §4, Fig. 3).
//!
//! Execution layer: [`processing`], [`scheduling`], [`code`], [`memory`]
//! (attraction memory), [`io`]. Maintenance layer: [`cluster`],
//! [`program`], [`site_mgr`], [`security`]. Communication layer: the
//! message manager lives on [`crate::site::SiteInner`] (send/dispatch),
//! the network manager is the `sdvm-net` transport. [`backup`] implements
//! the crash-management store (\[4\] in the paper).

pub mod backup;
pub mod cluster;
pub mod code;
pub mod deadletter;
pub mod io;
pub mod memory;
pub mod processing;
pub mod program;
pub mod replication;
pub mod scheduling;
pub mod security;
pub mod site_mgr;
