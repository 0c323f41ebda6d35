//! Self-description and load data exchanged between sites.
//!
//! When a site joins (its first help request), it announces a
//! [`SiteDescriptor`]; the cluster manager keeps one per known site and
//! augments it with rolling [`LoadReport`]s so help requests can be
//! directed at sites that are probably not idle themselves (paper, §4).

use crate::ids::{PhysicalAddr, PlatformId, SiteId};

/// Static-ish self-description of a site, propagated epidemically through
/// the cluster with normal traffic.
#[derive(Clone, PartialEq, Debug)]
pub struct SiteDescriptor {
    /// The site's logical id.
    pub site: SiteId,
    /// Physical address the network manager can reach it at.
    pub addr: PhysicalAddr,
    /// Platform (architecture + OS) id, for code distribution.
    pub platform: PlatformId,
    /// Whether this site volunteered as a code distribution site (stores
    /// every microthread of every program it hears about).
    pub code_distribution: bool,
    /// Incarnation number of this site: starts at 1 on sign-on and is
    /// bumped whenever the site refutes a false death declaration. A
    /// descriptor with a higher incarnation always supersedes a lower
    /// one; messages from an incarnation at or below a recorded death
    /// are fenced as stale.
    pub incarnation: u64,
}

impl SiteDescriptor {
    /// Descriptor with defaults: not a code-distribution site, first
    /// incarnation.
    pub fn new(site: SiteId, addr: PhysicalAddr, platform: PlatformId) -> Self {
        Self {
            site,
            addr,
            platform,
            code_distribution: false,
            incarnation: 1,
        }
    }
}

/// A rolling load snapshot, piggybacked on normal messages.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LoadReport {
    /// Number of executable + ready microframes queued locally.
    pub queued_frames: u32,
    /// Number of microthreads currently executing (processing slots busy).
    pub busy_slots: u32,
    /// Number of programs the site currently works on.
    pub programs: u32,
    /// Bytes held in the local part of the attraction memory.
    pub memory_bytes: u64,
    /// Monotone sequence number; higher wins when merging gossip.
    pub epoch: u64,
}

impl LoadReport {
    /// A scalar "busyness" estimate used to pick help-request targets:
    /// sites with more queued work are better candidates to ask for work.
    pub fn busyness(&self) -> u64 {
        self.queued_frames as u64 * 4 + self.busy_slots as u64
    }

    /// Merge gossip: keep whichever report is newer.
    pub fn merge(&mut self, other: &LoadReport) {
        if other.epoch > self.epoch {
            *self = *other;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_keeps_newer() {
        let mut a = LoadReport {
            epoch: 1,
            queued_frames: 5,
            ..Default::default()
        };
        let b = LoadReport {
            epoch: 2,
            queued_frames: 9,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.queued_frames, 9);
        let old = LoadReport {
            epoch: 1,
            queued_frames: 1,
            ..Default::default()
        };
        a.merge(&old);
        assert_eq!(a.queued_frames, 9, "older gossip must not regress state");
    }

    #[test]
    fn busyness_prefers_queued_work() {
        let idle = LoadReport::default();
        let queued = LoadReport {
            queued_frames: 3,
            ..Default::default()
        };
        let busy = LoadReport {
            busy_slots: 3,
            ..Default::default()
        };
        assert!(queued.busyness() > busy.busyness());
        assert_eq!(idle.busyness(), 0);
    }

    #[test]
    fn descriptor_defaults() {
        let d = SiteDescriptor::new(SiteId(1), PhysicalAddr::Mem(0), PlatformId(3));
        assert!(!d.code_distribution);
        assert_eq!(d.incarnation, 1, "sites start at incarnation 1");
    }
}
