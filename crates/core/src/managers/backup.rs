//! Crash management (paper §2.2, §6, \[4\]): backup mirroring and recovery.
//!
//! When crash tolerance is enabled, every site continuously mirrors the
//! state it *owns* — incomplete microframes, queued executable frames and
//! global memory objects — to its *buddy*, the next alive site in id
//! order. Result applications are mirrored by the **sender** (to the
//! owner's buddy), so there is no window in which a result reaches only
//! the owner and dies with it. Execution of a frame retires its backup.
//!
//! When the cluster declares a site crashed, every site revives what it
//! holds in backup for the dead site; the succession map reroutes
//! directory lookups for addresses homed on the dead site. Semantics are
//! *at-least-once*: work not yet mirrored as consumed may re-execute —
//! duplicate results are dropped idempotently by the attraction memory.

use crate::frame::Microframe;
use crate::site::SiteInner;
use crate::trace::TraceEvent;
use parking_lot::Mutex;
use sdvm_types::{GlobalAddress, ManagerId, ProgramId, SiteId, Value};
use sdvm_wire::{Payload, WireFrame, WireMemObject};
use std::collections::{HashMap, HashSet};

#[derive(Default)]
struct BackupState {
    /// owner → (frame address → wire frame as last mirrored).
    frames: HashMap<SiteId, HashMap<GlobalAddress, WireFrame>>,
    /// owner → (object address → object).
    objects: HashMap<SiteId, HashMap<GlobalAddress, WireMemObject>>,
    /// Results mirrored by senders, keyed by target frame (owner-agnostic
    /// because the sender's view of the owner may lag a migration).
    applied: HashMap<GlobalAddress, Vec<(u32, Value)>>,
    /// Frames known consumed (tombstones; suppress revival of stale
    /// backups).
    consumed: HashSet<GlobalAddress>,
}

/// A frame ready for revival: its last mirrored image plus the results
/// that arrived after mirroring.
type RevivableFrame = (WireFrame, Vec<(u32, Value)>);

/// The backup store of one site (holds *other* sites' mirrored state).
#[derive(Default)]
pub struct BackupManager {
    state: Mutex<BackupState>,
}

impl BackupManager {
    /// Fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a mirrored frame (owner = message sender).
    pub fn on_frame(&self, owner: SiteId, frame: WireFrame) {
        let mut st = self.state.lock();
        // A fresh mirror supersedes an old migration-release/tombstone
        // only if it was a release; real consumption never recurs, and
        // frames are only re-mirrored when adopted alive.
        st.consumed.remove(&frame.id);
        st.frames.entry(owner).or_default().insert(frame.id, frame);
    }

    /// Record a mirrored result application.
    pub fn on_apply(&self, _from: SiteId, target: GlobalAddress, slot: u32, value: Value) {
        let mut st = self.state.lock();
        if st.consumed.contains(&target) {
            return;
        }
        let list = st.applied.entry(target).or_default();
        if !list.iter().any(|(s, _)| *s == slot) {
            list.push((slot, value));
        }
    }

    /// The frame was executed: drop all its backup state, tombstone it.
    pub fn on_consumed(&self, frame: GlobalAddress) {
        let mut st = self.state.lock();
        for bucket in st.frames.values_mut() {
            bucket.remove(&frame);
        }
        st.applied.remove(&frame);
        st.consumed.insert(frame);
    }

    /// The frame migrated away from `owner`: drop it from that bucket
    /// only (the new owner mirrors it afresh).
    pub fn on_release(&self, owner: SiteId, frame: GlobalAddress) {
        let mut st = self.state.lock();
        if let Some(bucket) = st.frames.get_mut(&owner) {
            bucket.remove(&frame);
        }
    }

    /// Record a mirrored memory object.
    pub fn on_object(&self, owner: SiteId, obj: WireMemObject) {
        self.state
            .lock()
            .objects
            .entry(owner)
            .or_default()
            .insert(obj.addr, obj);
    }

    /// Counts (frames, objects) held for `owner` — observability.
    pub fn held_for(&self, owner: SiteId) -> (usize, usize) {
        let st = self.state.lock();
        (
            st.frames.get(&owner).map(|b| b.len()).unwrap_or(0),
            st.objects.get(&owner).map(|b| b.len()).unwrap_or(0),
        )
    }

    /// Drop everything belonging to a terminated program.
    pub fn purge_program(&self, program: ProgramId) {
        let mut st = self.state.lock();
        for bucket in st.frames.values_mut() {
            bucket.retain(|_, f| f.thread.program != program);
        }
        for bucket in st.objects.values_mut() {
            bucket.retain(|_, o| o.program != program);
        }
    }

    fn take_for(&self, dead: SiteId) -> (Vec<RevivableFrame>, Vec<WireMemObject>) {
        let mut st = self.state.lock();
        let frames = st.frames.remove(&dead).unwrap_or_default();
        let objects = st.objects.remove(&dead).unwrap_or_default();
        let mut out_frames = Vec::with_capacity(frames.len());
        for (addr, wire) in frames {
            if st.consumed.contains(&addr) {
                continue;
            }
            let applied = st.applied.remove(&addr).unwrap_or_default();
            out_frames.push((wire, applied));
        }
        (out_frames, objects.into_values().collect())
    }
}

/// Revive everything this site holds in backup for `dead`.
pub(crate) fn recover(site: &SiteInner, dead: SiteId) {
    let (frames, objects) = site.backup.take_for(dead);
    let (nf, no) = (frames.len(), objects.len());
    if nf == 0 && no == 0 {
        return;
    }
    for obj in objects {
        site.memory.adopt_object(site, obj);
    }
    // Rebuild all frames first, then adopt incomplete ones before
    // executable ones: an executable frame starts running on adoption
    // and its results must find every revived waiting frame registered.
    let mut rebuilt = Vec::with_capacity(frames.len());
    for (wire, applied) in frames {
        let mut frame = Microframe::from_wire(wire);
        for (slot, value) in applied {
            // Slots the frame already had filled when mirrored are
            // skipped; apply() errors on duplicates and that's fine.
            let _ = frame.apply(slot, value);
        }
        rebuilt.push(frame);
    }
    let (incomplete, executable): (Vec<_>, Vec<_>) =
        rebuilt.into_iter().partition(|f| !f.is_executable());
    for frame in incomplete.into_iter().chain(executable) {
        site.memory.adopt_frame(site, frame);
    }
    site.emit(TraceEvent::Recovered {
        dead,
        frames: nf,
        objects: no,
    });
}

// ---- sender-side mirroring helpers ----

fn buddy_of(site: &SiteInner, owner: SiteId) -> Option<SiteId> {
    if !site.config.crash_tolerance {
        return None;
    }
    site.cluster.successor_of(owner).filter(|b| *b != owner)
}

/// Mirror a frame owned by *this* site to its buddy.
pub(crate) fn mirror_frame(site: &SiteInner, frame: &Microframe) {
    if let Some(buddy) = buddy_of(site, site.my_id()) {
        let _ = site.send_payload(
            buddy,
            ManagerId::Memory,
            ManagerId::Memory,
            site.next_seq(),
            Payload::BackupFrame {
                frame: frame.to_wire(),
            },
        );
    }
}

/// Mirror a result application to the target owner's buddy (sender-side).
pub(crate) fn mirror_apply(
    site: &SiteInner,
    owner: SiteId,
    target: GlobalAddress,
    slot: u32,
    value: Value,
) {
    if let Some(buddy) = buddy_of(site, owner) {
        let _ = site.send_payload(
            buddy,
            ManagerId::Memory,
            ManagerId::Memory,
            site.next_seq(),
            Payload::BackupApply {
                target,
                slot,
                value,
            },
        );
    }
}

/// Retire a frame's backup after execution.
pub(crate) fn mirror_consumed(site: &SiteInner, frame: GlobalAddress) {
    if let Some(buddy) = buddy_of(site, site.my_id()) {
        let _ = site.send_payload(
            buddy,
            ManagerId::Memory,
            ManagerId::Memory,
            site.next_seq(),
            Payload::BackupConsumed { frame },
        );
    }
}

/// Drop a frame from `prev_owner`'s backup bucket after its migration —
/// called by the *adopter* once its own mirror has been sent, so the
/// frame is never without a backup (the old entry outlives the handoff).
pub(crate) fn mirror_released(site: &SiteInner, prev_owner: SiteId, frame: GlobalAddress) {
    if !site.config.crash_tolerance {
        return;
    }
    if let Some(buddy) = site
        .cluster
        .successor_of(prev_owner)
        .filter(|b| *b != prev_owner)
    {
        let _ = site.send_payload(
            buddy,
            ManagerId::Memory,
            ManagerId::Memory,
            site.next_seq(),
            Payload::BackupRelease {
                frame,
                owner: prev_owner,
            },
        );
    }
}

/// Mirror a memory object owned by *this* site. The write version rides
/// along so a revived object resumes the version chain where it stopped
/// (replicas themselves are cache and are never mirrored).
pub(crate) fn mirror_object(
    site: &SiteInner,
    addr: GlobalAddress,
    program: ProgramId,
    data: Value,
    version: u64,
) {
    if let Some(buddy) = buddy_of(site, site.my_id()) {
        let _ = site.send_payload(
            buddy,
            ManagerId::Memory,
            ManagerId::Memory,
            site.next_seq(),
            Payload::BackupObject {
                obj: WireMemObject {
                    addr,
                    program,
                    data,
                    version,
                },
            },
        );
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use sdvm_types::{MicrothreadId, ProgramId, SchedulingHint};
    use sdvm_wire::WireFrame;

    fn wf(home: u32, local: u64, program: u32) -> WireFrame {
        WireFrame {
            id: GlobalAddress::new(SiteId(home), local),
            thread: MicrothreadId::new(ProgramId(program), 0),
            slots: vec![None, None],
            targets: vec![],
            hint: SchedulingHint::default(),
        }
    }

    #[test]
    fn frame_apply_consume_lifecycle() {
        let b = BackupManager::new();
        let owner = SiteId(3);
        let f = wf(3, 1, 1);
        let addr = f.id;
        b.on_frame(owner, f);
        b.on_apply(SiteId(2), addr, 0, Value::from_u64(9));
        b.on_apply(SiteId(2), addr, 0, Value::from_u64(99)); // dup slot: ignored
        assert_eq!(b.held_for(owner), (1, 0));
        let (frames, objects) = b.take_for(owner);
        assert!(objects.is_empty());
        assert_eq!(frames.len(), 1);
        let (wire, applied) = &frames[0];
        assert_eq!(wire.id, addr);
        assert_eq!(applied.len(), 1, "duplicate slot mirror must be deduped");
        assert_eq!(applied[0].1.as_u64().unwrap(), 9, "first mirror wins");
    }

    #[test]
    fn consumed_frames_are_not_revived() {
        let b = BackupManager::new();
        let owner = SiteId(2);
        let f = wf(2, 7, 1);
        let addr = f.id;
        b.on_frame(owner, f);
        b.on_consumed(addr);
        assert_eq!(b.held_for(owner), (0, 0));
        let (frames, _) = b.take_for(owner);
        assert!(frames.is_empty());
        // Late applies to a consumed frame are dropped too.
        b.on_apply(SiteId(1), addr, 0, Value::empty());
        let (frames, _) = b.take_for(owner);
        assert!(frames.is_empty());
    }

    #[test]
    fn release_only_clears_the_given_owner_bucket() {
        let b = BackupManager::new();
        let f = wf(4, 1, 1);
        let addr = f.id;
        b.on_frame(SiteId(4), f.clone());
        b.on_frame(SiteId(5), f); // re-mirrored by the adopter
        b.on_release(SiteId(4), addr);
        assert_eq!(b.held_for(SiteId(4)), (0, 0));
        assert_eq!(b.held_for(SiteId(5)), (1, 0), "adopter's mirror survives");
    }

    #[test]
    fn remirroring_clears_a_consumed_tombstone() {
        // consumed → re-mirrored (frame adopted alive elsewhere) → revivable.
        let b = BackupManager::new();
        let f = wf(6, 2, 1);
        b.on_frame(SiteId(6), f.clone());
        b.on_consumed(f.id);
        b.on_frame(SiteId(7), f);
        let (frames, _) = b.take_for(SiteId(7));
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn purge_program_clears_everything() {
        let b = BackupManager::new();
        b.on_frame(SiteId(1), wf(1, 1, 7));
        b.on_frame(SiteId(1), wf(1, 2, 8));
        b.on_object(
            SiteId(1),
            WireMemObject {
                addr: GlobalAddress::new(SiteId(1), 3),
                program: ProgramId(7),
                data: Value::empty(),
                version: 1,
            },
        );
        b.purge_program(ProgramId(7));
        assert_eq!(b.held_for(SiteId(1)), (1, 0), "program 8's frame remains");
    }

    #[test]
    fn objects_roundtrip() {
        let b = BackupManager::new();
        let obj = WireMemObject {
            addr: GlobalAddress::new(SiteId(9), 4),
            program: ProgramId(1),
            data: Value::from_u64(11),
            version: 3,
        };
        b.on_object(SiteId(9), obj.clone());
        let (_, objects) = b.take_for(SiteId(9));
        assert_eq!(objects, vec![obj]);
        // take_for drains.
        assert_eq!(b.held_for(SiteId(9)), (0, 0));
    }
}
