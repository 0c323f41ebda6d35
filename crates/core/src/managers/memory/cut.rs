//! Cuts of this site's memory: a program's share for a checkpoint,
//! whole or incremental, and everything for relocation at sign-off.

use super::{IncrementalCut, MemoryManager, Shard, ShardCut};
use crate::frame::Microframe;
use crate::site::SiteInner;
use sdvm_types::{GlobalAddress, ProgramId, SiteId};
use sdvm_wire::{WireFrame, WireMemObject};
use std::time::Instant;

impl Shard {
    /// One program's owned objects and incomplete frames in this shard,
    /// on the wire.
    fn cut(&self, program: ProgramId) -> ShardCut {
        ShardCut {
            objects: self
                .objects
                .iter()
                .filter(|(_, o)| o.program == program)
                .map(|(addr, o)| o.to_wire(*addr))
                .collect(),
            frames: self
                .frames
                .values()
                .filter(|f| f.program() == program)
                .map(|f| f.to_wire())
                .collect(),
        }
    }
}

impl MemoryManager {
    /// Clone (do not drain) this site's share of a program's state: the
    /// owned objects and incomplete frames. Queued executable frames are
    /// contributed by the scheduling manager. Replicas are cache, not
    /// state — they are never snapshotted.
    pub fn snapshot_program(&self, program: ProgramId) -> (Vec<WireMemObject>, Vec<WireFrame>) {
        let mut objects = Vec::new();
        let mut frames = Vec::new();
        for slot in &self.shards {
            let cut = slot.lock().cut(program);
            objects.extend(cut.objects);
            frames.extend(cut.frames);
        }
        (objects, frames)
    }

    /// Incremental, non-blocking checkpoint cut (wire v8): capture this
    /// site's share of a program's state as per-shard consistent cuts.
    /// Dirty shards (mutated since the last cut, or never cut) are
    /// re-captured under their own shard lock — held only for the copy
    /// of that one shard's entries, never globally — and clean shards
    /// are answered from the previous cut without blocking anyone. The
    /// first cut of a program captures every shard (full cut).
    ///
    /// Consistency: each shard's contribution is internally consistent
    /// (cut under its lock), but different shards are cut at slightly
    /// different instants and the execution engine keeps running — a
    /// restore from an incremental cut may re-execute frames that were
    /// in flight at cut time (at-least-once from the cut; duplicate
    /// results are rejected by the slot-fill check). The stop-the-world
    /// `SnapshotCollect` path remains for fully quiesced cuts.
    pub fn snapshot_program_incremental(&self, program: ProgramId) -> IncrementalCut {
        let mut cuts = self.cuts.lock();
        let cache = cuts
            .entry(program)
            .or_insert_with(|| vec![None; self.shards.len()]);
        let mut out = IncrementalCut::default();
        for (i, slot) in self.shards.iter().enumerate() {
            let held = Instant::now();
            let mut st = slot.lock();
            let dirty = st.dirty.remove(&program);
            let cut = (dirty || cache[i].is_none()).then(|| st.cut(program));
            drop(st);
            out.max_block = out.max_block.max(held.elapsed());
            if cut.is_some() {
                cache[i] = cut;
                out.shards_captured += 1;
            } else {
                out.shards_reused += 1;
            }
        }
        for cut in cache.iter().flatten() {
            out.objects.extend(cut.objects.iter().cloned());
            out.frames.extend(cut.frames.iter().cloned());
        }
        out
    }

    /// Everything this site owns for relocation at sign-off: objects,
    /// incomplete frames, and the homesite directory entries. Cached
    /// replicas are dropped (not relocated — they are re-fetchable
    /// cache), and outstanding copysets are invalidated so no site keeps
    /// serving a replica whose owner is about to change.
    pub fn drain_for_relocation(
        &self,
        site: &SiteInner,
    ) -> (
        Vec<WireMemObject>,
        Vec<Microframe>,
        Vec<(GlobalAddress, SiteId)>,
    ) {
        let mut objects = Vec::new();
        let mut frames: Vec<Microframe> = Vec::new();
        let mut directory = Vec::new();
        let mut invals: Vec<(GlobalAddress, u64, Vec<SiteId>)> = Vec::new();
        for slot in &self.shards {
            let mut guard = slot.lock();
            let st = &mut *guard;
            for (addr, members) in st.copysets.drain() {
                let version = st.objects.get(&addr).map_or(0, |o| o.version);
                invals.push((addr, version, members));
            }
            objects.extend(st.objects.drain().map(|(addr, o)| o.to_wire(addr)));
            frames.extend(st.frames.drain().map(|(_, f)| f));
            directory.extend(st.directory.drain());
            st.replicas.clear();
            st.hints.clear();
        }
        for (addr, version, members) in invals {
            self.send_invalidations(site, addr, version, members);
        }
        (objects, frames, directory)
    }
}
