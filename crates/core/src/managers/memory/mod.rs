//! The attraction memory (paper §4): the local part of the global
//! memory, a COMA-style owner/directory protocol.
//!
//! Every global object (and every microframe, which is a special kind of
//! global object) has a *homesite* encoded in its address. The homesite
//! keeps the directory entry tracking the object's current owner; the
//! object itself migrates ("is attracted") to the sites that use it.
//! Results applied to waiting microframes go through
//! [`MemoryManager::apply_or_forward`]; when the last missing parameter arrives the
//! frame becomes executable and is handed to the scheduling manager —
//! exactly Fig. 4's execution cycle.
//!
//! v2 of the store (this module) splits the state into N address-hashed
//! *shards* so concurrent workers touching unrelated objects stop
//! serializing on one mutex; all state for one address (object, frame,
//! directory entry, replica, copyset, forwarding hint) lives in the same
//! shard, and no operation ever holds two shard locks at once. On top of
//! the shards sit three protocol upgrades (wire v4), in `coherence`.

mod coherence;
mod cut;
mod handler;
mod results;

use crate::frame::Microframe;
use crate::managers::backup;
use crate::site::SiteInner;
use crate::trace::TraceEvent;
use parking_lot::{Mutex, MutexGuard};
use sdvm_types::{GlobalAddress, ManagerId, ProgramId, SiteId, Value};
use sdvm_wire::{Payload, WireFrame, WireMemObject};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A plain global memory object.
#[derive(Clone, Debug, PartialEq)]
pub struct MemObject {
    /// Owning program (objects are purged with their program).
    pub program: ProgramId,
    /// Contents.
    pub data: Value,
    /// Monotonic write version (bumped by the owner on every write).
    pub version: u64,
}

impl MemObject {
    /// This object on the wire, at `addr`.
    fn to_wire(&self, addr: GlobalAddress) -> WireMemObject {
        WireMemObject {
            addr,
            program: self.program,
            data: self.data.clone(),
            version: self.version,
        }
    }
}

/// A cached copy of a remote object (replica read mode).
struct Replica {
    program: ProgramId,
    data: Value,
    version: u64,
    /// When the copy was cut; replicas older than the configured TTL
    /// lease are ignored (bounds staleness under lost invalidations).
    fetched: Instant,
}

/// Named counts for load reports / status (replaces the old bare tuple).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemStats {
    /// Objects currently owned by this site.
    pub objects: usize,
    /// Incomplete microframes owned by this site.
    pub frames: usize,
    /// Total payload bytes of the owned objects.
    pub memory_bytes: u64,
    /// Cached read replicas of remote objects.
    pub replicas: usize,
    /// Per-shard lock-contention counts (a `try_lock` that had to block).
    pub shard_contention: Vec<u64>,
}

/// All state for the addresses that hash to one shard.
#[derive(Default)]
pub(crate) struct Shard {
    /// Objects currently owned by this site (homed here or migrated in).
    objects: HashMap<GlobalAddress, MemObject>,
    /// Incomplete microframes owned by this site.
    frames: HashMap<GlobalAddress, Microframe>,
    /// Homesite directory: current owner of every *live* object/frame
    /// homed here (or whose directory this site inherited). An absent
    /// entry for a locally-homed address means consumed/freed.
    directory: HashMap<GlobalAddress, SiteId>,
    /// Cached copies of remote objects (never mirrored, never owned).
    replicas: HashMap<GlobalAddress, Replica>,
    /// Owner-side copysets: which sites cached a replica of an object
    /// owned here, to be invalidated on write/migration.
    copysets: HashMap<GlobalAddress, Vec<SiteId>>,
    /// Where an object that migrated away went (last known owner);
    /// served as the `MemMissing` forwarding hint.
    hints: HashMap<GlobalAddress, SiteId>,
    /// Programs whose objects/frames in this shard changed since their
    /// last incremental checkpoint cut (wire v8). Set under the shard
    /// lock the mutation already holds, so marking is free of extra
    /// synchronization; cleared per program when a cut re-captures the
    /// shard.
    dirty: HashSet<ProgramId>,
}

impl Shard {
    /// Point this shard's directory entry for `addr` at `owner`; an
    /// invalid owner (`SiteId::NONE`) frees it.
    fn set_owner(&mut self, addr: GlobalAddress, owner: SiteId) {
        if owner.is_valid() {
            self.directory.insert(addr, owner);
        } else {
            self.directory.remove(&addr);
        }
    }
}

struct ShardSlot {
    state: Mutex<Shard>,
    /// Times a locker found the shard held and had to block.
    contention: AtomicU64,
}

impl ShardSlot {
    fn lock(&self) -> MutexGuard<'_, Shard> {
        if let Some(g) = self.state.try_lock() {
            return g;
        }
        self.contention.fetch_add(1, Ordering::Relaxed);
        self.state.lock()
    }
}

/// One shard's contribution to a program's incremental checkpoint cut,
/// cached between cuts so clean shards are answered without touching
/// (or locking) the live shard again.
#[derive(Clone, Default)]
struct ShardCut {
    objects: Vec<WireMemObject>,
    frames: Vec<WireFrame>,
}

/// Result of one incremental (copy-on-write style) checkpoint cut.
#[derive(Default)]
pub struct IncrementalCut {
    /// This site's owned objects of the program, per-shard consistent.
    pub objects: Vec<WireMemObject>,
    /// This site's incomplete frames of the program, per-shard consistent.
    pub frames: Vec<WireFrame>,
    /// Shards that were dirty (or never cut) and had to be re-captured.
    pub shards_captured: usize,
    /// Clean shards answered from the previous cut without locking work.
    pub shards_reused: usize,
    /// Longest time any single shard lock was held during the cut — the
    /// worst case a concurrent worker could have been blocked.
    pub max_block: std::time::Duration,
}

/// The attraction memory of one site.
pub struct MemoryManager {
    shards: Vec<ShardSlot>,
    counter: AtomicU64,
    /// Previous incremental cut per program: one optional entry per
    /// shard (`None` = that shard was never captured). Only the
    /// checkpoint path locks this — workers never touch it.
    cuts: Mutex<HashMap<ProgramId, Vec<Option<ShardCut>>>>,
}

impl Default for MemoryManager {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryManager {
    /// Fresh, empty memory with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(crate::config::SiteConfig::default().mem_shards)
    }

    /// Fresh, empty memory split into `n` address-hashed shards (1
    /// reproduces the old single-mutex store).
    pub fn with_shards(n: usize) -> Self {
        let n = n.max(1);
        MemoryManager {
            shards: (0..n)
                .map(|_| ShardSlot {
                    state: Mutex::new(Shard::default()),
                    contention: AtomicU64::new(0),
                })
                .collect(),
            counter: AtomicU64::new(1),
            cuts: Mutex::new(HashMap::new()),
        }
    }

    /// Number of shards (diagnostics/benches).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, addr: GlobalAddress) -> usize {
        // Fibonacci-hash the address; home in the high bits so objects
        // homed on different sites spread even with clashing locals.
        let h = (addr.local ^ ((addr.home.0 as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len()
    }

    /// Lock the shard holding all state for `addr`.
    fn shard(&self, addr: GlobalAddress) -> MutexGuard<'_, Shard> {
        self.shards[self.shard_index(addr)].lock()
    }

    /// Allocate a fresh global address homed on this site.
    pub fn fresh_address(&self, site: &SiteInner) -> GlobalAddress {
        GlobalAddress::new(site.my_id(), self.counter.fetch_add(1, Ordering::Relaxed))
    }

    /// An address homed on this site arrived from outside (checkpoint
    /// restore, relocation): make sure we never hand its local id out
    /// again.
    fn note_foreign_address(&self, site: &SiteInner, addr: GlobalAddress) {
        if addr.home == site.my_id() {
            self.counter.fetch_max(addr.local + 1, Ordering::Relaxed);
        }
    }

    /// Allocate a global object with initial contents.
    pub fn alloc(&self, site: &SiteInner, program: ProgramId, data: Value) -> GlobalAddress {
        let addr = self.fresh_address(site);
        {
            let mut st = self.shard(addr);
            st.objects.insert(
                addr,
                MemObject {
                    program,
                    data: data.clone(),
                    version: 1,
                },
            );
            st.dirty.insert(program);
            st.directory.insert(addr, site.my_id());
        }
        backup::mirror_object(site, addr, program, data, 1);
        addr
    }

    /// Register a freshly created microframe (allocation, paper §3.2:
    /// "every microframe should be allocated as soon as possible, because
    /// its global address is known not before its allocation").
    pub fn create_frame(&self, site: &SiteInner, frame: Microframe) {
        site.emit(TraceEvent::FrameCreated {
            frame: frame.id,
            thread: frame.thread,
            slots: frame.slots.len(),
        });
        backup::mirror_frame(site, &frame);
        let executable = frame.is_executable();
        {
            let mut st = self.shard(frame.id);
            st.directory.insert(frame.id, site.my_id());
            if !executable {
                st.dirty.insert(frame.program());
                st.frames.insert(frame.id, frame.clone());
            }
        }
        if executable {
            self.promote(site, frame);
        }
    }

    /// Adopt a frame that migrated here (help reply, relocation,
    /// recovery). Updates the homesite directory.
    pub fn adopt_frame(&self, site: &SiteInner, frame: Microframe) {
        self.note_foreign_address(site, frame.id);
        backup::mirror_frame(site, &frame);
        let executable = frame.is_executable();
        self.point_directory(site, frame.id, site.my_id(), |st| {
            st.hints.remove(&frame.id);
            if !executable {
                st.dirty.insert(frame.program());
                st.frames.insert(frame.id, frame.clone());
            }
        });
        if executable {
            self.promote(site, frame);
        }
    }

    /// Remove an owned frame (it is about to migrate away via a help
    /// reply). Caller is responsible for the directory update.
    pub fn take_frame(&self, id: GlobalAddress) -> Option<Microframe> {
        let mut st = self.shard(id);
        let taken = st.frames.remove(&id);
        if let Some(f) = &taken {
            st.dirty.insert(f.program());
        }
        taken
    }

    /// Adopt a memory object that became ours: a migrating read's
    /// reply, relocation, or crash recovery. The object supersedes any
    /// cached replica and forwarding hint of itself, but a newer local
    /// version (e.g. a stale backup revival racing a live migration)
    /// survives: versions are monotone, so the newer copy wins. The
    /// (possibly inherited) directory entry lands in the same critical
    /// section as the object, and the kept copy is mirrored to our
    /// backup. Returns the kept contents.
    pub fn adopt_object(&self, site: &SiteInner, obj: WireMemObject) -> Value {
        self.note_foreign_address(site, obj.addr);
        let addr = obj.addr;
        let kept = self.point_directory(site, addr, site.my_id(), |st| {
            st.replicas.remove(&addr);
            st.hints.remove(&addr);
            match st.objects.get(&addr) {
                Some(here) if here.version > obj.version => here.clone(),
                _ => {
                    let adopted = MemObject {
                        program: obj.program,
                        data: obj.data,
                        version: obj.version,
                    };
                    st.dirty.insert(adopted.program);
                    st.objects.insert(addr, adopted.clone());
                    adopted
                }
            }
        });
        backup::mirror_object(site, addr, kept.program, kept.data.clone(), kept.version);
        kept.data
    }

    /// Called after a frame was executed: free its directory entry and
    /// its backup ("the microframe is consumed and thus vanishes").
    pub fn consume_frame(&self, site: &SiteInner, id: GlobalAddress) {
        self.point_directory(site, id, SiteId::NONE, |_| ());
        backup::mirror_consumed(site, id);
    }

    /// Point the homesite directory entry of `addr` at `owner`
    /// (`SiteId::NONE` frees it). The one rule: when this site is the
    /// (possibly inherited) home it writes the entry itself, otherwise
    /// the home is sent an `OwnerUpdate`. `with` runs first, under the
    /// address's shard lock, so the caller's own change and a local
    /// entry land in one critical section: no lookup can observe
    /// `owner == me` with the object still absent. A remote update goes
    /// out after the lock is released.
    pub(crate) fn point_directory<R>(
        &self,
        site: &SiteInner,
        addr: GlobalAddress,
        owner: SiteId,
        with: impl FnOnce(&mut Shard) -> R,
    ) -> R {
        let home = self.resolve_home(site, addr.home);
        let here = home == site.my_id();
        let out = {
            let mut st = self.shard(addr);
            let out = with(&mut st);
            if here {
                st.set_owner(addr, owner);
            }
            out
        };
        if !here {
            let _ = site.send_payload(
                home,
                ManagerId::Memory,
                ManagerId::Memory,
                site.next_seq(),
                Payload::OwnerUpdate { addr, owner },
            );
        }
        out
    }

    fn promote(&self, site: &SiteInner, frame: Microframe) {
        site.emit(TraceEvent::FrameExecutable { frame: frame.id });
        // Under a replication policy, the frame's home site dispatches
        // tagged replicas instead of enqueueing — `intercept` keeps the
        // frame in escrow and returns `None`.
        let Some(frame) = site.replication.intercept(site, frame) else {
            return;
        };
        site.scheduling.enqueue_executable(site, frame);
    }

    /// Resolve the (possibly inherited) homesite of an address: follows
    /// the succession chain past signed-off/crashed sites.
    pub fn resolve_home(&self, site: &SiteInner, home: SiteId) -> SiteId {
        site.cluster.resolve_succession(home)
    }

    /// A site crashed: its homesite directory died with it. Re-register
    /// everything *we* own that was homed on the dead site with the
    /// directory successor (the succession is installed before this
    /// runs), so late results and reads keep resolving.
    /// (State owned by the dead site itself is rebuilt by backup
    /// revival; orderly sign-off hands the directory over explicitly.)
    ///
    /// Replica hygiene: every cached replica is dropped — its owner may
    /// have died with our copyset entry, so invalidations can no longer
    /// be trusted to arrive — and the dead site is scrubbed from local
    /// copysets and forwarding hints.
    pub fn reregister_after_crash(&self, site: &SiteInner, dead: SiteId) {
        let mut owned: Vec<GlobalAddress> = Vec::new();
        for slot in &self.shards {
            let mut st = slot.lock();
            owned.extend(
                st.frames
                    .keys()
                    .chain(st.objects.keys())
                    .copied()
                    .filter(|a| a.home == dead),
            );
            st.replicas.clear();
            for members in st.copysets.values_mut() {
                members.retain(|m| *m != dead);
            }
            st.hints.retain(|_, owner| *owner != dead);
        }
        for addr in owned {
            self.point_directory(site, addr, site.my_id(), |_| ());
        }
    }

    /// Snapshot of incomplete frames: (address, microthread, missing,
    /// filled-slot indices). Diagnostic aid for stalled dataflow.
    pub fn incomplete_frames(
        &self,
    ) -> Vec<(GlobalAddress, sdvm_types::MicrothreadId, usize, Vec<u32>)> {
        let mut out = Vec::new();
        for slot in &self.shards {
            out.extend(slot.lock().frames.values().map(|f| {
                let filled = (0..).zip(&f.slots).filter(|(_, s)| s.is_some());
                (
                    f.id,
                    f.thread,
                    f.missing(),
                    filled.map(|(i, _)| i).collect(),
                )
            }));
        }
        out
    }

    /// Counts for load reports / status.
    pub fn stats(&self) -> MemStats {
        let mut s = MemStats::default();
        for slot in &self.shards {
            let st = slot.lock();
            s.objects += st.objects.len();
            s.frames += st.frames.len();
            s.memory_bytes += st
                .objects
                .values()
                .map(|o| o.data.len() as u64)
                .sum::<u64>();
            s.replicas += st.replicas.len();
            s.shard_contention
                .push(slot.contention.load(Ordering::Relaxed));
        }
        s
    }

    /// Purge everything belonging to a terminated program.
    pub fn purge_program(&self, program: ProgramId) {
        for slot in &self.shards {
            let mut guard = slot.lock();
            let st = &mut *guard;
            st.objects.retain(|addr, o| {
                let keep = o.program != program;
                if !keep {
                    st.copysets.remove(addr);
                    st.hints.remove(addr);
                }
                keep
            });
            st.frames.retain(|addr, f| {
                let keep = f.program() != program;
                if !keep {
                    st.directory.remove(addr);
                }
                keep
            });
            st.replicas.retain(|_, r| r.program != program);
            st.dirty.remove(&program);
        }
        self.cuts.lock().remove(&program);
    }

    /// Version of the locally *owned* copy of `addr`, if any.
    pub fn object_version(&self, addr: GlobalAddress) -> Option<u64> {
        self.shard(addr).objects.get(&addr).map(|o| o.version)
    }
}
