//! Coherence: reads and writes of a global object wherever it lives,
//! the owner chase, read replicas and their invalidation, and
//! forwarding hints.
//!
//! - **Versioned read replicas**: objects carry a monotonic version
//!   bumped on every write. A non-migrating read enters the reader into
//!   the owner's per-object *copyset* and caches the value locally;
//!   repeat reads are served from the replica without crossing the wire
//!   until the owner writes (it then sends `ReplicaInvalidate` to the
//!   copyset) or the replica's TTL lease expires — the lease bounds
//!   staleness when an invalidation is lost, e.g. during a partition.
//! - **Forwarding hints**: when an object migrates away, the old owner
//!   remembers where it went; `MemMissing` replies carry that hint so
//!   chasers jump straight to the new owner instead of re-querying the
//!   homesite after a blind backoff.
//! - **Locality scoring** for help granting lives in
//!   [`MemoryManager::help_score`].

use super::{MemoryManager, Replica, Shard};
use crate::frame::Microframe;
use crate::managers::backup;
use crate::site::SiteInner;
use sdvm_types::{GlobalAddress, ManagerId, ProgramId, SdvmError, SdvmResult, SiteId, Value};
use sdvm_wire::{Payload, SdMessage};
use std::time::Instant;

/// Forwarding hints kept per shard; cleared wholesale on overflow (same
/// bounded-map discipline as the telemetry career map).
const HINT_CAP: usize = 1024;

/// Upper bound on owner hops a read/write chase follows before giving up.
const CHASE_HOPS: u32 = 8;

impl MemoryManager {
    /// Read a global object. With `migrate`, ownership moves here
    /// (attraction); otherwise a snapshot copy is returned — served from
    /// a cached replica when one is fresh, else fetched (and cached, with
    /// this site entered into the owner's copyset). Blocks on remote
    /// objects.
    pub fn read(&self, site: &SiteInner, addr: GlobalAddress, migrate: bool) -> SdvmResult<Value> {
        let replica_mode = !migrate && site.config.replica_reads;
        {
            let st = self.shard(addr);
            if let Some(obj) = st.objects.get(&addr) {
                return Ok(obj.data.clone());
            }
            if replica_mode {
                if let Some(r) = st.replicas.get(&addr) {
                    if r.fetched.elapsed() <= site.config.replica_ttl {
                        site.metrics.mem_replica_hits.inc();
                        return Ok(r.data.clone());
                    }
                }
            }
        }
        if replica_mode {
            site.metrics.mem_replica_misses.inc();
        }
        let request = Payload::MemRead {
            addr,
            migrate,
            replica: replica_mode,
        };
        let owned_here = || self.shard(addr).objects.get(&addr).map(|o| o.data.clone());
        self.chase(site, addr, request, owned_here, |reply| match reply {
            Payload::MemValue {
                obj,
                migrated: true,
                ..
            } => Some(self.adopt_object(site, obj)),
            Payload::MemValue { obj, replica, .. } => {
                if replica {
                    let mut st = self.shard(addr);
                    // The owner entered us into its copyset; cache
                    // the copy unless we became the owner meanwhile.
                    if !st.objects.contains_key(&addr) {
                        st.replicas.insert(
                            addr,
                            Replica {
                                program: obj.program,
                                data: obj.data.clone(),
                                version: obj.version,
                                fetched: Instant::now(),
                            },
                        );
                    }
                }
                Some(obj.data)
            }
            _ => None,
        })
    }

    /// Write a global object in place at its current owner. Blocks on
    /// remote objects.
    pub fn write(&self, site: &SiteInner, addr: GlobalAddress, value: Value) -> SdvmResult<()> {
        if self.write_owned(site, addr, &value, None) {
            return Ok(());
        }
        let request = Payload::MemWrite {
            addr,
            value: value.clone(),
        };
        let owned_here = || self.write_owned(site, addr, &value, None).then_some(());
        self.chase(site, addr, request, owned_here, |reply| match reply {
            Payload::MemWriteAck { .. } => {
                // Our own cached replica (if any) is stale now; the
                // owner's invalidation also races this, so drop
                // eagerly for read-your-writes freshness.
                self.shard(addr).replicas.remove(&addr);
                Some(())
            }
            _ => None,
        })
    }

    /// The owner chase of a remote read or write: send `request` to the
    /// owner named by the last `MemMissing` hint or, without one, by the
    /// homesite directory (asked again after a short backoff: the
    /// directory update of an in-flight migration races us), for at
    /// most `CHASE_HOPS` rounds. When the directory names this site,
    /// `owned_here` re-checks locally (an inbound migration or its
    /// directory update is still settling). `answer` turns the owner's
    /// reply into the result, `None` for a reply it does not expect.
    fn chase<T>(
        &self,
        site: &SiteInner,
        addr: GlobalAddress,
        request: Payload,
        mut owned_here: impl FnMut() -> Option<T>,
        answer: impl FnOnce(Payload) -> Option<T>,
    ) -> SdvmResult<T> {
        let me = site.my_id();
        let mut next_owner: Option<SiteId> = None;
        let mut hops: u64 = 0;
        for attempt in 0..CHASE_HOPS {
            let owner = match next_owner.take() {
                Some(o) => o,
                None => {
                    if attempt > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2 << attempt.min(5)));
                    }
                    self.lookup_owner(site, addr)?
                }
            };
            if owner == me {
                match owned_here() {
                    Some(done) => return Ok(done),
                    None => continue,
                }
            }
            hops += 1;
            let reply = site.request(
                owner,
                ManagerId::Memory,
                ManagerId::Memory,
                request.clone(),
                site.config.request_timeout,
            )?;
            match reply.payload {
                // Jump straight to the hinted owner (no backoff);
                // without a hint, fall back to the directory.
                Payload::MemMissing { hint, .. } => {
                    next_owner = hint.filter(|h| h.is_valid() && *h != owner);
                }
                reply => {
                    let name = reply.name();
                    let done = answer(reply).ok_or_else(|| {
                        SdvmError::InvalidState(format!(
                            "unexpected reply {name} to {}",
                            request.name()
                        ))
                    })?;
                    site.metrics.mem_chase_hops.observe(hops);
                    return Ok(done);
                }
            }
        }
        Err(SdvmError::ObjectMissing(addr))
    }

    /// A write at the owner: store the value, bump the version, then
    /// invalidate the copyset and mirror the object to our backup. A
    /// remote writer's `ack` request is answered before that fan-out.
    /// `false` when the object is not owned here.
    pub(super) fn write_owned(
        &self,
        site: &SiteInner,
        addr: GlobalAddress,
        value: &Value,
        ack: Option<&SdMessage>,
    ) -> bool {
        let (program, version, copyset) = {
            let mut st = self.shard(addr);
            let Some(obj) = st.objects.get_mut(&addr) else {
                return false;
            };
            obj.data = value.clone();
            obj.version += 1;
            let (program, version) = (obj.program, obj.version);
            st.dirty.insert(program);
            (
                program,
                version,
                st.copysets.remove(&addr).unwrap_or_default(),
            )
        };
        if let Some(msg) = ack {
            site.reply_to(msg, ManagerId::Memory, Payload::MemWriteAck { addr });
        }
        self.send_invalidations(site, addr, version, copyset);
        backup::mirror_object(site, addr, program, value.clone(), version);
        true
    }

    /// Notify copyset members their replica is stale. Fire-and-forget:
    /// a lost notice is bounded by the replica TTL lease.
    pub(super) fn send_invalidations(
        &self,
        site: &SiteInner,
        addr: GlobalAddress,
        version: u64,
        members: Vec<SiteId>,
    ) {
        let me = site.my_id();
        for m in members {
            if m == me || !m.is_valid() {
                continue;
            }
            let _ = site.send_payload(
                m,
                ManagerId::Memory,
                ManagerId::Memory,
                site.next_seq(),
                Payload::ReplicaInvalidate { addr, version },
            );
        }
    }

    pub(super) fn lookup_owner(&self, site: &SiteInner, addr: GlobalAddress) -> SdvmResult<SiteId> {
        let me = site.my_id();
        let home = self.resolve_home(site, addr.home);
        if home == me {
            return self
                .shard(addr)
                .directory
                .get(&addr)
                .copied()
                .ok_or(SdvmError::ObjectMissing(addr));
        }
        let reply = site.request(
            home,
            ManagerId::Memory,
            ManagerId::Memory,
            Payload::OwnerQuery { addr },
            site.config.request_timeout,
        )?;
        match reply.payload {
            Payload::OwnerReply { owner: Some(o), .. } => Ok(o),
            Payload::OwnerReply { owner: None, .. } => Err(SdvmError::ObjectMissing(addr)),
            other => Err(SdvmError::InvalidState(format!(
                "unexpected owner reply {}",
                other.name()
            ))),
        }
    }

    /// Locality score of granting `frame` to `requester`, used by the
    /// scheduling manager's help-grant policy. Per argument object: an
    /// input owned *here* scores −1 (executing locally avoids a remote
    /// read), an input remote to this site scores +1 (we would fetch it
    /// anyway), plus +1 more when the requester is its homesite or our
    /// directory knows the requester owns it (the frame follows its
    /// data). Ties fall back to the queue policy.
    pub fn help_score(&self, requester: SiteId, frame: &Microframe) -> i32 {
        let mut score = 0i32;
        for value in frame.slots.iter().flatten() {
            let Ok(addr) = value.as_address() else {
                continue;
            };
            let st = self.shard(addr);
            score += if st.objects.contains_key(&addr) {
                -1
            } else if addr.home == requester
                || st.directory.get(&addr) == Some(&requester)
                || st.hints.get(&addr) == Some(&requester)
            {
                2
            } else {
                1
            };
        }
        score
    }

    /// Version of the locally cached replica of `addr`, if any
    /// (diagnostics; stale-read assertions in tests).
    pub fn replica_version(&self, addr: GlobalAddress) -> Option<u64> {
        self.shard(addr).replicas.get(&addr).map(|r| r.version)
    }

    /// The forwarding hint recorded for `addr`, if any (diagnostics;
    /// restore-purge assertions in tests).
    pub fn recorded_hint(&self, addr: GlobalAddress) -> Option<SiteId> {
        self.shard(addr).hints.get(&addr).copied()
    }

    /// Drop every cached replica of a program's objects, and every
    /// forwarding hint. Called on program (re-)registration — a
    /// checkpoint restore rewinds object state, so copies cut from the
    /// pre-restore timeline must not survive it (a fresh program
    /// trivially has no replicas), and pre-restore migration hints
    /// would steer chasers at owners that no longer hold the restored
    /// objects. Hints carry no program id, so they are cleared
    /// wholesale — they are an optimization, losing them only costs a
    /// directory lookup.
    pub fn purge_replicas(&self, program: ProgramId) {
        for slot in &self.shards {
            let mut st = slot.lock();
            st.replicas.retain(|_, r| r.program != program);
            st.hints.clear();
        }
    }

    /// Record where an object that left this site went, for `MemMissing`
    /// forwarding hints. Bounded: the map is cleared wholesale at
    /// `HINT_CAP` (hints are an optimization, losing them only costs a
    /// directory lookup).
    pub(super) fn record_hint(st: &mut Shard, addr: GlobalAddress, new_owner: SiteId) {
        if st.hints.len() >= HINT_CAP {
            st.hints.clear();
        }
        st.hints.insert(addr, new_owner);
    }

    /// Last-known-owner hint for an address not owned here: a recorded
    /// migration hint, or (when this site is the directory) the current
    /// directory entry.
    pub(super) fn hint_for(
        &self,
        site: &SiteInner,
        addr: GlobalAddress,
        requester: SiteId,
    ) -> Option<SiteId> {
        let me = site.my_id();
        let is_directory = self.resolve_home(site, addr.home) == me;
        let st = self.shard(addr);
        let directory = st.directory.get(&addr).copied().filter(|_| is_directory);
        st.hints
            .get(&addr)
            .copied()
            .or(directory)
            .filter(|h| h.is_valid() && *h != requester && *h != me)
    }
}
