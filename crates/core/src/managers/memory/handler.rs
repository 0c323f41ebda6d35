//! The memory manager's inbound messages.

use super::MemoryManager;
use crate::frame::Microframe;
use crate::managers::backup;
use crate::site::SiteInner;
use crate::trace::TraceEvent;
use sdvm_types::{GlobalAddress, ManagerId};
use sdvm_wire::{Payload, SdMessage};

impl MemoryManager {
    /// Handle an incoming memory-manager message.
    pub fn handle(&self, site: &SiteInner, msg: SdMessage) {
        match msg.payload.clone() {
            Payload::ApplyResult {
                target,
                slot,
                value,
            } => {
                match self.apply_local(site, target, slot, value.clone()) {
                    Ok(true) => backup::mirror_apply(site, site.my_id(), target, slot, value),
                    Ok(false) => {
                        // Not here (frame migrated on, or consumed):
                        // resolve and forward off the router thread.
                        site.spawn_task(move |site| {
                            let _ = site.memory.apply_or_forward(site, target, slot, value);
                        });
                    }
                    Err(_) => { /* duplicate/stale result: drop */ }
                }
            }
            Payload::MemRead {
                addr,
                migrate,
                replica,
            } => self.on_mem_read(site, &msg, addr, migrate, replica),
            Payload::MemWrite { addr, value } => {
                if !self.write_owned(site, addr, &value, Some(&msg)) {
                    let hint = self.hint_for(site, addr, msg.src_site);
                    site.reply_to(&msg, ManagerId::Memory, Payload::MemMissing { addr, hint });
                }
            }
            Payload::ReplicaInvalidate { addr, version } => {
                let dropped = self.shard(addr).replicas.remove(&addr).is_some();
                if dropped {
                    site.emit(TraceEvent::ReplicaInvalidated {
                        object: addr,
                        version,
                    });
                }
            }
            Payload::OwnerQuery { addr } => {
                // Any traffic about an address homed here proves that
                // local id is in use (e.g. after a checkpoint restore
                // elsewhere): never allocate it again.
                self.note_foreign_address(site, addr);
                let owner = self.shard(addr).directory.get(&addr).copied();
                site.reply_to(&msg, ManagerId::Memory, Payload::OwnerReply { addr, owner });
            }
            Payload::OwnerUpdate { addr, owner } => {
                self.note_foreign_address(site, addr);
                self.shard(addr).set_owner(addr, owner);
            }
            Payload::Relocate {
                objects,
                frames,
                directory,
            } => {
                // Ownership moved here: each object's home learns it.
                for o in objects {
                    self.adopt_object(site, o);
                }
                for (addr, owner) in directory {
                    // Inherited directory entries keep their owner,
                    // except entries pointing at the leaver itself —
                    // those objects are in this very relocation.
                    let owner = if owner == msg.src_site {
                        site.my_id()
                    } else {
                        owner
                    };
                    self.shard(addr).set_owner(addr, owner);
                }
                // Incomplete frames first: executable ones start running
                // on adoption and their results must find every waiting
                // frame already registered.
                let (incomplete, executable): (Vec<_>, Vec<_>) =
                    frames.into_iter().partition(|f| !f.is_executable());
                for f in incomplete.into_iter().chain(executable) {
                    self.adopt_frame(site, Microframe::from_wire(f));
                }
                site.reply_to(&msg, ManagerId::Memory, Payload::RelocateAck {});
            }
            // A migrated object whose requesting waiter timed out: the
            // old owner already removed it — adopt it here or it is lost.
            Payload::MemValue { obj, migrated, .. } => {
                if migrated {
                    self.adopt_object(site, obj);
                }
            }
            Payload::BackupFrame { frame } => site.backup.on_frame(msg.src_site, frame),
            Payload::BackupRelease { frame, owner } => site.backup.on_release(owner, frame),
            Payload::BackupApply {
                target,
                slot,
                value,
            } => {
                // If the frame lives *here* (it was already revived from
                // backup, or migrated to us while the sender still
                // believed the old owner), deliver the result for real —
                // recording it into the (drained) backup bucket would
                // strand it. Duplicate deliveries are rejected by the
                // slot-fill check, so this is idempotent.
                match self.apply_local(site, target, slot, value.clone()) {
                    Ok(true) => {}
                    _ => site.backup.on_apply(msg.src_site, target, slot, value),
                }
            }
            Payload::BackupConsumed { frame } => site.backup.on_consumed(frame),
            Payload::BackupObject { obj } => site.backup.on_object(msg.src_site, obj),
            other => {
                site.reply_to(
                    &msg,
                    ManagerId::Memory,
                    Payload::Error {
                        message: format!("memory: unexpected {}", other.name()),
                    },
                );
            }
        }
    }

    /// Serve a `MemRead` request (migrate / replica / plain copy).
    fn on_mem_read(
        &self,
        site: &SiteInner,
        msg: &SdMessage,
        addr: GlobalAddress,
        migrate: bool,
        replica: bool,
    ) {
        let requester = msg.src_site;
        let mut st = self.shard(addr);
        let Some(obj) = st.objects.get(&addr).map(|o| o.to_wire(addr)) else {
            let hint = st.hints.get(&addr).copied().filter(|h| *h != requester);
            drop(st);
            site.reply_to(msg, ManagerId::Memory, Payload::MemMissing { addr, hint });
            return;
        };
        if !migrate {
            let grant_replica = replica && requester != site.my_id();
            if grant_replica {
                let members = st.copysets.entry(addr).or_default();
                if !members.contains(&requester) {
                    members.push(requester);
                }
            }
            drop(st);
            let reply = Payload::MemValue {
                obj,
                migrated: false,
                replica: grant_replica,
            };
            site.reply_to(msg, ManagerId::Memory, reply);
            return;
        }
        // The object is leaving: remember where it went (forwarding
        // hint) and invalidate every outstanding replica — the new
        // owner's future writes won't know this copyset.
        let removed = st.objects.remove(&addr);
        st.dirty.insert(obj.program);
        Self::record_hint(&mut st, addr, requester);
        let copyset = st.copysets.remove(&addr).unwrap_or_default();
        drop(st);
        self.send_invalidations(site, addr, obj.version, copyset);
        let reply = Payload::MemValue {
            obj,
            migrated: true,
            replica: false,
        };
        if site
            .send_msg(msg.reply(site.next_seq(), ManagerId::Memory, reply))
            .is_err()
        {
            // The requester became unreachable between request and
            // reply: the migrating object must not vanish from the
            // cluster — take it back.
            if let Some(o) = removed {
                let mut st = self.shard(addr);
                st.dirty.insert(o.program);
                st.objects.insert(addr, o);
                st.hints.remove(&addr);
            }
        }
    }
}
