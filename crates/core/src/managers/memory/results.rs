//! Results applied to waiting microframes: on the frame here, or
//! forwarded to the site that owns it now.

use super::MemoryManager;
use crate::managers::backup;
use crate::site::SiteInner;
use crate::telemetry::trace_id_of;
use crate::trace::{DropReason, TraceEvent};
use sdvm_types::{GlobalAddress, ManagerId, SdvmError, SdvmResult, Value};
use sdvm_wire::{Payload, TraceContext};

impl MemoryManager {
    /// Apply a result to a frame owned here. `Ok(true)` if applied,
    /// `Ok(false)` if the frame is not local.
    pub fn apply_local(
        &self,
        site: &SiteInner,
        target: GlobalAddress,
        slot: u32,
        value: Value,
    ) -> SdvmResult<bool> {
        let mut st = self.shard(target);
        let Some(frame) = st.frames.get_mut(&target) else {
            return Ok(false);
        };
        let fired = frame.apply(slot, value)?;
        let missing = frame.missing();
        let program = frame.program();
        let fired_frame = if fired {
            st.frames.remove(&target)
        } else {
            None
        };
        st.dirty.insert(program);
        drop(st);
        site.emit(TraceEvent::ParamApplied {
            frame: target,
            slot,
            missing,
        });
        if let Some(f) = fired_frame {
            self.promote(site, f);
        }
        Ok(true)
    }

    /// Apply a result wherever the frame currently lives: locally, or by
    /// forwarding an `ApplyResult` to the current owner (with directory
    /// resolution and migration chasing). May block on
    /// remote lookups — call from worker/helper threads only.
    ///
    /// Retries around site failures: if the homesite times out (it may
    /// have just crashed) or reports the frame unknown (its directory may
    /// still be rebuilding after a crash), the resolution is retried; by
    /// then crash detection has rerouted the succession and the
    /// re-registered directory answers. A frame that is genuinely
    /// consumed stays unknown through every retry and the (duplicate)
    /// result is dropped idempotently.
    pub fn apply_or_forward(
        &self,
        site: &SiteInner,
        target: GlobalAddress,
        slot: u32,
        value: Value,
    ) -> SdvmResult<()> {
        let attempts = if site.config.crash_tolerance { 5 } else { 1 };
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                // Growing backoff: long enough for crash detection to
                // reroute succession and for backup revival to finish.
                std::thread::sleep(std::time::Duration::from_millis(100 << attempt.min(4)));
            }
            match self.try_apply_or_forward(site, target, slot, value.clone()) {
                Ok(true) => return Ok(()),
                // Unknown at the directory: consumed, or mid-crash
                // rebuild. Retry before concluding "consumed".
                Ok(false) => last_err = None,
                // The peer may have just crashed: retry after the
                // cluster has had time to detect and recover.
                Err(
                    e @ (SdvmError::Timeout(_)
                    | SdvmError::UnknownSite(_)
                    | SdvmError::Transport(_)),
                ) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        site.dropped(
            DropReason::ForwardGaveUp,
            format!("result for {target} slot {slot}: {last_err:?}"),
        );
        match last_err {
            Some(e) => Err(e),
            None => Ok(()), // consistently unknown: consumed duplicate
        }
    }

    /// One resolution attempt. `Ok(true)` = applied/forwarded,
    /// `Ok(false)` = frame unknown at its directory.
    fn try_apply_or_forward(
        &self,
        site: &SiteInner,
        target: GlobalAddress,
        slot: u32,
        value: Value,
    ) -> SdvmResult<bool> {
        if self.apply_local(site, target, slot, value.clone())? {
            backup::mirror_apply(site, site.my_id(), target, slot, value);
            return Ok(true);
        }
        let owner = match self.lookup_owner(site, target) {
            Ok(owner) => owner,
            Err(SdvmError::ObjectMissing(_)) => return Ok(false),
            Err(e) => return Err(e),
        };
        if owner == site.my_id() {
            // Directory says we own it but it is not in `frames`: it sits
            // in the scheduling queue already executable, or was consumed
            // concurrently. Either way this result is stale — drop.
            site.dropped(
                DropReason::StaleOwnerSelf,
                format!("result for {target} slot {slot}"),
            );
            return Ok(true);
        }
        if !owner.is_valid() {
            site.dropped(
                DropReason::Tombstone,
                format!("result for {target} slot {slot}"),
            );
            return Ok(true); // consumed tombstone
        }
        backup::mirror_apply(site, owner, target, slot, value.clone());
        // The forwarded result belongs to the target frame's career:
        // stamp its trace context so the owner's inbound hop stitches to
        // the same trace.
        site.send_payload_traced(
            owner,
            ManagerId::Memory,
            ManagerId::Memory,
            site.next_seq(),
            Payload::ApplyResult {
                target,
                slot,
                value,
            },
            TraceContext {
                origin: target.home,
                id: trace_id_of(target),
            },
        )?;
        Ok(true)
    }
}
