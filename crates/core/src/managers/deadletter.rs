//! The dead-letter store: per-site quarantine for poison microframes.
//!
//! A frame lands here when its handler panicked, returned an application
//! error, or exhausted its infrastructure-retry budget. Quarantining
//! *consumes* the frame through the memory manager — the directory entry
//! is removed and the backup buddy is tombstoned — so a crash recovery
//! can never revive a poison frame. The frame body is kept locally for
//! inspection and can be re-driven (budget reset) once the operator
//! fixed the cause.

use crate::frame::Microframe;
use crate::site::SiteInner;
use crate::trace::TraceEvent;
use parking_lot::Mutex;
use sdvm_types::{GlobalAddress, ManagerId, ProgramId, SdvmError};
use sdvm_wire::Payload;

/// One quarantined frame and why it was pulled from circulation.
#[derive(Clone, Debug)]
pub struct DeadLetter {
    /// The poison frame, kept whole for inspection and re-drive.
    pub frame: Microframe,
    /// The error that condemned it.
    pub cause: SdvmError,
}

/// The dead-letter manager of one site.
#[derive(Default)]
pub struct DeadLetterManager {
    letters: Mutex<Vec<DeadLetter>>,
}

impl DeadLetterManager {
    /// Fresh manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Quarantine a poison frame: store it, consume it cluster-wide
    /// (directory removal + backup tombstone, so buddies don't revive
    /// it), and notify the program's code-home site so the failure
    /// policy can be applied at the frontend.
    pub fn quarantine(&self, site: &SiteInner, frame: Microframe, cause: SdvmError) {
        let id = frame.id;
        let thread = frame.thread;
        let program = frame.program();
        let cause_text = cause.to_string();
        site.memory.consume_frame(site, id);
        site.emit(TraceEvent::FrameQuarantined {
            frame: id,
            thread,
            cause: std::sync::Arc::new(cause_text.clone()),
        });
        self.letters.lock().push(DeadLetter { frame, cause });
        match site.program.code_home(program) {
            Some(home) if home != site.my_id() => {
                let _ = site.send_payload(
                    home,
                    ManagerId::Program,
                    ManagerId::Program,
                    site.next_seq(),
                    Payload::FrameQuarantined {
                        program,
                        frame: id,
                        thread,
                        cause: cause_text,
                    },
                );
            }
            _ => {
                // Code home unknown (already purged) or it is us: apply
                // the policy locally.
                site.program
                    .on_frame_quarantined(site, program, id, thread, cause_text);
            }
        }
    }

    /// Number of frames currently quarantined on this site.
    pub fn count(&self) -> usize {
        self.letters.lock().len()
    }

    /// Snapshot of the quarantined frames (for inspection/tests).
    pub fn letters(&self) -> Vec<DeadLetter> {
        self.letters.lock().clone()
    }

    /// Re-drive a quarantined frame: pull it out of the store, reset its
    /// retry budget and hand it back to the scheduler, pinned to this
    /// site. Quarantine consumed the frame, so no directory entry or
    /// backup knows it; help must not carry it where nothing tracks it.
    /// Returns `false` if no such frame is quarantined here.
    pub fn redrive(&self, site: &SiteInner, frame_id: GlobalAddress) -> bool {
        let letter = {
            let mut letters = self.letters.lock();
            match letters.iter().position(|d| d.frame.id == frame_id) {
                Some(pos) => letters.swap_remove(pos),
                None => return false,
            }
        };
        let mut frame = letter.frame;
        frame.retries = 0;
        frame.hint.sticky = true;
        site.scheduling.enqueue_executable(site, frame);
        true
    }

    /// Drain the whole store for the drain-time handoff to the
    /// successor: without the transfer the letters would vanish with
    /// the departing site and `redrive()` would be impossible forever.
    pub fn take_all(&self) -> Vec<DeadLetter> {
        std::mem::take(&mut *self.letters.lock())
    }

    /// Adopt a letter handed over by a draining site (`DeadLetterSweep`).
    /// The frame was already consumed cluster-wide when it was first
    /// quarantined, so this only stores it — no directory removal, no
    /// tombstone, no code-home notification (the failure policy already
    /// ran on the original quarantine).
    pub fn adopt(&self, frame: Microframe, cause: SdvmError) {
        self.letters.lock().push(DeadLetter { frame, cause });
    }

    /// Drop all letters of a terminated program.
    pub fn purge_program(&self, program: ProgramId) {
        self.letters.lock().retain(|d| d.frame.program() != program);
    }
}
