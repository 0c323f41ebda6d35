//! Orderly departure: the drain flow behind `Site::drain`.

use super::{AllocState, ClusterManager};
use crate::site::SiteInner;
use sdvm_types::{ManagerId, SdvmError, SdvmResult};
use sdvm_wire::Payload;
use std::time::{Duration, Instant};

impl ClusterManager {
    /// Orderly departure — the drain flow (wire v8). In order: gossip
    /// the `Draining` state (peers stop granting us help, announcing
    /// programs at us, and targeting us as successor/backup buddy),
    /// quiesce the local workers, hand the dead-letter store and
    /// code-source duty to the successor, relocate every owned object
    /// and frame plus the homesite directory, announce `SignOff`, and
    /// flush the outbound queues so nothing is lost when the caller
    /// stops the site. No tombstone, no detector involvement.
    pub fn sign_off(&self, site: &SiteInner) -> SdvmResult<()> {
        let me = site.my_id();
        let Some(successor) = self.successor_of(me) else {
            return Ok(()); // last site: nothing to relocate to
        };
        let drain_started = Instant::now();
        site.metrics.drain_started.inc();
        site.broadcast(
            ManagerId::Cluster,
            Payload::SiteDraining {
                site: me,
                incarnation: site.my_incarnation(),
            },
        );
        // Quiesce: the draining flag (set by Site::drain) stops the
        // workers from taking new frames; wait for the ones already
        // executing to finish, then let any in-flight help replies and
        // results settle before cutting. Iterate until a drain pass finds
        // nothing new.
        let deadline = Instant::now() + site.config.request_timeout;
        loop {
            let (_, busy) = site.scheduling.load_numbers();
            if busy == 0 || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(site.config.help_timeout);
        // Dead-letter handoff: quarantined frames must stay redrivable
        // after we are gone. The frames were already consumed
        // cluster-wide on quarantine, so a plain transfer suffices.
        let letters = site.deadletter.take_all();
        if !letters.is_empty() {
            let wire: Vec<(sdvm_wire::WireFrame, String)> = letters
                .iter()
                .map(|d| (d.frame.to_wire(), d.cause.to_string()))
                .collect();
            let count = wire.len() as u64;
            match site.send_payload(
                successor,
                ManagerId::Program,
                ManagerId::Program,
                site.next_seq(),
                Payload::DeadLetterSweep { letters: wire },
            ) {
                Ok(()) => site.metrics.drain_dead_letters_swept.add(count),
                Err(_) => {
                    // Successor unreachable: keep the letters; the
                    // relocate below will fail the same way and the
                    // drain aborts with the store intact.
                    for d in letters {
                        site.deadletter.adopt(d.frame, d.cause);
                    }
                }
            }
        }
        // Code-home duty handoff: for every program whose source we
        // hold, grant the successor source-serving rights (its
        // `CodeSource` handler records the program). Requesters that
        // still ask *us* first fall through to distribution sites.
        for program in site.code.local_source_programs() {
            let _ = site.send_payload(
                successor,
                ManagerId::Code,
                ManagerId::Code,
                site.next_seq(),
                Payload::CodeSource {
                    thread: sdvm_types::MicrothreadId::new(program, 0),
                    source: bytes::Bytes::new(),
                },
            );
        }
        // Id-server duty handoff: a departing central id server gives
        // the successor its counter, or joining becomes impossible once
        // we are gone. Taken before the send so a failed hand-over can
        // restore the role locally; once sent, the duty is the
        // successor's even if the drain aborts later.
        let central_next = {
            let mut st = self.state.lock();
            match st.alloc {
                AllocState::Central { next } => {
                    st.alloc = AllocState::Client;
                    Some(next)
                }
                _ => None,
            }
        };
        if let Some(next) = central_next {
            let sent = site.send_payload(
                successor,
                ManagerId::Cluster,
                ManagerId::Cluster,
                site.next_seq(),
                Payload::IdBlockGrant {
                    start: next,
                    len: u32::MAX - next,
                },
            );
            let mut st = self.state.lock();
            if sent.is_ok() {
                st.id_server = successor;
            } else {
                st.alloc = AllocState::Central { next };
            }
        }
        // Collect everything: queued frames + incomplete frames + objects
        // + our homesite directory.
        let mut frames: Vec<_> = site
            .scheduling
            .drain_all()
            .into_iter()
            .map(|f| f.to_wire())
            .collect();
        let (objects, mem_frames, directory) = site.memory.drain_for_relocation(site);
        frames.extend(mem_frames.into_iter().map(|f| f.to_wire()));
        let restore_on_failure = |err: SdvmError| -> SdvmError {
            // The successor never took ownership: put everything back so
            // the caller can retry or keep running — destroying drained
            // state on a failed hand-over would lose the program's work.
            for f in &frames {
                site.memory
                    .adopt_frame(site, crate::frame::Microframe::from_wire(f.clone()));
            }
            for o in &objects {
                site.memory.adopt_object(site, o.clone());
            }
            // Withdraw the gossiped Draining state: we are staying, and
            // peers must resume granting help / targeting us again.
            let descriptor = self.my_descriptor(site);
            site.broadcast(ManagerId::Cluster, Payload::SiteAnnounce { descriptor });
            err
        };
        let reply = match site.request(
            successor,
            ManagerId::Memory,
            ManagerId::Memory,
            Payload::Relocate {
                objects: objects.clone(),
                frames: frames.clone(),
                directory,
            },
            site.config.request_timeout,
        ) {
            Ok(r) => r,
            Err(e) => return Err(restore_on_failure(e)),
        };
        if !matches!(reply.payload, Payload::RelocateAck {}) {
            return Err(restore_on_failure(SdvmError::InvalidState(
                "relocation not acknowledged".into(),
            )));
        }
        site.metrics
            .drain_objects_relocated
            .add(objects.len() as u64);
        site.metrics.drain_frames_relocated.add(frames.len() as u64);
        // Tell everyone (including the successor) that we are gone and
        // who inherited our directory role.
        site.broadcast(
            ManagerId::Cluster,
            Payload::SignOff {
                site: me,
                successor,
            },
        );
        // Flush: wait for the outbound queues to empty so the SignOff
        // broadcast and every late result actually left before the
        // caller tears the transport down.
        let flush_deadline = Instant::now() + site.config.request_timeout;
        loop {
            let depth: usize = site
                .transport
                .outbound_depths()
                .iter()
                .map(|(_, d)| d)
                .sum();
            if depth == 0 || Instant::now() > flush_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        site.metrics.drain_completed.inc();
        site.metrics
            .drain_duration_us
            .observe(drain_started.elapsed().as_micros() as u64);
        Ok(())
    }
}
