//! Logical site ids (paper §4, cluster manager) and the server side of
//! sign-on.
//!
//! The paper discusses three concepts for creating unique logical site
//! ids — a central contact site, id contingents handed to several id
//! servers, and a fixed number of servers emitting their residue class
//! modulo the server count. All three are implemented and compared in
//! experiment E8.

use super::ClusterManager;
use crate::site::SiteInner;
use sdvm_types::{IdAllocStrategy, ManagerId, PhysicalAddr, SiteDescriptor, SiteId};
use sdvm_wire::{Payload, SdMessage};

/// Id-allocation state of this site.
pub(super) enum AllocState {
    /// Not an id server (forwards to one).
    Client,
    /// The central server's counter.
    Central { next: u32 },
    /// Contingents: ranges of free ids this site may hand out.
    Ranges { ranges: Vec<(u32, u32)> },
    /// Modulo server: slot `s` (0-based) among `servers` emits ids
    /// congruent to `s+1` (mod servers).
    Modulo { slot: u32, servers: u32, next: u32 },
}

impl AllocState {
    /// Contingents: split the youngest range holding at least two ids in
    /// half and give away the upper half as `(start, len)`.
    pub(super) fn split_youngest(&mut self) -> Option<(u32, u32)> {
        let AllocState::Ranges { ranges } = self else {
            return None;
        };
        let (lo, hi) = ranges
            .iter_mut()
            .rev()
            .find(|(lo, hi)| hi.saturating_sub(*lo) >= 1)?;
        let mid = *lo + (*hi - *lo) / 2;
        let grant = (mid + 1, *hi - mid);
        *hi = mid;
        Some(grant)
    }
}

impl ClusterManager {
    // ---- id allocation (the three concepts of §4) ----

    /// Try to allocate a logical id locally. `Ok(None)` means this site
    /// cannot allocate and the request must be forwarded to `forward_to`.
    fn allocate_id(&self) -> AllocOutcome {
        let mut st = self.state.lock();
        let mut existing: Vec<u32> = st.sites.keys().map(|s| s.0).collect();
        existing.extend(st.handed_out.iter().copied());
        match &mut st.alloc {
            AllocState::Central { next } => {
                let id = *next;
                *next += 1;
                AllocOutcome::Allocated(SiteId(id))
            }
            AllocState::Ranges { ranges } => {
                while let Some((lo, hi)) = ranges.last_mut() {
                    if lo <= hi {
                        let id = *lo;
                        *lo += 1;
                        return AllocOutcome::Allocated(SiteId(id));
                    }
                    ranges.pop();
                }
                AllocOutcome::NeedBlock
            }
            AllocState::Modulo {
                slot,
                servers,
                next,
            } => {
                let k = *servers;
                // Bootstrap: the first site fills the server slots 2..=k
                // sequentially so each residue class gets an emitter.
                if *slot == 0 {
                    if let Some(boot) = (2..=k).find(|id| !existing.contains(id)) {
                        st.handed_out.insert(boot);
                        return AllocOutcome::Allocated(SiteId(boot));
                    }
                }
                let id = *next;
                *next += k;
                AllocOutcome::Allocated(SiteId(id))
            }
            AllocState::Client => AllocOutcome::Forward,
        }
    }

    fn id_server_target(&self) -> Option<SiteId> {
        // Central strategy: the first site is the server. Modulo: any of
        // the first `servers` ids. Contingents: any site may have ids.
        let st = self.state.lock();
        match self.strategy {
            // The tracked server (the first site, or whoever inherited
            // the counter through drains). If gossip about the handoff
            // has not reached us, ask the oldest live site — it is
            // either the server or one hop closer to knowing who is.
            IdAllocStrategy::CentralServer => st
                .sites
                .contains_key(&st.id_server)
                .then_some(st.id_server)
                .or_else(|| st.sites.keys().copied().min()),
            IdAllocStrategy::Modulo { servers } => {
                (1..=servers).map(SiteId).find(|s| st.sites.contains_key(s))
            }
            IdAllocStrategy::Contingents => {
                st.sites.keys().copied().min() // ask the oldest site
            }
        }
    }
}

enum AllocOutcome {
    Allocated(SiteId),
    /// Contingents exhausted: must fetch a block first.
    NeedBlock,
    /// Not an id server: forward to one.
    Forward,
}

/// Helper-thread handling of a sign-on request (may block on remote id
/// servers — the router must not).
pub(super) fn handle_signon_blocking(site: &SiteInner, msg: SdMessage, reply_addr: PhysicalAddr) {
    let Payload::SignOn { descriptor } = msg.payload.clone() else {
        return;
    };
    let outcome = site.cluster.allocate_id();
    let assigned = match outcome {
        AllocOutcome::Allocated(id) => Some(id),
        AllocOutcome::NeedBlock => {
            // Contingents: beg peers for a block, then retry once.
            let mut got = false;
            for peer in site.cluster.known_sites() {
                if peer == site.my_id() {
                    continue;
                }
                if let Ok(reply) = site.request(
                    peer,
                    ManagerId::Cluster,
                    ManagerId::Cluster,
                    Payload::IdBlockRequest {},
                    site.config.request_timeout,
                ) {
                    if let Payload::IdBlockGrant { start, len } = reply.payload {
                        if len > 0 {
                            let mut st = site.cluster.state.lock();
                            if let AllocState::Ranges { ranges } = &mut st.alloc {
                                ranges.push((start, start + len - 1));
                                got = true;
                            }
                        }
                    }
                }
                if got {
                    break;
                }
            }
            match site.cluster.allocate_id() {
                AllocOutcome::Allocated(id) => Some(id),
                _ => None,
            }
        }
        AllocOutcome::Forward => {
            // Ask an id server to run the whole sign-on; relay its answer.
            match site.cluster.id_server_target() {
                Some(server) if server != site.my_id() => {
                    match site.request(
                        server,
                        ManagerId::Cluster,
                        ManagerId::Cluster,
                        Payload::SignOn {
                            descriptor: descriptor.clone(),
                        },
                        site.config.request_timeout,
                    ) {
                        Ok(reply) => match reply.payload {
                            Payload::SignOnAck { assigned, cluster } => {
                                // Learn what the server told the joiner.
                                for d in &cluster {
                                    site.cluster.learn(site, d.clone());
                                }
                                let r = msg.reply(
                                    site.next_seq(),
                                    ManagerId::Cluster,
                                    Payload::SignOnAck { assigned, cluster },
                                );
                                let _ = site.send_msg_to_addr(&reply_addr, r);
                                return;
                            }
                            _ => None,
                        },
                        Err(_) => None,
                    }
                }
                _ => None,
            }
        }
    };
    let Some(assigned) = assigned else {
        let r = msg.reply(
            site.next_seq(),
            ManagerId::Cluster,
            Payload::SignOnRefused {
                reason: "no id server reachable / id space exhausted".into(),
            },
        );
        let _ = site.send_msg_to_addr(&reply_addr, r);
        return;
    };
    // Record the newcomer and answer with the current cluster view.
    let mut d = descriptor;
    d.site = assigned;
    site.cluster.learn(site, d.clone());
    let cluster_list: Vec<SiteDescriptor> =
        site.cluster.state.lock().sites.values().cloned().collect();
    let r = msg.reply(
        site.next_seq(),
        ManagerId::Cluster,
        Payload::SignOnAck {
            assigned,
            cluster: cluster_list,
        },
    );
    let _ = site.send_msg_to_addr(&reply_addr, r);
    // Under the contingents concept, hand the newcomer its own block of
    // free ids (split off ours) so it can serve joins itself.
    let grant = site.cluster.state.lock().alloc.split_youngest();
    if let Some((start, len)) = grant {
        let _ = site.send_payload(
            assigned,
            ManagerId::Cluster,
            ManagerId::Cluster,
            site.next_seq(),
            Payload::IdBlockGrant { start, len },
        );
    }
    // Propagate the newcomer to everyone else. Not to the newcomer: its
    // id may not be set yet when the announce lands.
    site.broadcast_except(
        assigned,
        ManagerId::Cluster,
        Payload::SiteAnnounce { descriptor: d },
    );
}
