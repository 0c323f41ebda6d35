//! A cluster of sites inside the benchmark process, talking over real
//! loopback TCP with encryption on.

use crate::tap::{Tap, TapShared};
use crate::util::now_ns;
use sdvm_core::{AppRegistry, Site, SiteConfig};
use sdvm_net::{TcpTransport, Transport};
use sdvm_types::{SdvmError, SdvmResult};
use std::sync::Arc;

/// The start password every site of a workload shares.
const PASSWORD: &str = "frame-ledger";

/// Counters summed over every site of a cluster; the ledger reports
/// their change over the timed section.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub help_requests: u64,
    pub help_granted: u64,
    pub replica_hits: u64,
    pub replica_misses: u64,
    pub shard_contention: u64,
    pub backpressure_stalls: u64,
}

impl Counters {
    /// Field-wise sum.
    pub fn plus(&self, other: &Counters) -> Counters {
        Counters {
            help_requests: self.help_requests + other.help_requests,
            help_granted: self.help_granted + other.help_granted,
            replica_hits: self.replica_hits + other.replica_hits,
            replica_misses: self.replica_misses + other.replica_misses,
            shard_contention: self.shard_contention + other.shard_contention,
            backpressure_stalls: self.backpressure_stalls + other.backpressure_stalls,
        }
    }

    /// Change from `earlier` to `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            help_requests: self.help_requests - earlier.help_requests,
            help_granted: self.help_granted - earlier.help_granted,
            replica_hits: self.replica_hits - earlier.replica_hits,
            replica_misses: self.replica_misses - earlier.replica_misses,
            shard_contention: self.shard_contention - earlier.shard_contention,
            backpressure_stalls: self.backpressure_stalls - earlier.backpressure_stalls,
        }
    }
}

/// The sites of one workload run.
pub struct Cluster {
    pub sites: Vec<Site>,
    taps: Vec<Arc<Tap>>,
    /// The taps' shared state; `None` in timed runs, which use the bare
    /// `TcpTransport`.
    pub tapped: Option<Arc<TapShared>>,
    /// First bind → last sign-on acknowledged.
    pub form_ms: f64,
}

impl Cluster {
    /// Bind `n` sites and sign all but the first on through the first.
    /// With `tapped`, every transport is wrapped in a [`Tap`].
    pub fn form(n: usize, tapped: bool) -> SdvmResult<Cluster> {
        let started = now_ns();
        let config = SiteConfig::default().with_password(PASSWORD);
        let registry = AppRegistry::new();
        let shared = tapped.then(|| Arc::new(TapShared::default()));
        let mut sites: Vec<Site> = Vec::with_capacity(n);
        let mut taps = Vec::new();
        for i in 0..n {
            let tcp = TcpTransport::bind("127.0.0.1:0")?;
            let transport: Arc<dyn Transport> = match &shared {
                Some(shared) => {
                    let tap = Tap::new(tcp, shared.clone(), i as u32);
                    taps.push(tap.clone());
                    tap
                }
                None => tcp,
            };
            let site = Site::new(config.clone(), transport, registry.clone(), None);
            match sites.first() {
                None => site.start_first(),
                Some(first) => site.sign_on(&first.addr())?,
            }
            sites.push(site);
        }
        if sites.is_empty() {
            return Err(SdvmError::InvalidState("a cluster needs a site".into()));
        }
        Ok(Cluster {
            sites,
            taps,
            tapped: shared,
            form_ms: (now_ns() - started) as f64 / 1e6,
        })
    }

    /// The cluster-wide counters right now.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for site in &self.sites {
            let inner = site.inner();
            let m = inner.metrics.snapshot();
            c.help_requests += m.help_requests;
            c.help_granted += m.help_granted;
            c.replica_hits += m.mem_replica_hits;
            c.replica_misses += m.mem_replica_misses;
            c.shard_contention += inner.memory.stats().shard_contention.iter().sum::<u64>();
            c.backpressure_stalls += inner.transport.outbound_stalls();
        }
        c
    }

    /// Total processing slots of the cluster.
    pub fn slots(&self) -> usize {
        self.sites.iter().map(|s| s.inner().config.slots).sum()
    }

    /// Stop every site and wait for its threads.
    pub fn teardown(self) {
        for site in &self.sites {
            site.crash();
        }
        drop(self.sites);
        for tap in &self.taps {
            tap.join();
        }
    }
}
