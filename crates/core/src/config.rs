//! Per-site configuration.

use sdvm_types::{IdAllocStrategy, PlatformId, QueuePolicy};
use std::time::Duration;

/// Configuration of one SDVM site (daemon).
#[derive(Clone, Debug)]
pub struct SiteConfig {
    /// Platform id of this machine (architecture + OS); drives the code
    /// manager's binary-vs-source decisions on heterogeneous clusters.
    pub platform: PlatformId,
    /// Relative CPU speed announced to the cluster (1.0 = reference).
    pub speed: f64,
    /// Number of microthreads executed in (virtual) parallel by the
    /// processing manager to hide memory/communication latency. The paper
    /// found "about 5" to work well (§4); experiment E3 sweeps this.
    pub slots: usize,
    /// Local scheduling discipline (paper: FIFO, against starvation).
    pub local_policy: QueuePolicy,
    /// Discipline used when answering help requests (paper: LIFO, for
    /// latency hiding).
    pub help_policy: QueuePolicy,
    /// Start password enabling the security manager; `None` runs the
    /// cluster unencrypted ("insular cluster", §4).
    pub password: Option<String>,
    /// Volunteer as a code distribution site (stores every microthread).
    pub code_distribution: bool,
    /// Simulated duration of compiling a microthread's source on the fly.
    pub compile_latency: Duration,
    /// Simulated per-artifact transfer cost added when receiving binary
    /// code (zero by default; E10 uses it).
    pub binary_fetch_latency: Duration,
    /// How logical site ids are allocated (paper discusses three concepts).
    pub id_alloc: IdAllocStrategy,
    /// Mirror frames/objects to a backup site and recover them when a
    /// site crashes (the paper's crash management, §2.2/\[4\]).
    pub crash_tolerance: bool,
    /// Heartbeat gossip period.
    pub heartbeat_interval: Duration,
    /// Silence after which a site is declared crashed (when crash
    /// tolerance is on).
    pub crash_timeout: Duration,
    /// Use the two-phase (suspect → confirm) failure detector: silence
    /// past `suspect_timeout` only *suspects* a site and triggers
    /// indirect probes; `declare_crashed` needs silence past
    /// `crash_timeout` or a quorum of gossiped suspicions. Off, silence
    /// past `crash_timeout` kills directly (the pre-suspicion behavior).
    pub suspicion: bool,
    /// Silence after which a site becomes *suspected* (two-phase
    /// detector only). Must be below `crash_timeout` to buy the suspect
    /// a probing window before the verdict.
    pub suspect_timeout: Duration,
    /// How many other members are asked to probe a suspect indirectly.
    pub probe_fanout: usize,
    /// Gossiped suspicions (distinct accusers, this site included) that
    /// escalate a suspect to crashed before `crash_timeout` elapses.
    pub suspicion_quorum: usize,
    /// How long an idle worker waits for a help reply before trying the
    /// next site.
    pub help_timeout: Duration,
    /// Timeout for blocking remote operations (memory reads, code fetch).
    pub request_timeout: Duration,
    /// How often a microframe that failed on an *infrastructure* error
    /// (transport, timeout, missing object) is re-tried before it is
    /// escalated to the dead-letter store as poison.
    pub max_frame_retries: u32,
    /// Backoff before the first retry; doubles per attempt (capped by
    /// `retry_backoff_cap`). Deterministic — no jitter — so drills can
    /// assert the exact delay schedule.
    pub retry_backoff_base: Duration,
    /// Upper bound on the per-retry backoff.
    pub retry_backoff_cap: Duration,
    /// Quiet period after which a frontend program with an undelivered
    /// result, no runnable frames and no in-flight requests is declared
    /// stuck (watchdog; the waiter gets `SdvmError::ProgramStuck`).
    pub stuck_timeout: Duration,
    /// Number of address-hashed shards the attraction memory is split
    /// into. More shards, less lock contention between workers touching
    /// unrelated objects; 1 reproduces the old single-mutex store.
    pub mem_shards: usize,
    /// Cache non-migrating remote reads as local replicas (copyset
    /// tracked at the owner, invalidated on write). Off, every remote
    /// read re-crosses the wire.
    pub replica_reads: bool,
    /// Lease on a cached replica: a replica older than this is ignored
    /// and re-fetched. Bounds staleness when an invalidation is lost
    /// (e.g. dropped during a network partition).
    pub replica_ttl: Duration,
    /// Bind address for the ops-plane HTTP listener serving
    /// `GET /metrics`, `/healthz` and `/status` (e.g. `"127.0.0.1:0"`
    /// to let the OS pick a port). `None` (the default) runs no
    /// listener at all — the hot path then pays nothing for the ops
    /// plane beyond the relaxed counter loads it already does.
    pub ops_addr: Option<String>,
    /// Directory where the flight recorder writes
    /// `postmortem-<site>-<seq>.json` black boxes on crash verdicts,
    /// frame quarantines, result divergence, or stuck programs.
    /// `None` (the default) disables the recorder.
    pub postmortem_dir: Option<std::path::PathBuf>,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            platform: PlatformId(0),
            speed: 1.0,
            slots: 5,
            local_policy: QueuePolicy::Fifo,
            help_policy: QueuePolicy::Lifo,
            password: None,
            code_distribution: false,
            compile_latency: Duration::from_millis(20),
            binary_fetch_latency: Duration::ZERO,
            id_alloc: IdAllocStrategy::CentralServer,
            crash_tolerance: false,
            heartbeat_interval: Duration::from_millis(100),
            crash_timeout: Duration::from_millis(600),
            suspicion: true,
            suspect_timeout: Duration::from_millis(300),
            probe_fanout: 3,
            suspicion_quorum: 2,
            help_timeout: Duration::from_millis(100),
            request_timeout: Duration::from_secs(5),
            max_frame_retries: 5,
            retry_backoff_base: Duration::from_millis(10),
            retry_backoff_cap: Duration::from_millis(500),
            stuck_timeout: Duration::from_secs(30),
            mem_shards: 8,
            replica_reads: true,
            replica_ttl: Duration::from_secs(2),
            ops_addr: None,
            postmortem_dir: None,
        }
    }
}

impl SiteConfig {
    /// Shorthand: default config with crash tolerance enabled.
    pub fn with_crash_tolerance(mut self) -> Self {
        self.crash_tolerance = true;
        self
    }

    /// Shorthand: default config with the given start password.
    pub fn with_password(mut self, pw: &str) -> Self {
        self.password = Some(pw.to_string());
        self
    }

    /// Shorthand: disable the two-phase detector (single-timeout kill).
    pub fn without_suspicion(mut self) -> Self {
        self.suspicion = false;
        self
    }

    /// Shorthand: set the retry budget and backoff schedule.
    pub fn with_retry_budget(mut self, retries: u32, base: Duration, cap: Duration) -> Self {
        self.max_frame_retries = retries;
        self.retry_backoff_base = base;
        self.retry_backoff_cap = cap;
        self
    }

    /// Shorthand: set the stuck-program watchdog timeout.
    pub fn with_stuck_timeout(mut self, t: Duration) -> Self {
        self.stuck_timeout = t;
        self
    }

    /// Shorthand: set the attraction-memory shard count.
    pub fn with_mem_shards(mut self, n: usize) -> Self {
        self.mem_shards = n.max(1);
        self
    }

    /// Shorthand: disable replica caching of remote reads.
    pub fn without_replica_reads(mut self) -> Self {
        self.replica_reads = false;
        self
    }

    /// Shorthand: set the replica staleness lease.
    pub fn with_replica_ttl(mut self, t: Duration) -> Self {
        self.replica_ttl = t;
        self
    }

    /// Shorthand: serve the ops-plane HTTP endpoints on `addr`
    /// (`"127.0.0.1:0"` picks a free port; query it via
    /// [`crate::site::Site::ops_addr`] after start).
    pub fn with_ops_addr(mut self, addr: &str) -> Self {
        self.ops_addr = Some(addr.to_string());
        self
    }

    /// Shorthand: enable the flight recorder, writing postmortem black
    /// boxes into `dir`.
    pub fn with_postmortem_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.postmortem_dir = Some(dir.into());
        self
    }

    /// Backoff before retry attempt `n` (1-based): `base · 2^(n-1)`,
    /// capped. Deterministic so tests can assert the schedule.
    pub fn retry_backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.retry_backoff_base
            .saturating_mul(factor)
            .min(self.retry_backoff_cap)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SiteConfig::default();
        assert_eq!(c.slots, 5, "paper: about 5 virtual-parallel microthreads");
        assert_eq!(c.local_policy, QueuePolicy::Fifo);
        assert_eq!(c.help_policy, QueuePolicy::Lifo);
        assert!(
            c.password.is_none(),
            "security off by default on insular clusters"
        );
    }

    #[test]
    fn retry_backoff_schedule_is_deterministic_and_capped() {
        let c = SiteConfig::default().with_retry_budget(
            4,
            Duration::from_millis(10),
            Duration::from_millis(35),
        );
        assert_eq!(c.retry_backoff(1), Duration::from_millis(10));
        assert_eq!(c.retry_backoff(2), Duration::from_millis(20));
        assert_eq!(c.retry_backoff(3), Duration::from_millis(35), "capped");
        assert_eq!(c.retry_backoff(4), Duration::from_millis(35));
        // Huge attempt numbers don't overflow.
        assert_eq!(c.retry_backoff(1000), Duration::from_millis(35));
    }

    #[test]
    fn builders() {
        let c = SiteConfig::default()
            .with_crash_tolerance()
            .with_password("pw");
        assert!(c.crash_tolerance);
        assert_eq!(c.password.as_deref(), Some("pw"));
        assert!(c.suspicion, "two-phase detector on by default");
        assert!(!c.clone().without_suspicion().suspicion);
        assert!(
            c.suspect_timeout < c.crash_timeout,
            "suspicion must precede the verdict"
        );
    }
}
