//! The five workloads. Each is a closed loop: a fixed number of chains,
//! every chain with exactly one frame in flight, so a slower system
//! receives less load. Load is frames inside the system, never
//! load-generator threads — the host has two cores.

pub mod chain;
pub mod objects;
pub mod relay;

use crate::cluster::Cluster;
use crate::record::{tracing, Recorder};
use sdvm_core::ProgramHandle;
use sdvm_types::{Priority, SchedulingHint, SdvmError, SdvmResult, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Hint of a frame that must run where it was created.
pub const STICKY: SchedulingHint = SchedulingHint {
    priority: Priority::NORMAL,
    sticky: true,
};

/// The span/frame id of step `step` of chain `chain`.
pub fn frame_id(chain: u32, step: u32) -> u64 {
    (chain as u64) << 32 | step as u64
}

/// What a workload is and why it exists (`BENCHMARK.json` repeats the
/// names and reasons).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Sites in the cluster.
    pub sites: usize,
    /// Chains (frames in flight).
    pub window: usize,
    /// Verified frames that end the warm-up and open the timed section.
    pub warmup_frames: u64,
    /// Start the chains on a freshly formed cluster.
    pub launch: fn(&Cluster, &Arc<RunCtl>) -> SdvmResult<Launched>,
}

/// Every workload, in the order they are reported.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "relay.k1",
        why: "one frame ping-pongs between 2 sites: pure cross-site career latency, nothing queued or batched",
        sites: 2,
        window: 1,
        warmup_frames: 100,
        launch: |c, ctl| relay::launch(c, ctl, 1),
    },
    Workload {
        name: "relay.k64",
        why: "64 relay chains in flight between 2 sites: message-path throughput, coalescing and batch sealing",
        sites: 2,
        window: 64,
        warmup_frames: 2_000,
        launch: |c, ctl| relay::launch(c, ctl, 64),
    },
    Workload {
        name: "fan.local",
        why: "64 collect-leaf chains on 1 site, no peer traffic: memory, scheduling, processing; bypasses wire, crypto, net",
        sites: 1,
        window: 64,
        warmup_frames: 30_000,
        launch: |c, ctl| chain::launch(c, ctl, 64, false),
    },
    Workload {
        name: "farm.s4",
        why: "20 chains on 4 sites, leaves sleep a seeded 2-8 ms and migrate by help request: the paper's Table 1 on the real runtime",
        sites: 4,
        window: 20,
        warmup_frames: 600,
        launch: |c, ctl| chain::launch(c, ctl, 20, true),
    },
    Workload {
        name: "objects.rw",
        why: "8 loops on one site read (90%) and write (10%) 1024 objects owned by the other: replica hits, remote fetch, write-through",
        sites: 2,
        window: 8,
        warmup_frames: 1_500,
        launch: objects::launch,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// State shared by the driver and the handlers of one run.
pub struct RunCtl {
    pub seed: u64,
    pub rec: Recorder,
    /// Set by the driver when the timed section is over: every chain
    /// ends at its next frame.
    pub stop: AtomicBool,
    /// Frames whose input failed verification.
    pub bad: AtomicU64,
    /// Whether this run records spans (only while tracing is switched on).
    pub traced: bool,
    /// Self-test: expect one frame more than ran, so the output check
    /// must fail.
    pub break_check: bool,
}

impl RunCtl {
    pub fn new(seed: u64, traced: bool, break_check: bool) -> Arc<RunCtl> {
        Arc::new(RunCtl {
            seed,
            rec: Recorder::new(),
            stop: AtomicBool::new(false),
            bad: AtomicU64::new(0),
            traced,
            break_check,
        })
    }

    /// Whether the chain should end now.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Note a frame whose input was not what the seed says it must be.
    pub fn reject(&self) {
        self.bad.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the handler of step `step` records spans: traced runs
    /// sample one step in `every`, so a workload running 100 k frames/s
    /// does not drown in its own trace.
    pub fn spans(&self, step: u64, every: u64) -> bool {
        self.traced && step.is_multiple_of(every) && tracing()
    }
}

/// Checks a run's outputs, given the value each program settled on.
pub type Verify = Box<dyn FnOnce(&[Value]) -> Verdict>;

/// A workload with its chains running.
pub struct Launched {
    /// One handle per program; all must settle for the run to count.
    pub handles: Vec<ProgramHandle>,
    /// Checks the outputs once every program has settled.
    pub verify: Verify,
}

/// The result of the output checks.
#[derive(Default)]
pub struct Verdict {
    /// Frames the programs say they ran.
    pub expected: u64,
    /// Frames whose handler ran and whose output verified.
    pub verified: u64,
    /// Every check that did not hold.
    pub problems: Vec<String>,
    /// Workload-specific per-layer values.
    pub extras: Vec<(&'static str, f64)>,
}

impl Verdict {
    /// Record `what` as a problem unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Little-endian field reader over a token.
pub struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Fields(bytes)
    }

    pub fn take(&mut self, n: usize) -> SdvmResult<&'a [u8]> {
        if self.0.len() < n {
            return Err(SdvmError::InvalidState("benchmark token too short".into()));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    pub fn u32(&mut self) -> SdvmResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("took 4 bytes"),
        ))
    }

    pub fn u64(&mut self) -> SdvmResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("took 8 bytes"),
        ))
    }
}
