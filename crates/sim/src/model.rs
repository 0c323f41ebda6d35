//! Simulation configuration: sites, network, cost model.

use sdvm_types::QueuePolicy;

/// Power model for the paper's SoC scenario (§2.2): "If the system's
/// power supply is low or sites are out of work, some sites are switched
/// to a sleep state" — organic-computing-style self-adaptation.
#[derive(Clone, Copy, Debug)]
pub struct PowerModel {
    /// Power while the CPU executes (W).
    pub active_watts: f64,
    /// Power while awake but idle (W).
    pub idle_watts: f64,
    /// Power while asleep (W).
    pub sleep_watts: f64,
    /// Idle time after which the site drops into the sleep state (s).
    pub sleep_after: f64,
    /// Latency to wake when work arrives (s).
    pub wake_latency: f64,
}

impl PowerModel {
    /// A 2005-ish embedded core: 1 W active, 300 mW idle, 10 mW asleep,
    /// sleeps after 5 ms idle, wakes in 1 ms.
    pub fn embedded() -> Self {
        PowerModel {
            active_watts: 1.0,
            idle_watts: 0.3,
            sleep_watts: 0.01,
            sleep_after: 5e-3,
            wake_latency: 1e-3,
        }
    }
}

/// One modelled site.
#[derive(Clone, Debug)]
pub struct SimSite {
    /// Relative CPU speed (work units per virtual second = `1e6 * speed`).
    pub speed: f64,
    /// Platform id; sites whose platform differs from the program's home
    /// platform must compile microthreads from source on first use.
    pub platform: u16,
    /// Virtual time the site joins (0.0 = founding member).
    pub join_at: f64,
    /// Orderly departure time, if any.
    pub leave_at: Option<f64>,
    /// Crash time, if any.
    pub crash_at: Option<f64>,
    /// Optional power model: the site sleeps when idle and pays a wake
    /// latency when work arrives (the SDVM-on-SoC proposal, §2.2).
    pub power: Option<PowerModel>,
    /// Position in latency space, in *seconds*: the one-way latency
    /// between two sites is `net.latency + |pos_a - pos_b|`. All-zero
    /// positions reproduce the flat uniform network the older
    /// experiments assume; clustered topologies place islands apart to
    /// exercise proximity routing (wire v9).
    pub pos: (f64, f64, f64),
}

impl Default for SimSite {
    fn default() -> Self {
        SimSite {
            speed: 1.0,
            platform: 0,
            join_at: 0.0,
            leave_at: None,
            crash_at: None,
            power: None,
            pos: (0.0, 0.0, 0.0),
        }
    }
}

impl SimSite {
    /// A homogeneous reference site.
    pub fn reference() -> Self {
        Self::default()
    }

    /// A site with the given relative speed.
    pub fn with_speed(speed: f64) -> Self {
        SimSite {
            speed,
            ..Self::default()
        }
    }

    /// A reference site placed at `pos` in latency space (seconds).
    pub fn at(pos: (f64, f64, f64)) -> Self {
        SimSite {
            pos,
            ..Self::default()
        }
    }
}

/// Message cost model: `latency + bytes / bandwidth` virtual seconds.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// Per-message latency in seconds (LAN ≈ 1e-4).
    pub latency: f64,
    /// Bandwidth in bytes per second (100 Mbit/s ≈ 1.25e7).
    pub bandwidth: f64,
}

impl NetworkModel {
    /// A 2005-era switched 100 Mbit/s LAN (the paper's setting).
    pub fn lan() -> Self {
        NetworkModel {
            latency: 2e-4,
            bandwidth: 1.25e7,
        }
    }

    /// A WAN/internet-ish link (public resource computing).
    pub fn wan() -> Self {
        NetworkModel {
            latency: 3e-2,
            bandwidth: 1.25e6,
        }
    }

    /// Message transfer time for a payload of `bytes`.
    pub fn transfer(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// Pairwise transfer time: base latency plus the positional
    /// distance between the endpoints plus serialization. With `dist`
    /// zero this is exactly [`NetworkModel::transfer`].
    pub fn transfer_dist(&self, dist: f64, bytes: u64) -> f64 {
        self.latency + dist + bytes as f64 / self.bandwidth
    }
}

/// How node costs translate into CPU time and blocking reads.
#[derive(Clone, Copy, Debug)]
pub struct TaskCostModel {
    /// Work units executed per virtual second on a speed-1.0 site.
    pub units_per_sec: f64,
    /// Blocking remote reads per task (splits the CPU work into
    /// `remote_reads + 1` segments with blocking gaps — the latency the
    /// paper hides with ~5 virtual-parallel microthreads).
    pub remote_reads: u32,
    /// Duration of one blocking read (s).
    pub read_latency: f64,
    /// Context-switch overhead charged per CPU segment start (s).
    pub switch_overhead: f64,
    /// CPU time the *receiving* site spends handling one inter-site
    /// message (deserialization, manager dispatch). The paper's ~85%
    /// efficiency at both 4 and 8 sites implies a per-site distribution
    /// overhead roughly proportional to message traffic; this models it.
    pub msg_overhead: f64,
}

impl Default for TaskCostModel {
    fn default() -> Self {
        TaskCostModel {
            units_per_sec: 1e6,
            remote_reads: 0,
            read_latency: 0.0,
            switch_overhead: 2e-6,
            msg_overhead: 0.0,
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The sites.
    pub sites: Vec<SimSite>,
    /// The network.
    pub net: NetworkModel,
    /// Cost model.
    pub cost: TaskCostModel,
    /// Processing slots per site (the paper's ~5).
    pub slots: usize,
    /// Local queue policy (paper: FIFO). `Priority` pops by the CDAG's
    /// b-levels, which are then computed once per run.
    pub local_policy: QueuePolicy,
    /// Help-reply policy (paper: LIFO); `Priority` as for `local_policy`.
    pub help_policy: QueuePolicy,
    /// Initial backoff after a fruitless help round (s); doubles up to
    /// 128x, resets when work arrives.
    pub help_backoff: f64,
    /// Time to fetch a platform binary from a code site (s).
    pub binary_fetch: f64,
    /// Time to compile a microthread from source on the fly (s).
    pub compile: f64,
    /// Crash detection delay before recovery begins (s).
    pub crash_detect: f64,
    /// Record per-site execution intervals (for timeline/Gantt output).
    /// Off by default: large runs produce many intervals.
    pub record_timeline: bool,
    /// Rank help targets by Vivaldi-predicted proximity once each
    /// site's coordinate converges, as the runtime always does. Off by
    /// default so the older flat-network experiments keep their uniform
    /// selection; `scale_sim` runs both arms.
    pub proximity_routing: bool,
    /// Modelled transport-driver pollers per site: the fixed thread
    /// pool of the event-driven socket driver. Message handling at a
    /// site occupies one effective driver for `driver_service /
    /// net_drivers` virtual seconds; a saturated driver queues
    /// deliveries (the poller-capacity limit at 1000-site scale).
    pub net_drivers: usize,
    /// Driver occupancy per handled message (s). `0.0` — the default —
    /// disables the capacity model entirely (infinite driver).
    pub driver_service: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            sites: vec![SimSite::reference()],
            net: NetworkModel::lan(),
            cost: TaskCostModel::default(),
            slots: 5,
            local_policy: QueuePolicy::Fifo,
            help_policy: QueuePolicy::Lifo,
            help_backoff: 5e-4,
            binary_fetch: 2e-3,
            compile: 5e-2,
            crash_detect: 0.5,
            record_timeline: false,
            proximity_routing: false,
            net_drivers: 4,
            driver_service: 0.0,
        }
    }
}

impl SimConfig {
    /// A homogeneous cluster of `n` reference sites on a LAN.
    pub fn homogeneous(n: usize) -> Self {
        SimConfig {
            sites: vec![SimSite::reference(); n],
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.slots, 5);
        assert_eq!(c.local_policy, QueuePolicy::Fifo);
        assert_eq!(c.help_policy, QueuePolicy::Lifo);
    }

    #[test]
    fn transfer_cost_monotone_in_bytes() {
        let n = NetworkModel::lan();
        assert!(n.transfer(10_000) > n.transfer(10));
        assert!(n.transfer(0) >= n.latency);
    }

    #[test]
    fn wan_slower_than_lan() {
        assert!(NetworkModel::wan().transfer(1000) > NetworkModel::lan().transfer(1000));
    }
}
