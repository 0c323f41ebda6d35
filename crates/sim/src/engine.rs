//! The simulation engine.

use crate::event::{Event, EventQueue};
use crate::metrics::SimMetrics;
use crate::model::SimConfig;
use sdvm_cdag::{Cdag, CdagAnalysis};
use sdvm_types::{pick_help_target, Candidate, QueuePolicy, VivaldiState};
use std::collections::{HashMap, HashSet, VecDeque};

/// Wire-size estimate of a migrating microframe (id, thread pointer,
/// filled slots, targets) — matches the runtime's typical HelpReply.
const FRAME_BYTES: u64 = 256;
/// Wire-size of a help request / can't-help message.
const CTRL_BYTES: u64 = 64;
/// Hard ceiling on processed events (runaway guard).
const EVENT_BUDGET: u64 = 200_000_000;

#[derive(Clone, Copy, PartialEq, Debug)]
enum NodeStatus {
    /// Frame not allocated yet (no parameter produced so far).
    Unborn,
    /// Allocated, waiting for parameters.
    Waiting,
    /// Executable, queued at its site.
    Queued,
    /// In flight between sites.
    Migrating,
    /// Executing.
    Open,
    /// Executed.
    Done,
}

struct NodeState {
    missing: usize,
    location: Option<usize>,
    status: NodeStatus,
    priority: i64,
}

struct OpenTask {
    site: usize,
    /// CPU segments still to run (including the current one).
    segments_left: u32,
    seg_duration: f64,
    waiting_code: bool,
}

struct SiteState {
    alive: bool,
    accepting: bool,
    queue: VecDeque<usize>,
    open: usize,
    cpu_busy: bool,
    cpu_queue: VecDeque<usize>,
    code: HashSet<u32>,
    backoff: f64,
    outstanding_help: bool,
    rr: usize,
    busy: f64,
    executed: u64,
    /// Accumulated message-handling CPU time, folded into the next
    /// segment start (delays real work, as handler threads would).
    cpu_debt: f64,
    /// Power management (§2.2 SoC): asleep flag, idle-epoch counter for
    /// stale sleep checks, and accumulated sleep seconds.
    asleep: bool,
    idle_epoch: u64,
    sleep_started: f64,
    slept: f64,
    /// Earliest virtual time the site's transport driver (the fixed
    /// poller pool) is free to handle another message. Only meaningful
    /// when `SimConfig::driver_service > 0`.
    driver_free_at: f64,
    /// This site's Vivaldi coordinate, learned from help round-trips
    /// (the sim analogue of RTTs piggybacked on probes/heartbeats).
    vivaldi: VivaldiState,
    /// When the in-flight help request left, and to whom — one is
    /// outstanding at a time (`outstanding_help`).
    help_sent_at: f64,
    help_target: usize,
}

/// One simulation run: a CDAG executed on a modelled SDVM cluster.
pub struct Simulation {
    cfg: SimConfig,
    graph: Cdag,
    nodes: Vec<NodeState>,
    sites: Vec<SiteState>,
    open_tasks: HashMap<usize, OpenTask>,
    queue: EventQueue,
    now: f64,
    done: usize,
    metrics: SimMetrics,
    /// True once every node executed.
    pub completed: bool,
}

impl Simulation {
    /// Prepare a run of `graph` under `cfg`.
    pub fn new(cfg: SimConfig, graph: Cdag) -> Self {
        assert!(!cfg.sites.is_empty(), "need at least one site");
        assert!(cfg.slots >= 1, "need at least one processing slot");
        let priorities: Vec<i64> = if cfg.use_hints {
            let a = CdagAnalysis::analyse(&graph).expect("acyclic CDAG");
            a.b_level.iter().map(|&b| b as i64).collect()
        } else {
            vec![0; graph.node_count()]
        };
        let nodes = graph
            .node_ids()
            .map(|n| NodeState {
                missing: graph.in_degree(n),
                location: None,
                status: NodeStatus::Unborn,
                priority: priorities[n],
            })
            .collect();
        let sites = cfg
            .sites
            .iter()
            .map(|s| SiteState {
                alive: s.join_at == 0.0,
                accepting: s.join_at == 0.0,
                queue: VecDeque::new(),
                open: 0,
                cpu_busy: false,
                cpu_queue: VecDeque::new(),
                code: HashSet::new(),
                backoff: cfg.help_backoff,
                outstanding_help: false,
                rr: 0,
                busy: 0.0,
                executed: 0,
                cpu_debt: 0.0,
                asleep: false,
                idle_epoch: 0,
                sleep_started: 0.0,
                slept: 0.0,
                driver_free_at: 0.0,
                vivaldi: VivaldiState::default(),
                help_sent_at: 0.0,
                help_target: 0,
            })
            .collect();
        let timeline = vec![Vec::new(); cfg.sites.len()];
        Simulation {
            metrics: SimMetrics {
                timeline,
                ..SimMetrics::default()
            },
            cfg,
            graph,
            nodes,
            sites,
            open_tasks: HashMap::new(),
            queue: EventQueue::new(),
            now: 0.0,
            done: 0,
            completed: false,
        }
    }

    /// Execute to completion (or until no events remain / the event
    /// budget is exhausted) and return the metrics.
    pub fn run(mut self) -> SimMetrics {
        assert!(
            self.sites[0].alive,
            "site 0 is the starting site and must be a founding member"
        );
        // Membership events.
        for (i, s) in self.cfg.sites.clone().iter().enumerate() {
            if s.join_at > 0.0 {
                self.queue.push(s.join_at, Event::Join { site: i });
            }
            if let Some(t) = s.leave_at {
                self.queue.push(t, Event::Leave { site: i });
            }
            if let Some(t) = s.crash_at {
                self.queue.push(t, Event::Crash { site: i });
            }
        }
        // The starting site has the program installed: binaries for all
        // microthreads are present from the start.
        let all_threads: HashSet<u32> = self
            .graph
            .node_ids()
            .map(|n| self.graph.node(n).thread_index)
            .collect();
        self.sites[0].code = all_threads;
        // Founding members with nothing to do immediately start asking
        // for work (their processing managers are idle from the start).
        for i in 1..self.sites.len() {
            if self.sites[i].alive {
                self.queue.push(0.0, Event::TryHelp { site: i });
            }
        }
        // Roots start on site 0 (the site the application was started on).
        let roots = self.graph.roots();
        for r in roots {
            self.nodes[r].location = Some(0);
            self.nodes[r].status = NodeStatus::Waiting;
            if self.nodes[r].missing == 0 {
                self.make_executable(r, 0);
            }
        }
        let total = self.graph.node_count();
        while self.done < total {
            let Some((t, ev)) = self.queue.pop() else {
                break; // stranded: no work can complete any more
            };
            self.now = t;
            self.metrics.events += 1;
            if self.metrics.events > EVENT_BUDGET {
                break;
            }
            self.handle(ev);
        }
        self.completed = self.done == total;
        self.metrics.makespan = self.now;
        self.metrics.busy = self.sites.iter().map(|s| s.busy).collect();
        self.metrics.executed_per_site = self.sites.iter().map(|s| s.executed).collect();
        // Energy accounting for power-modelled sites: active while the
        // CPU ran, sleeping while in the sleep state, idle otherwise.
        let makespan = self.now;
        self.metrics.slept = self
            .sites
            .iter()
            .map(|s| {
                s.slept
                    + if s.asleep {
                        makespan - s.sleep_started
                    } else {
                        0.0
                    }
            })
            .collect();
        self.metrics.energy = self
            .cfg
            .sites
            .iter()
            .zip(self.sites.iter().zip(self.metrics.slept.iter()))
            .map(|(cfg, (st, &slept))| match cfg.power {
                None => 0.0,
                Some(p) => {
                    let window = (makespan - cfg.join_at).max(0.0);
                    let active = st.busy.min(window);
                    let idle = (window - active - slept).max(0.0);
                    p.active_watts * active + p.idle_watts * idle + p.sleep_watts * slept
                }
            })
            .collect();
        self.metrics
    }

    // ---- power management (§2.2 SoC scenario) ----

    /// The site did something: cancel any pending sleep verdict and wake
    /// it if asleep (caller pays the wake latency where appropriate).
    fn mark_active(&mut self, site: usize) {
        self.sites[site].idle_epoch += 1;
        if self.sites[site].asleep {
            self.wake(site);
        }
    }

    fn wake(&mut self, site: usize) {
        let s = &mut self.sites[site];
        if s.asleep {
            s.asleep = false;
            s.slept += self.now - s.sleep_started;
            s.idle_epoch += 1;
            // A freshly woken site looks for work once it is up.
            if let Some(p) = self.cfg.sites[site].power {
                self.queue
                    .push(self.now + p.wake_latency, Event::TryHelp { site });
            }
        }
    }

    /// The site has (possibly) gone idle: start the sleep countdown.
    fn consider_sleep(&mut self, site: usize) {
        let Some(p) = self.cfg.sites[site].power else {
            return;
        };
        let s = &self.sites[site];
        if s.asleep || !s.accepting || s.open > 0 || !s.queue.is_empty() {
            return;
        }
        let epoch = s.idle_epoch;
        self.queue
            .push(self.now + p.sleep_after, Event::MaybeSleep { site, epoch });
    }

    fn on_maybe_sleep(&mut self, site: usize, epoch: u64) {
        let s = &mut self.sites[site];
        if s.asleep || s.idle_epoch != epoch || s.open > 0 || !s.queue.is_empty() {
            return; // woke up or got work in the meantime
        }
        s.asleep = true;
        s.sleep_started = self.now;
        s.outstanding_help = false;
    }

    /// An overloaded site activates every sleeping peer — "if a fast
    /// execution is needed, all sites on a chip get activated" (§2.2).
    fn wake_a_sleeper(&mut self, from: usize) {
        let targets: Vec<usize> = (0..self.sites.len())
            .filter(|&i| i != from && self.sites[i].asleep && self.sites[i].accepting)
            .collect();
        for target in targets {
            let latency = self.msg_delay(from, target, CTRL_BYTES);
            self.queue
                .push(self.now + latency, Event::Wake { site: target });
        }
    }

    // ---- the network model: pairwise latency + driver capacity ----

    /// Positional distance between two sites in latency seconds.
    fn dist(&self, a: usize, b: usize) -> f64 {
        let pa = self.cfg.sites[a].pos;
        let pb = self.cfg.sites[b].pos;
        let (dx, dy, dz) = (pa.0 - pb.0, pa.1 - pb.1, pa.2 - pb.2);
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Delivery delay for one message `from → to`: pairwise transfer
    /// time plus queueing at the receiver's transport driver. The
    /// driver is the event-driven poller pool: `net_drivers` effective
    /// servers, each message occupying it for `driver_service /
    /// net_drivers` seconds — when the pool is saturated, deliveries
    /// queue behind each other (the capacity limit a fixed pool has at
    /// 1000-site scale). `driver_service == 0` disables the model.
    fn msg_delay(&mut self, from: usize, to: usize, bytes: u64) -> f64 {
        let base = self.cfg.net.transfer_dist(self.dist(from, to), bytes);
        if self.cfg.driver_service <= 0.0 {
            return base;
        }
        let service = self.cfg.driver_service / self.cfg.net_drivers.max(1) as f64;
        let arrival = self.now + base;
        let start = arrival.max(self.sites[to].driver_free_at);
        self.sites[to].driver_free_at = start + service;
        let queued = start - arrival;
        self.metrics.driver_queueing += queued;
        base + queued + service
    }

    /// A help response (grant or can't-help) just arrived: the
    /// round-trip time is a latency sample for this site's Vivaldi
    /// coordinate, fed to the runtime's own update rule (in ms, its
    /// unit) exactly as the runtime samples probe/help RTTs.
    fn note_help_rtt(&mut self, site: usize) {
        if !self.sites[site].outstanding_help {
            return;
        }
        let rtt = self.now - self.sites[site].help_sent_at;
        let peer = self.sites[site].help_target;
        if rtt <= 0.0 || peer == site {
            return;
        }
        self.metrics.help_rtt.push(rtt);
        let peer_coord = self.sites[peer].vivaldi.coord;
        self.sites[site].vivaldi.observe(&peer_coord, rtt * 1e3);
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::SegmentDone { site, node } => self.on_segment_done(site, node),
            Event::ReadDone { site, node } => self.on_read_done(site, node),
            Event::ResultArrive { node } => {
                if let Some(loc) = self.nodes[node].location {
                    self.charge_msg(loc);
                }
                self.apply_result(node)
            }
            Event::FrameArrive { site, node } => self.on_frame_arrive(site, node),
            Event::HelpArrive { site, from } => self.on_help_arrive(site, from),
            Event::CantHelpArrive { site } => self.on_cant_help(site),
            Event::TryHelp { site } => self.try_help(site),
            Event::CodeReady { site, node } => self.on_code_ready(site, node),
            Event::Join { site } => self.on_join(site),
            Event::Leave { site } => self.on_leave(site),
            Event::Crash { site } => self.on_crash(site),
            Event::MaybeSleep { site, epoch } => self.on_maybe_sleep(site, epoch),
            Event::Wake { site } => self.wake(site),
        }
    }

    // ---- dataflow ----

    /// Charge the receiving site the CPU cost of handling one data
    /// message (frames and results; fixed-size control messages like
    /// help requests are negligible by comparison).
    fn charge_msg(&mut self, site: usize) {
        self.sites[site].cpu_debt += self.cfg.cost.msg_overhead;
    }

    /// A result for `node` was produced (already routed): decrement the
    /// missing count; fire when complete.
    fn apply_result(&mut self, node: usize) {
        let st = &mut self.nodes[node];
        if st.status == NodeStatus::Done {
            return; // duplicate after crash re-execution
        }
        st.missing = st.missing.saturating_sub(1);
        // In-flight or open frames fire on arrival/are already running;
        // Unborn cannot happen (a result implies the frame was allocated
        // by its producer).
        if st.missing == 0 && st.status == NodeStatus::Waiting {
            let loc = st.location.expect("waiting frame has a location");
            self.make_executable(node, loc);
        }
    }

    fn make_executable(&mut self, node: usize, site: usize) {
        self.nodes[node].status = NodeStatus::Queued;
        self.nodes[node].location = Some(site);
        // A dead/draining site reroutes instantly to its successor.
        if !self.sites[site].accepting {
            let succ = self.successor_of(site);
            self.nodes[node].status = NodeStatus::Migrating;
            self.metrics.migrations += 1;
            let delay = self.msg_delay(site, succ, FRAME_BYTES);
            self.queue
                .push(self.now + delay, Event::FrameArrive { site: succ, node });
            return;
        }
        self.sites[site].queue.push_back(node);
        self.fill_slots(site);
    }

    /// Open queued tasks — but only while the CPU has nothing runnable.
    /// The paper's processing slots exist to *hide latency* (switch to
    /// another microthread while one waits on memory/code), not to
    /// commit work early: frames stay in the stealable queue until a
    /// slot can actually make progress on them. A frame may be staged
    /// one step ahead (the scheduling manager's "ready queue").
    fn fill_slots(&mut self, site: usize) {
        while self.sites[site].open < self.cfg.slots
            && !self.sites[site].cpu_busy
            && self.sites[site].cpu_queue.is_empty()
        {
            let Some(node) = self.pop_queue(site, self.cfg.local_policy) else {
                break;
            };
            self.open_task(site, node);
        }
        let s = &self.sites[site];
        if s.accepting && s.open < self.cfg.slots && s.queue.is_empty() && !s.outstanding_help {
            self.queue.push(self.now, Event::TryHelp { site });
        }
        if self.sites[site].open == 0 && self.sites[site].queue.is_empty() {
            self.consider_sleep(site);
        } else if self.sites[site].queue.len() > self.cfg.slots {
            // More work queued than this site can take: wake a sleeper
            // ("if a fast execution is needed, all sites get activated").
            self.wake_a_sleeper(site);
        }
    }

    fn pop_queue(&mut self, site: usize, policy: QueuePolicy) -> Option<usize> {
        let nodes = &self.nodes;
        policy.pop(&mut self.sites[site].queue, |&n| nodes[n].priority)
    }

    fn open_task(&mut self, site: usize, node: usize) {
        self.nodes[node].status = NodeStatus::Open;
        self.nodes[node].location = Some(site);
        self.sites[site].open += 1;
        let thread = self.graph.node(node).thread_index;
        let speed = self.cfg.sites[site].speed.max(1e-9);
        let cpu_time = self.graph.node(node).cost as f64 / (self.cfg.cost.units_per_sec * speed);
        let segments = self.cfg.cost.remote_reads + 1;
        let seg_duration = cpu_time / segments as f64;
        let needs_code = !self.sites[site].code.contains(&thread);
        self.open_tasks.insert(
            node,
            OpenTask {
                site,
                segments_left: segments,
                seg_duration,
                waiting_code: needs_code,
            },
        );
        if needs_code {
            // First execution of this microthread here: fetch the binary
            // (same platform as the program's home site 0) or compile
            // from source (foreign platform).
            // Code travels from the home/code site (site 0).
            let fetch = self.msg_delay(0, site, FRAME_BYTES);
            let delay = if self.cfg.sites[site].platform == self.cfg.sites[0].platform {
                self.metrics.binary_fetches += 1;
                self.cfg.binary_fetch + fetch
            } else {
                self.metrics.compiles += 1;
                self.cfg.compile + fetch
            };
            self.queue
                .push(self.now + delay, Event::CodeReady { site, node });
        } else {
            self.segment_runnable(site, node);
        }
    }

    fn on_code_ready(&mut self, site: usize, node: usize) {
        let Some(task) = self.open_tasks.get_mut(&node) else {
            return; // crashed meanwhile
        };
        if task.site != site || !task.waiting_code {
            return;
        }
        task.waiting_code = false;
        self.sites[site]
            .code
            .insert(self.graph.node(node).thread_index);
        self.segment_runnable(site, node);
    }

    /// A task's next CPU segment is ready to run: start it if the CPU is
    /// free, else queue it.
    fn segment_runnable(&mut self, site: usize, node: usize) {
        if self.sites[site].cpu_busy {
            self.sites[site].cpu_queue.push_back(node);
        } else {
            self.start_segment(site, node);
        }
    }

    fn start_segment(&mut self, site: usize, node: usize) {
        let Some(task) = self.open_tasks.get(&node) else {
            return;
        };
        let dur = self.cfg.cost.switch_overhead
            + task.seg_duration
            + std::mem::take(&mut self.sites[site].cpu_debt);
        self.sites[site].cpu_busy = true;
        self.sites[site].busy += dur;
        if self.cfg.record_timeline {
            self.metrics.timeline[site].push((self.now, self.now + dur, node));
        }
        self.queue
            .push(self.now + dur, Event::SegmentDone { site, node });
    }

    fn on_segment_done(&mut self, site: usize, node: usize) {
        // Stale after a crash?
        let valid = self
            .open_tasks
            .get(&node)
            .map(|t| t.site == site)
            .unwrap_or(false);
        if !self.sites[site].alive && !valid {
            return;
        }
        if !valid {
            return;
        }
        self.sites[site].cpu_busy = false;
        // Start the next queued segment of some other task.
        if let Some(next) = self.sites[site].cpu_queue.pop_front() {
            self.start_segment(site, next);
        }
        let task = self.open_tasks.get_mut(&node).expect("validated above");
        task.segments_left -= 1;
        if task.segments_left == 0 {
            self.complete_task(site, node);
            return;
        }
        {
            // Blocking remote read between segments (latency the slots
            // are there to hide).
            self.queue.push(
                self.now + self.cfg.cost.read_latency,
                Event::ReadDone { site, node },
            );
        }
        // The blocked task freed the CPU: let another queued frame open
        // (this is exactly the latency hiding the ~5 slots provide).
        if !self.sites[site].cpu_busy {
            self.fill_slots(site);
        }
    }

    fn on_read_done(&mut self, site: usize, node: usize) {
        let valid = self
            .open_tasks
            .get(&node)
            .map(|t| t.site == site)
            .unwrap_or(false);
        if !valid {
            return;
        }
        self.segment_runnable(site, node);
    }

    fn complete_task(&mut self, site: usize, node: usize) {
        self.open_tasks.remove(&node);
        self.sites[site].open -= 1;
        self.sites[site].executed += 1;
        self.metrics.tasks_executed += 1;
        self.nodes[node].status = NodeStatus::Done;
        self.done += 1;
        // Route results to successor frames (allocating them here if this
        // is their first parameter — frames are allocated as early as
        // possible, on the producer's site).
        let succs: Vec<(usize, u64)> = self
            .graph
            .succs(node)
            .map(|e| (e.to, e.data_bytes))
            .collect();
        for (dst, bytes) in succs {
            if self.nodes[dst].status == NodeStatus::Done {
                continue;
            }
            if self.nodes[dst].location.is_none() {
                self.nodes[dst].location = Some(site);
                self.nodes[dst].status = NodeStatus::Waiting;
            }
            let loc = self.nodes[dst].location.expect("just set");
            if loc == site {
                self.metrics.local_results += 1;
                self.apply_result(dst);
            } else {
                self.metrics.remote_results += 1;
                let delay = self.msg_delay(site, loc, bytes.max(32));
                self.queue
                    .push(self.now + delay, Event::ResultArrive { node: dst });
            }
        }
        self.fill_slots(site);
    }

    // ---- decentralized scheduling (help requests) ----

    fn try_help(&mut self, site: usize) {
        let s = &self.sites[site];
        if !s.alive || !s.accepting || s.outstanding_help || s.asleep {
            return;
        }
        if !s.queue.is_empty() || s.open >= self.cfg.slots {
            return; // got work meanwhile
        }
        // The runtime's help-target rule, with queue depth as busyness.
        // Coordinates are withheld when proximity routing is off, which
        // leaves the rule its uniform rotation.
        let me = site;
        let mut candidates: Vec<Candidate<usize>> = (0..self.sites.len())
            .filter(|&i| i != me && self.sites[i].alive && self.sites[i].accepting)
            .map(|i| {
                let s = &self.sites[i];
                let coord = self.cfg.proximity_routing.then_some(s.vivaldi.coord);
                (i, s.queue.len() as u64, coord)
            })
            .collect();
        let mut rr = self.sites[me].rr;
        let Some(target) = pick_help_target(&mut candidates, &self.sites[me].vivaldi, &mut rr)
        else {
            return;
        };
        self.sites[me].rr = rr;
        self.sites[me].outstanding_help = true;
        self.sites[me].help_sent_at = self.now;
        self.sites[me].help_target = target;
        self.metrics.help_requests += 1;
        let delay = self.msg_delay(me, target, CTRL_BYTES);
        self.queue.push(
            self.now + delay,
            Event::HelpArrive {
                site: target,
                from: me,
            },
        );
    }

    fn on_help_arrive(&mut self, site: usize, from: usize) {
        let can_give = self.sites[site].alive
            && self.sites[site].accepting
            && !self.sites[site].queue.is_empty();
        if can_give {
            let node = self
                .pop_queue(site, self.cfg.help_policy)
                .expect("queue checked non-empty");
            self.metrics.help_granted += 1;
            self.metrics.migrations += 1;
            self.nodes[node].status = NodeStatus::Migrating;
            let delay = self.msg_delay(site, from, FRAME_BYTES);
            self.queue
                .push(self.now + delay, Event::FrameArrive { site: from, node });
        } else {
            let delay = self.msg_delay(site, from, CTRL_BYTES);
            self.queue
                .push(self.now + delay, Event::CantHelpArrive { site: from });
        }
    }

    fn on_cant_help(&mut self, site: usize) {
        self.note_help_rtt(site);
        let s = &mut self.sites[site];
        s.outstanding_help = false;
        if !s.alive || !s.accepting {
            return;
        }
        let delay = s.backoff;
        s.backoff = (s.backoff * 2.0).min(self.cfg.help_backoff * 128.0);
        self.queue.push(self.now + delay, Event::TryHelp { site });
        self.consider_sleep(site);
    }

    fn on_frame_arrive(&mut self, site: usize, node: usize) {
        // Work arriving at a sleeping SoC site first wakes it.
        if self.sites[site].asleep {
            let p = self.cfg.sites[site]
                .power
                .expect("asleep implies power model");
            self.wake(site);
            self.queue
                .push(self.now + p.wake_latency, Event::FrameArrive { site, node });
            return;
        }
        self.mark_active(site);
        self.charge_msg(site);
        self.note_help_rtt(site);
        self.sites[site].outstanding_help = false;
        self.sites[site].backoff = self.cfg.help_backoff;
        if self.nodes[node].status == NodeStatus::Done {
            return;
        }
        // The receiving site may itself have died while the frame was in
        // flight: pass it on.
        if !self.sites[site].accepting {
            let succ = self.successor_of(site);
            self.metrics.migrations += 1;
            let delay = self.msg_delay(site, succ, FRAME_BYTES);
            self.queue
                .push(self.now + delay, Event::FrameArrive { site: succ, node });
            return;
        }
        self.nodes[node].location = Some(site);
        if self.nodes[node].missing == 0 {
            self.nodes[node].status = NodeStatus::Queued;
            self.sites[site].queue.push_back(node);
            self.fill_slots(site);
        } else {
            self.nodes[node].status = NodeStatus::Waiting;
        }
    }

    // ---- dynamic membership ----

    fn successor_of(&self, site: usize) -> usize {
        let n = self.sites.len();
        for off in 1..n {
            let cand = (site + off) % n;
            if self.sites[cand].alive && self.sites[cand].accepting {
                return cand;
            }
        }
        0
    }

    fn on_join(&mut self, site: usize) {
        self.sites[site].alive = true;
        self.sites[site].accepting = true;
        self.queue.push(self.now, Event::TryHelp { site });
    }

    fn on_leave(&mut self, site: usize) {
        // Orderly sign-off: stop taking work, relocate the queue; open
        // tasks run to completion.
        self.sites[site].accepting = false;
        let succ = self.successor_of(site);
        let queued: Vec<usize> = self.sites[site].queue.drain(..).collect();
        for node in queued {
            self.nodes[node].status = NodeStatus::Migrating;
            self.metrics.migrations += 1;
            let delay = self.msg_delay(site, succ, FRAME_BYTES);
            self.queue
                .push(self.now + delay, Event::FrameArrive { site: succ, node });
        }
        // Waiting (incomplete) frames located here also relocate.
        self.relocate_waiting(site, succ, 0.0);
    }

    fn on_crash(&mut self, site: usize) {
        self.sites[site].alive = false;
        self.sites[site].accepting = false;
        self.sites[site].cpu_busy = false;
        self.sites[site].cpu_queue.clear();
        let delay = self.cfg.crash_detect;
        let succ = self.successor_of(site);
        // Open tasks are lost mid-flight and re-execute from their
        // backed-up frames on the buddy after detection.
        let lost: Vec<usize> = self
            .open_tasks
            .iter()
            .filter(|(_, t)| t.site == site)
            .map(|(&n, _)| n)
            .collect();
        for node in lost {
            self.open_tasks.remove(&node);
            self.sites[site].open -= 1;
            self.metrics.reexecutions += 1;
            self.nodes[node].status = NodeStatus::Migrating;
            let transfer = self.msg_delay(site, succ, FRAME_BYTES);
            self.queue.push(
                self.now + delay + transfer,
                Event::FrameArrive { site: succ, node },
            );
        }
        // Queued frames revive from backups too.
        let queued: Vec<usize> = self.sites[site].queue.drain(..).collect();
        for node in queued {
            self.nodes[node].status = NodeStatus::Migrating;
            self.metrics.migrations += 1;
            let transfer = self.msg_delay(site, succ, FRAME_BYTES);
            self.queue.push(
                self.now + delay + transfer,
                Event::FrameArrive { site: succ, node },
            );
        }
        self.relocate_waiting(site, succ, delay);
    }

    /// Move incomplete frames located on `site` to `succ`.
    fn relocate_waiting(&mut self, site: usize, succ: usize, delay: f64) {
        let waiting: Vec<usize> = self
            .graph
            .node_ids()
            .filter(|&n| {
                self.nodes[n].status == NodeStatus::Waiting && self.nodes[n].location == Some(site)
            })
            .collect();
        for node in waiting {
            self.nodes[node].status = NodeStatus::Migrating;
            self.metrics.migrations += 1;
            let transfer = self.msg_delay(site, succ, FRAME_BYTES);
            self.queue.push(
                self.now + delay + transfer,
                Event::FrameArrive { site: succ, node },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SimSite, TaskCostModel};
    use sdvm_cdag::generators;

    fn run(cfg: SimConfig, g: Cdag) -> SimMetrics {
        let sim = Simulation::new(cfg, g);
        sim.run()
    }

    #[test]
    fn chain_runs_serially() {
        let g = generators::chain(10, 1000);
        let m = run(SimConfig::homogeneous(4), g);
        // 10 tasks × 1ms on a 1e6-units/s site ≈ 10ms, regardless of
        // cluster size (no parallelism in a chain).
        assert!(m.makespan >= 0.01, "makespan {}", m.makespan);
        assert!(m.makespan < 0.02, "makespan {}", m.makespan);
        assert_eq!(m.tasks_executed, 10);
    }

    #[test]
    fn fork_join_speeds_up_with_sites() {
        let g = generators::fork_join(100, 64, 100_000, 100);
        let m1 = run(SimConfig::homogeneous(1), g.clone());
        let m4 = run(SimConfig::homogeneous(4), g.clone());
        let m8 = run(SimConfig::homogeneous(8), g);
        let s4 = m1.makespan / m4.makespan;
        let s8 = m1.makespan / m8.makespan;
        assert!(s4 > 2.5, "4-site speedup {s4}");
        assert!(s8 > 4.5, "8-site speedup {s8}");
        assert!(s8 > s4, "more sites must help on a wide graph");
        assert!(m4.help_granted > 0, "work must migrate via help requests");
    }

    #[test]
    fn deterministic() {
        let g = generators::layered_random(8, 16, 7);
        let a = run(SimConfig::homogeneous(5), g.clone());
        let b = run(SimConfig::homogeneous(5), g);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.executed_per_site, b.executed_per_site);
    }

    #[test]
    fn heterogeneous_speed_shares_work() {
        // One fast site, one slow site: the fast one should execute more.
        let mut cfg = SimConfig::homogeneous(2);
        cfg.sites = vec![SimSite::with_speed(4.0), SimSite::with_speed(1.0)];
        let g = generators::fork_join(10, 64, 200_000, 10);
        let m = run(cfg, g);
        assert!(m.executed_per_site[0] > m.executed_per_site[1]);
        assert!(m.tasks_executed == 66);
    }

    #[test]
    fn slots_hide_read_latency() {
        // Tasks block on remote reads; more slots hide the latency.
        let mut base = SimConfig::homogeneous(2);
        base.cost = TaskCostModel {
            remote_reads: 4,
            read_latency: 1e-2,
            ..TaskCostModel::default()
        };
        let g = generators::fork_join(10, 40, 10_000, 10);
        let mut one = base.clone();
        one.slots = 1;
        let mut five = base.clone();
        five.slots = 5;
        let m1 = run(one, g.clone());
        let m5 = run(five, g);
        assert!(
            m5.makespan < m1.makespan * 0.7,
            "5 slots ({}) should beat 1 slot ({})",
            m5.makespan,
            m1.makespan
        );
    }

    #[test]
    fn late_join_participates() {
        let mut cfg = SimConfig::homogeneous(2);
        cfg.sites[1].join_at = 0.05;
        let g = generators::fork_join(10, 64, 500_000, 10);
        let m = run(cfg, g);
        assert!(m.executed_per_site[1] > 0, "late joiner must get work");
    }

    #[test]
    fn leave_relocates_and_completes() {
        let mut cfg = SimConfig::homogeneous(3);
        cfg.sites[2].leave_at = Some(0.05);
        let g = generators::fork_join(10, 64, 500_000, 10);
        let sim = Simulation::new(cfg, g);
        let m = sim.run();
        assert_eq!(m.tasks_executed, 66, "all work completes despite departure");
    }

    #[test]
    fn crash_reexecutes_and_completes() {
        let mut cfg = SimConfig::homogeneous(3);
        cfg.sites[2].crash_at = Some(0.05);
        let g = generators::fork_join(10, 64, 500_000, 10);
        let sim = Simulation::new(cfg, g);
        let m = sim.run();
        // Everything still completes; makespan includes the detection
        // delay if work was lost.
        assert!(m.tasks_executed >= 66);
    }

    #[test]
    fn foreign_platform_compiles() {
        let mut cfg = SimConfig::homogeneous(2);
        cfg.sites[1].platform = 7;
        let g = generators::fork_join(10, 32, 300_000, 10);
        let m = run(cfg, g);
        assert!(m.compiles > 0, "foreign platform must compile from source");
        assert_eq!(
            m.binary_fetches, 0,
            "same-platform fetches impossible: only site 0 shares the home platform and it \
             has the program installed"
        );
    }

    #[test]
    fn empty_graph_finishes_instantly() {
        let g = Cdag::new();
        let m = run(SimConfig::homogeneous(2), g);
        assert_eq!(m.tasks_executed, 0);
        assert_eq!(m.makespan, 0.0);
    }

    /// Two islands far apart in latency space: `n` sites near the
    /// origin, `n` sites around `gap` seconds away, each island with a
    /// little internal spread (degenerate all-equal intra-island RTTs
    /// make Vivaldi's *relative* fit error unbounded, which no real
    /// topology does). Site 0 (the work source) is in the first island.
    fn islands(n: usize, gap: f64) -> Vec<SimSite> {
        (0..2 * n)
            .map(|i| {
                let island = if i < n { 0.0 } else { gap };
                SimSite::at((island, (i % n) as f64 * 0.0015, 0.0))
            })
            .collect()
    }

    #[test]
    fn proximity_routing_lowers_help_rtt_on_clustered_topology() {
        // Steady trickle of work from site 0 keeps idle sites asking for
        // help long enough for coordinates to converge.
        let g = generators::iterative_fork_join(40, 12, 50_000);
        let mut uniform = SimConfig::homogeneous(0);
        uniform.sites = islands(6, 0.030);
        let mut proximity = uniform.clone();
        proximity.proximity_routing = true;
        let mu = run(uniform, g.clone());
        let mp = run(proximity, g);
        assert!(mu.help_rtt.len() > 100, "uniform run must sample help RTT");
        assert!(
            mp.help_rtt.len() > 100,
            "proximity run must sample help RTT"
        );
        assert!(
            mp.help_rtt_median() < mu.help_rtt_median(),
            "proximity median {} must beat uniform median {}",
            mp.help_rtt_median(),
            mu.help_rtt_median()
        );
    }

    #[test]
    fn driver_capacity_queues_deliveries() {
        // A wide fan-out through one site saturates its driver when the
        // per-message service time is large; with the model off there is
        // no queueing at all.
        let g = generators::fork_join(100, 64, 50_000, 100);
        let free = run(SimConfig::homogeneous(8), g.clone());
        assert_eq!(free.driver_queueing, 0.0, "model off by default");
        let mut tight = SimConfig::homogeneous(8);
        tight.driver_service = 2e-3;
        tight.net_drivers = 1;
        let m = run(tight, g);
        assert!(
            m.driver_queueing > 0.0,
            "saturated single-driver sites must queue deliveries"
        );
        assert!(
            m.makespan > free.makespan,
            "driver capacity must cost makespan: {} vs {}",
            m.makespan,
            free.makespan
        );
    }

    #[test]
    fn more_drivers_relieve_queueing() {
        let g = generators::fork_join(100, 64, 50_000, 100);
        let mut one = SimConfig::homogeneous(8);
        one.driver_service = 2e-3;
        one.net_drivers = 1;
        let mut four = one.clone();
        four.net_drivers = 4;
        let m1 = run(one, g.clone());
        let m4 = run(four, g);
        assert!(
            m4.driver_queueing < m1.driver_queueing,
            "4 pollers ({}) must queue less than 1 ({})",
            m4.driver_queueing,
            m1.driver_queueing
        );
    }

    #[test]
    fn deterministic_with_proximity_and_capacity() {
        let g = generators::layered_random(8, 16, 7);
        let mut cfg = SimConfig::homogeneous(0);
        cfg.sites = islands(4, 0.010);
        cfg.proximity_routing = true;
        cfg.driver_service = 1e-4;
        let a = run(cfg.clone(), g.clone());
        let b = run(cfg, g);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.help_rtt, b.help_rtt);
    }

    #[test]
    fn wavefront_has_limited_parallelism() {
        let g = generators::wavefront(12, 50_000);
        let m1 = run(SimConfig::homogeneous(1), g.clone());
        let m8 = run(SimConfig::homogeneous(8), g);
        let s8 = m1.makespan / m8.makespan;
        // A 12×12 wavefront has average parallelism 144/23 ≈ 6.26; the
        // speedup must stay below that bound.
        assert!(
            s8 < 6.3,
            "speedup {s8} exceeds the graph's parallelism bound"
        );
        assert!(s8 > 1.5, "some speedup expected, got {s8}");
    }
}

#[cfg(test)]
mod power_tests {
    use super::*;
    use crate::model::PowerModel;
    use sdvm_cdag::generators;

    fn powered(n: usize) -> SimConfig {
        let mut cfg = SimConfig::homogeneous(n);
        for s in &mut cfg.sites {
            s.power = Some(PowerModel::embedded());
        }
        cfg
    }

    #[test]
    fn idle_sites_sleep_and_save_energy() {
        // A serial chain keeps one site busy; the others should spend
        // most of the run asleep.
        let g = generators::chain(40, 50_000); // 2 s of serial work
        let m = Simulation::new(powered(4), g.clone()).run();
        assert_eq!(m.tasks_executed, 40);
        // At least two of the three idle sites slept for most of the run.
        let sleepers = m.slept.iter().filter(|&&s| s > m.makespan * 0.5).count();
        assert!(
            sleepers >= 2,
            "slept: {:?} of makespan {}",
            m.slept,
            m.makespan
        );
        // Energy with sleeping must beat an always-idle estimate.
        let p = PowerModel::embedded();
        let always_on = p.active_watts * m.busy.iter().sum::<f64>()
            + p.idle_watts * (4.0 * m.makespan - m.busy.iter().sum::<f64>());
        assert!(
            m.total_energy() < always_on * 0.9,
            "energy {} vs always-on {}",
            m.total_energy(),
            always_on
        );
    }

    #[test]
    fn sleeping_sites_wake_under_load() {
        // A wide burst after a quiet start: the sleepers must wake and
        // participate.
        let mut g = sdvm_cdag::Cdag::new();
        let head = g.add_node("head", 0, 200_000); // 0.2 s serial prefix
        for i in 0..32 {
            let w = g.add_node(format!("w{i}"), 1, 100_000);
            g.add_edge(head, w, 0, 8).unwrap();
        }
        let m = Simulation::new(powered(4), g).run();
        assert_eq!(m.tasks_executed, 33);
        let active_sites = m.executed_per_site.iter().filter(|&&e| e > 0).count();
        assert!(
            active_sites >= 3,
            "sleepers must wake for the burst: {:?}",
            m.executed_per_site
        );
    }

    #[test]
    fn power_mode_costs_some_makespan() {
        // Sleep/wake latency makes the run slightly slower but much more
        // efficient — the paper's stated trade-off.
        let g = generators::iterative_fork_join(6, 16, 100_000);
        let base = Simulation::new(SimConfig::homogeneous(4), g.clone()).run();
        let power = Simulation::new(powered(4), g).run();
        assert_eq!(base.tasks_executed, power.tasks_executed);
        assert!(
            power.makespan >= base.makespan * 0.99,
            "power mode cannot be faster: {} vs {}",
            power.makespan,
            base.makespan
        );
        assert!(
            power.makespan <= base.makespan * 1.5,
            "wake latency must not wreck the makespan: {} vs {}",
            power.makespan,
            base.makespan
        );
    }

    #[test]
    fn no_power_model_no_energy() {
        let g = generators::chain(5, 1000);
        let m = Simulation::new(SimConfig::homogeneous(2), g).run();
        assert_eq!(m.total_energy(), 0.0);
        assert!(m.slept.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn deterministic_with_power() {
        let g = generators::layered_random(6, 12, 3);
        let a = Simulation::new(powered(3), g.clone()).run();
        let b = Simulation::new(powered(3), g).run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_energy(), b.total_energy());
    }
}
