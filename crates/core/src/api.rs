//! The SDVM programming interface.
//!
//! An application is split into microthreads registered on an
//! [`AppBuilder`]; inside a microthread, every interaction with the SDVM
//! goes through the [`ExecCtx`] — the paper's "special instructions [...]
//! the only interface between the program running on the SDVM and the
//! SDVM itself": extracting parameters, creating (allocating) new
//! microframes, sending results to target microframes, global memory
//! access, and I/O.
//!
//! [`InProcessCluster`] builds whole clusters inside one process on the
//! in-memory transport — the unit under test for almost everything in
//! this repository; the same [`Site`] API runs over TCP for real
//! multi-process clusters (see the `secure_cluster` example).

use crate::config::SiteConfig;
use crate::frame::Microframe;
use crate::managers::program::ProgramInfo;
use crate::site::{Site, SiteInner};
use crate::thread::{AppRegistry, ThreadSpec, RESULT_THREAD_INDEX};
use crate::trace::TraceLog;
use bytes::Bytes;
use parking_lot::Mutex;
use sdvm_net::{MemHub, Transport};
use sdvm_types::{
    FailurePolicy, FileHandle, GlobalAddress, ManagerId, MicrothreadId, ProgramId,
    ReplicationPolicy, SchedulingHint, SdvmError, SdvmResult, SiteId, Value,
};
use sdvm_wire::Payload;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Builder for an SDVM application: a named collection of microthreads.
///
/// The partitioning into microthreads is the programmer's (or a
/// compiler's) job — "the programmer only has to split his application
/// into tasks" (§2.1). No knowledge of the cluster is needed: the same
/// application runs on any SDVM cluster.
#[derive(Default)]
pub struct AppBuilder {
    name: String,
    threads: Vec<ThreadSpec>,
    failure_policy: FailurePolicy,
    replication: ReplicationPolicy,
}

impl AppBuilder {
    /// Start building an application.
    pub fn new(name: &str) -> Self {
        AppBuilder {
            name: name.to_string(),
            threads: Vec::new(),
            failure_policy: FailurePolicy::default(),
            replication: ReplicationPolicy::default(),
        }
    }

    /// What the frontend does when a frame of this program is
    /// quarantined as poison: fail the whole program (default) or report
    /// the loss and keep the rest running.
    pub fn on_failure(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// Set the failure policy in place (for builders held by reference).
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.failure_policy = policy;
    }

    /// How this program's microframes are dispatched: plainly
    /// (default), as `k` voting replicas on distinct sites (against
    /// silent data corruption), or with a hedged duplicate after a delay
    /// (against stragglers). Announced cluster-wide at registration.
    pub fn replicate(mut self, policy: ReplicationPolicy) -> Self {
        self.replication = policy;
        self
    }

    /// Set the replication policy in place (for builders held by
    /// reference).
    pub fn set_replication(&mut self, policy: ReplicationPolicy) {
        self.replication = policy;
    }

    /// The configured replication policy.
    pub fn replication(&self) -> ReplicationPolicy {
        self.replication
    }

    /// Register a microthread; returns its code-table index, used when
    /// creating microframes for it.
    pub fn thread<F>(&mut self, name: &str, f: F) -> u32
    where
        F: Fn(&mut ExecCtx<'_>) -> SdvmResult<()> + Send + Sync + 'static,
    {
        let idx = self.threads.len() as u32;
        self.threads.push(ThreadSpec {
            name: name.to_string(),
            func: Arc::new(f),
        });
        idx
    }

    /// The application's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of registered microthreads.
    pub fn thread_count(&self) -> u32 {
        self.threads.len() as u32
    }
}

/// Handle to a launched program: await its result, read its output,
/// feed it input.
pub struct ProgramHandle {
    /// The program's cluster-wide id.
    pub program: ProgramId,
    /// Address of the hidden result frame (send the final value here).
    pub result_addr: GlobalAddress,
    result_rx: crossbeam::channel::Receiver<SdvmResult<Value>>,
    output_rx: crossbeam::channel::Receiver<String>,
    input_queue: Arc<Mutex<VecDeque<String>>>,
}

impl ProgramHandle {
    /// Block until the program settles: `Ok(value)` on success, or the
    /// error that terminated it (quarantined poison frame under
    /// fail-fast, stuck-program watchdog) — the handle never hangs on a
    /// program the cluster has given up on.
    pub fn wait(&self, timeout: Duration) -> SdvmResult<Value> {
        self.result_rx
            .recv_timeout(timeout)
            .map_err(|_| SdvmError::Timeout(format!("program {} result", self.program)))?
    }

    /// Drain all frontend output produced so far.
    pub fn drain_output(&self) -> Vec<String> {
        let mut out = Vec::new();
        while let Ok(line) = self.output_rx.try_recv() {
            out.push(line);
        }
        out
    }

    /// Block for the next output line.
    pub fn next_output(&self, timeout: Duration) -> SdvmResult<String> {
        self.output_rx
            .recv_timeout(timeout)
            .map_err(|_| SdvmError::Timeout("program output".into()))
    }

    /// Push a line of user input (consumed by `ExecCtx::input`).
    pub fn push_input(&self, line: &str) {
        self.input_queue.lock().push_back(line.to_string());
    }
}

/// Channels wired up when a program is installed on its frontend site:
/// (result receiver, output receiver, input queue).
type ProgramChannels = (
    crossbeam::channel::Receiver<SdvmResult<Value>>,
    crossbeam::channel::Receiver<String>,
    Arc<Mutex<VecDeque<String>>>,
);

/// The execution context handed to every microthread (and to the launch
/// bootstrap). Wraps one site's managers.
pub struct ExecCtx<'a> {
    site: &'a SiteInner,
    program: ProgramId,
    frame: Option<&'a Microframe>,
    /// Ballot buffer of a replicated execution: when set, `send` records
    /// `(target, slot, value)` here instead of applying it, so the
    /// coordinator can compare replicas and apply exactly one winner.
    ballot: Option<Arc<Mutex<Vec<sdvm_wire::WireSend>>>>,
}

impl<'a> ExecCtx<'a> {
    pub(crate) fn for_frame(site: &'a SiteInner, frame: &'a Microframe) -> Self {
        ExecCtx {
            site,
            program: frame.program(),
            frame: Some(frame),
            ballot: None,
        }
    }

    pub(crate) fn for_replica(
        site: &'a SiteInner,
        frame: &'a Microframe,
        ballot: Arc<Mutex<Vec<sdvm_wire::WireSend>>>,
    ) -> Self {
        ExecCtx {
            site,
            program: frame.program(),
            frame: Some(frame),
            ballot: Some(ballot),
        }
    }

    pub(crate) fn bootstrap(site: &'a SiteInner, program: ProgramId) -> Self {
        ExecCtx {
            site,
            program,
            frame: None,
            ballot: None,
        }
    }

    /// The program this execution belongs to.
    pub fn program(&self) -> ProgramId {
        self.program
    }

    /// The site executing this microthread.
    pub fn site_id(&self) -> SiteId {
        self.site.my_id()
    }

    /// The current frame's global id.
    pub fn frame_id(&self) -> SdvmResult<GlobalAddress> {
        self.frame
            .map(|f| f.id)
            .ok_or_else(|| SdvmError::InvalidState("bootstrap has no frame".into()))
    }

    /// Extract parameter `slot` from the microframe.
    pub fn param(&self, slot: u32) -> SdvmResult<&Value> {
        self.frame
            .ok_or_else(|| SdvmError::InvalidState("bootstrap has no parameters".into()))?
            .param(slot)
    }

    /// Number of parameter slots of the current frame.
    pub fn param_count(&self) -> usize {
        self.frame.map(|f| f.slots.len()).unwrap_or(0)
    }

    /// A statically attached target address of the current frame.
    pub fn target(&self, i: usize) -> SdvmResult<GlobalAddress> {
        self.frame
            .and_then(|f| f.targets.get(i).copied())
            .ok_or_else(|| SdvmError::InvalidState(format!("no target {i}")))
    }

    /// Number of target addresses of the current frame.
    pub fn target_count(&self) -> usize {
        self.frame.map(|f| f.targets.len()).unwrap_or(0)
    }

    /// Create (allocate) a new microframe for `thread_index`, waiting for
    /// `nslots` parameters, with result target addresses `targets`.
    /// Returns its global address, so results can be directed to it —
    /// "every microframe should be allocated as soon as possible, because
    /// its global address is known not before its allocation" (§3.2).
    pub fn create_frame(
        &mut self,
        thread_index: u32,
        nslots: usize,
        targets: Vec<GlobalAddress>,
        hint: SchedulingHint,
    ) -> GlobalAddress {
        let id = self.site.memory.fresh_address(self.site);
        let frame = Microframe::new(
            id,
            MicrothreadId::new(self.program, thread_index),
            nslots,
            targets,
            hint,
        );
        self.site.memory.create_frame(self.site, frame);
        id
    }

    /// Send a result to a target microframe's parameter slot (step 4 of
    /// a microthread's execution, §3.2). The frame may live anywhere in
    /// the cluster. In a replicated execution the send is buffered into
    /// the replica's ballot instead of applied — the coordinator applies
    /// the winning ballot exactly once.
    pub fn send(&mut self, target: GlobalAddress, slot: u32, value: Value) -> SdvmResult<()> {
        // Chaos hook: armed silent data corruption flips a bit here, in
        // the computed value, before buffering/applying — exactly what a
        // broken DIMM would do.
        let value = self.site.maybe_corrupt_result(value);
        if let Some(ballot) = &self.ballot {
            ballot.lock().push(sdvm_wire::WireSend {
                target,
                slot,
                value,
            });
            return Ok(());
        }
        self.site
            .memory
            .apply_or_forward(self.site, target, slot, value)
    }

    /// Allocate a global memory object; it is accessible (and migrates)
    /// cluster-wide.
    pub fn alloc(&mut self, data: Value) -> GlobalAddress {
        self.site.memory.alloc(self.site, self.program, data)
    }

    /// Read a global object (snapshot copy; the object stays put).
    pub fn read(&mut self, addr: GlobalAddress) -> SdvmResult<Value> {
        self.site.memory.read(self.site, addr, false)
    }

    /// Read a global object and attract it to this site (ownership
    /// migration — the attraction-memory behaviour).
    pub fn read_migrate(&mut self, addr: GlobalAddress) -> SdvmResult<Value> {
        self.site.memory.read(self.site, addr, true)
    }

    /// Overwrite a global object at its current owner.
    pub fn write(&mut self, addr: GlobalAddress, value: Value) -> SdvmResult<()> {
        self.site.memory.write(self.site, addr, value)
    }

    /// Emit program output (routed to the frontend).
    pub fn output(&mut self, text: impl Into<String>) {
        self.site.io.output(self.site, self.program, text.into());
    }

    /// Request a line of user input (routed to the frontend).
    pub fn input(&mut self, prompt: &str) -> SdvmResult<String> {
        self.site.io.input(self.site, self.program, prompt)
    }

    /// Open a file on the executing site; the handle works cluster-wide.
    pub fn file_open(&mut self, path: &str, create: bool) -> SdvmResult<FileHandle> {
        self.site.io.file_open(self.site, path, create)
    }

    /// Read from a (possibly remote) file.
    pub fn file_read(&mut self, handle: FileHandle, offset: u64, len: u32) -> SdvmResult<Bytes> {
        self.site.io.file_read(self.site, handle, offset, len)
    }

    /// Write to a (possibly remote) file.
    pub fn file_write(&mut self, handle: FileHandle, offset: u64, data: Bytes) -> SdvmResult<()> {
        self.site.io.file_write(self.site, handle, offset, data)
    }

    /// Close a (possibly remote) file.
    pub fn file_close(&mut self, handle: FileHandle) -> SdvmResult<()> {
        self.site.io.file_close(self.site, handle)
    }

    /// Internal: the hidden result microthread delivers the program's
    /// final value.
    pub(crate) fn deliver_result(&mut self, value: Value) {
        self.site
            .program
            .finish_local(self.site, self.program, value);
    }
}

impl Site {
    /// Shared registration machinery of [`Site::launch`] and
    /// [`Site::restore_program`]: install the code table, program
    /// metadata, frontend and result waiter for `program` on this site
    /// and announce it cluster-wide.
    pub(crate) fn register_program_here(
        &self,
        app: &AppBuilder,
        program: ProgramId,
    ) -> SdvmResult<ProgramChannels> {
        let site = self.inner();
        if !site.my_id().is_valid() {
            return Err(SdvmError::InvalidState(
                "site not started (call start_first or sign_on)".into(),
            ));
        }
        site.registry
            .register(program, &app.name, app.threads.clone());
        site.program.register(
            program,
            ProgramInfo {
                code_home: site.my_id(),
                name: app.name.clone(),
                threads: app.thread_count(),
                terminated: false,
            },
        );
        site.code.mark_program_local(program, app.thread_count());
        site.program.set_policy(program, app.failure_policy);
        site.program.set_replication(program, app.replication);
        let (output_rx, input_queue) = site.io.attach_frontend(program);
        let result_rx = site.program.install_waiter(program);

        // Announce the program cluster-wide so foreign sites know its
        // code home.
        site.broadcast(
            ManagerId::Program,
            Payload::ProgramRegister {
                program,
                code_home: site.my_id(),
                name: app.name.clone(),
                threads: app.thread_count(),
                replication: app.replication,
            },
        );
        Ok((result_rx, output_rx, input_queue))
    }

    /// Re-install an already-id'd program (checkpoint restore): no new
    /// result frame is created — the restored frames include it.
    pub(crate) fn relaunch_registered(
        &self,
        app: &AppBuilder,
        program: ProgramId,
        result_addr: GlobalAddress,
    ) -> SdvmResult<ProgramHandle> {
        let (result_rx, output_rx, input_queue) = self.register_program_here(app, program)?;
        Ok(ProgramHandle {
            program,
            result_addr,
            result_rx,
            output_rx,
            input_queue,
        })
    }

    /// Launch an application on this site. `bootstrap` runs once (like an
    /// initial microthread): it creates the program's first microframes
    /// and wires them to `result_addr`, the address the program's final
    /// value must be sent to.
    pub fn launch<F>(&self, app: &AppBuilder, bootstrap: F) -> SdvmResult<ProgramHandle>
    where
        F: FnOnce(&mut ExecCtx<'_>, GlobalAddress) -> SdvmResult<()>,
    {
        let site = self.inner();
        if !site.my_id().is_valid() {
            return Err(SdvmError::InvalidState(
                "site not started (call start_first or sign_on)".into(),
            ));
        }
        let program = site.program.alloc_program_id(site);
        let (result_rx, output_rx, input_queue) = self.register_program_here(app, program)?;

        // The hidden result frame: one slot, sticky (never migrates away
        // from the frontend site).
        let result_addr = {
            let id = site.memory.fresh_address(site);
            let hint = SchedulingHint {
                sticky: true,
                ..Default::default()
            };
            let frame = Microframe::new(
                id,
                MicrothreadId::new(program, RESULT_THREAD_INDEX),
                1,
                Vec::new(),
                hint,
            );
            site.memory.create_frame(site, frame);
            id
        };

        let mut ctx = ExecCtx::bootstrap(site, program);
        bootstrap(&mut ctx, result_addr)?;

        Ok(ProgramHandle {
            program,
            result_addr,
            result_rx,
            output_rx,
            input_queue,
        })
    }
}

/// A whole SDVM cluster inside one process, on the in-memory transport.
pub struct InProcessCluster {
    hub: MemHub,
    registry: Arc<AppRegistry>,
    trace: Option<TraceLog>,
    sites: Vec<Site>,
}

impl InProcessCluster {
    /// Build a cluster of `n` sites with identical configuration.
    pub fn new(n: usize, config: SiteConfig) -> SdvmResult<Self> {
        Self::with_configs(vec![config; n], None)
    }

    /// Build a cluster with per-site configurations and optional tracing.
    pub fn with_configs(configs: Vec<SiteConfig>, trace: Option<TraceLog>) -> SdvmResult<Self> {
        let mut iter = configs.into_iter();
        let Some(first_cfg) = iter.next() else {
            return Err(SdvmError::InvalidState(
                "cluster needs at least one site".into(),
            ));
        };
        let hub = MemHub::new();
        let registry = AppRegistry::new();
        let mut cluster = InProcessCluster {
            hub,
            registry,
            trace,
            sites: Vec::new(),
        };
        let first = cluster.build_site(first_cfg);
        first.start_first();
        cluster.sites.push(first);
        for cfg in iter {
            cluster.add_site(cfg)?;
        }
        Ok(cluster)
    }

    fn build_site(&self, config: SiteConfig) -> Site {
        let transport: Arc<dyn Transport> = Arc::new(self.hub.endpoint());
        Site::new(config, transport, self.registry.clone(), self.trace.clone())
    }

    /// Dynamic entry at runtime (§3.4): add a site, joined through the
    /// first site. Returns its index.
    pub fn add_site(&mut self, config: SiteConfig) -> SdvmResult<usize> {
        let contact = self.sites[0].addr();
        self.add_site_via(config, &contact)
    }

    /// Add a site joining through an arbitrary contact address.
    pub fn add_site_via(
        &mut self,
        config: SiteConfig,
        contact: &sdvm_types::PhysicalAddr,
    ) -> SdvmResult<usize> {
        let site = self.build_site(config);
        site.sign_on(contact)?;
        self.sites.push(site);
        Ok(self.sites.len() - 1)
    }

    /// Access a site by index.
    pub fn site(&self, i: usize) -> &Site {
        &self.sites[i]
    }

    /// Number of sites (including departed ones' slots).
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if the cluster has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The shared in-process transport hub (fault injection, severing).
    pub fn hub(&self) -> &MemHub {
        &self.hub
    }

    /// The shared code registry.
    pub fn registry(&self) -> &Arc<AppRegistry> {
        &self.registry
    }

    /// Orderly sign-off of site `i` (dynamic exit at runtime, §3.4).
    pub fn sign_off(&self, i: usize) -> SdvmResult<()> {
        self.sites[i].sign_off()
    }

    /// Crash site `i` abruptly: its network endpoint is severed and the
    /// daemon killed without relocation.
    pub fn crash(&self, i: usize) {
        self.hub.sever(&self.sites[i].addr());
        self.sites[i].crash();
    }

    /// Freeze site `i` (GC-pause emulation): its threads park at the next
    /// gate but its endpoint stays reachable, so peers see pure silence.
    pub fn pause_site(&self, i: usize) {
        self.sites[i].pause();
    }

    /// Unfreeze site `i`; its liveness clocks are refreshed first so it
    /// does not mistake its own pause for cluster-wide death.
    pub fn resume_site(&self, i: usize) {
        self.sites[i].resume();
    }

    /// Blackhole all traffic between sites `a` and `b` (both directions)
    /// until [`InProcessCluster::heal`].
    pub fn partition(&self, a: usize, b: usize) {
        self.hub
            .partition(&self.sites[a].addr(), &self.sites[b].addr());
    }

    /// Remove the partition between sites `a` and `b`.
    pub fn heal(&self, a: usize, b: usize) {
        self.hub.heal(&self.sites[a].addr(), &self.sites[b].addr());
    }

    /// Arm silent result corruption on site `i`: the `nth` outgoing
    /// result send from that site gets `bit` flipped in its value.
    /// Deterministic — the trigger is a send count, not a coin flip.
    pub fn corrupt_results(&self, i: usize, nth: u32, bit: u8) {
        self.sites[i].corrupt_results(nth, bit);
    }
}
