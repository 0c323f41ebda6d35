//! The code manager (paper §4): stores and distributes microthread code.
//!
//! Microthreads must be present in the local platform's binary format to
//! execute. If a binary is missing, the code manager requests it from the
//! program's code home site or a *code distribution site*; if the
//! answering site has no binary for the requester's platform it ships the
//! *source*, which is compiled on the fly (simulated by
//! `SiteConfig::compile_latency`) and the fresh binary uploaded back to a
//! distribution site "so that other sites will receive the binary code at
//! first go". Handler functions themselves come from the in-process
//! [`AppRegistry`](crate::thread::AppRegistry) — see DESIGN.md §1.

use crate::config::SiteConfig;
use crate::site::SiteInner;
use crate::thread::{ThreadFn, RESULT_THREAD_INDEX};
use crate::trace::TraceEvent;
use bytes::Bytes;
use parking_lot::Mutex;
use sdvm_types::{ManagerId, MicrothreadId, PlatformId, ProgramId, SdvmError, SdvmResult, SiteId};
use sdvm_wire::{Payload, SdMessage};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Code-manager counters (the code-distribution experiments' numbers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodeStats {
    /// On-the-fly compiles performed here.
    pub compiles: u64,
    /// Binaries fetched from remote sites.
    pub remote_fetches: u64,
}

/// The code manager of one site.
pub struct CodeManager {
    /// (microthread, platform) binaries present on this site.
    available: Mutex<HashSet<(MicrothreadId, PlatformId)>>,
    /// Programs whose *source code* this site holds (can serve
    /// `CodeSource` and compile locally).
    sources: Mutex<HashSet<ProgramId>>,
    my_platform: PlatformId,
    compile_latency: Duration,
    /// Counters for the code-distribution experiments.
    compiles: std::sync::atomic::AtomicU64,
    remote_fetches: std::sync::atomic::AtomicU64,
}

impl CodeManager {
    /// Build from the site config.
    pub fn new(config: &SiteConfig) -> Self {
        CodeManager {
            available: Mutex::new(HashSet::new()),
            sources: Mutex::new(HashSet::new()),
            my_platform: config.platform,
            compile_latency: config.compile_latency,
            compiles: std::sync::atomic::AtomicU64::new(0),
            remote_fetches: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Code-manager counters so far.
    pub fn stats(&self) -> CodeStats {
        CodeStats {
            compiles: self.compiles.load(std::sync::atomic::Ordering::Relaxed),
            remote_fetches: self
                .remote_fetches
                .load(std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// A program was started locally: all its microthreads are available
    /// as binaries for the local platform, and the source is held.
    pub fn mark_program_local(&self, program: ProgramId, thread_count: u32) {
        let mut avail = self.available.lock();
        for i in 0..thread_count {
            avail.insert((MicrothreadId::new(program, i), self.my_platform));
        }
        self.sources.lock().insert(program);
    }

    /// Programs whose source this site holds. Used by the drain flow:
    /// the leaver ships a `CodeSource` per held program to its successor
    /// so source-serving duty survives the departure.
    pub fn local_source_programs(&self) -> Vec<ProgramId> {
        self.sources.lock().iter().copied().collect()
    }

    /// Is a binary for (thread, platform) present here?
    pub fn has_binary(&self, thread: MicrothreadId, platform: PlatformId) -> bool {
        self.available.lock().contains(&(thread, platform))
    }

    /// Ensure `thread` is locally executable and return its handler.
    /// May block on remote code requests and on-the-fly compilation.
    pub fn ensure(&self, site: &SiteInner, thread: MicrothreadId) -> SdvmResult<ThreadFn> {
        if thread.index == RESULT_THREAD_INDEX {
            // The hidden result-delivery microthread is built in.
            return Ok(result_thread());
        }
        if self.has_binary(thread, self.my_platform) {
            return site
                .registry
                .resolve(thread)
                .ok_or(SdvmError::CodeMissing(thread));
        }
        // Local source but no "binary" yet: compile on the fly without
        // any network round trip.
        if self.sources.lock().contains(&thread.program) {
            self.compile(site, thread)?;
            self.upload_binary(site, thread);
            return site
                .registry
                .resolve(thread)
                .ok_or(SdvmError::CodeMissing(thread));
        }
        for target in self.code_sites(site, thread.program) {
            site.emit(TraceEvent::CodeRequested {
                thread,
                platform: self.my_platform,
            });
            let reply = match site.request(
                target,
                ManagerId::Code,
                ManagerId::Code,
                Payload::CodeRequest {
                    thread,
                    platform: self.my_platform,
                },
                site.config.request_timeout,
            ) {
                Ok(r) => r,
                Err(_) => continue, // site gone or slow: try the next one
            };
            match reply.payload {
                Payload::CodeBinary { .. } => {
                    self.remote_fetches
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    self.available.lock().insert((thread, self.my_platform));
                    return site
                        .registry
                        .resolve(thread)
                        .ok_or(SdvmError::CodeMissing(thread));
                }
                Payload::CodeSource { .. } => {
                    self.sources.lock().insert(thread.program);
                    self.compile(site, thread)?;
                    self.upload_binary(site, thread);
                    return site
                        .registry
                        .resolve(thread)
                        .ok_or(SdvmError::CodeMissing(thread));
                }
                Payload::CodeUnavailable { .. } => continue,
                _ => continue,
            }
        }
        Err(SdvmError::CodeMissing(thread))
    }

    /// Compile-on-the-fly simulation: pay the latency, gain the binary.
    fn compile(&self, site: &SiteInner, thread: MicrothreadId) -> SdvmResult<()> {
        let started = std::time::Instant::now();
        if !self.compile_latency.is_zero() {
            std::thread::sleep(self.compile_latency);
        }
        site.metrics
            .compile_us
            .observe(started.elapsed().as_micros() as u64);
        self.compiles
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        site.emit(TraceEvent::CodeCompiled {
            thread,
            platform: self.my_platform,
        });
        self.available.lock().insert((thread, self.my_platform));
        Ok(())
    }

    /// After compiling, upload the binary to a code distribution site so
    /// others of our platform get it at first go.
    fn upload_binary(&self, site: &SiteInner, thread: MicrothreadId) {
        let me = site.my_id();
        if let Some(dist) = site
            .cluster
            .code_distribution_sites()
            .into_iter()
            .find(|&s| s != me)
        {
            let _ = site.send_payload(
                dist,
                ManagerId::Code,
                ManagerId::Code,
                site.next_seq(),
                Payload::CodeUpload {
                    thread,
                    platform: self.my_platform,
                    artifact: artifact_bytes(thread, self.my_platform),
                },
            );
        }
    }

    /// Candidate sites to ask for code: the program's code home first,
    /// then code distribution sites, then everyone else.
    fn code_sites(&self, site: &SiteInner, program: ProgramId) -> Vec<SiteId> {
        let me = site.my_id();
        let mut out = Vec::new();
        if let Some(home) = site.program.code_home(program) {
            if home != me {
                out.push(home);
            }
        }
        for s in site.cluster.code_distribution_sites() {
            if s != me && !out.contains(&s) {
                out.push(s);
            }
        }
        for s in site.cluster.known_sites() {
            if s != me && !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    /// Handle an incoming code-manager message.
    pub fn handle(&self, site: &SiteInner, msg: SdMessage) {
        match msg.payload.clone() {
            Payload::CodeRequest { thread, platform } => {
                let reply = if self.available.lock().contains(&(thread, platform)) {
                    Payload::CodeBinary {
                        thread,
                        platform,
                        artifact: artifact_bytes(thread, platform),
                    }
                } else if self.sources.lock().contains(&thread.program) {
                    Payload::CodeSource {
                        thread,
                        source: Bytes::from(format!("// source of {thread}")),
                    }
                } else {
                    Payload::CodeUnavailable { thread }
                };
                site.reply_to(&msg, ManagerId::Code, reply);
            }
            Payload::CodeUpload {
                thread, platform, ..
            } => {
                self.available.lock().insert((thread, platform));
            }
            // Unclaimed replies after a timeout still improve our cache.
            Payload::CodeBinary {
                thread, platform, ..
            } => {
                if platform == self.my_platform {
                    self.available.lock().insert((thread, platform));
                }
            }
            Payload::CodeSource { thread, .. } => {
                self.sources.lock().insert(thread.program);
            }
            Payload::CodeUnavailable { .. } => {}
            other => {
                site.reply_to(
                    &msg,
                    ManagerId::Code,
                    Payload::Error {
                        message: format!("code: unexpected {}", other.name()),
                    },
                );
            }
        }
    }

    /// Purge a terminated program's code.
    pub fn purge_program(&self, program: ProgramId) {
        self.available.lock().retain(|(t, _)| t.program != program);
        self.sources.lock().remove(&program);
    }
}

/// Synthetic binary artifact standing in for compiled machine code; its
/// contents identify (thread, platform) so tests can check what was
/// shipped.
fn artifact_bytes(thread: MicrothreadId, platform: PlatformId) -> Bytes {
    Bytes::from(format!("BIN:{thread}@{platform}"))
}

/// The built-in result-delivery microthread: takes the single parameter
/// of the program's hidden result frame and completes the program.
fn result_thread() -> ThreadFn {
    Arc::new(|ctx| {
        let value = ctx.param(0)?.clone();
        ctx.deliver_result(value);
        Ok(())
    })
}
