//! The input/output manager (paper §4): disk files and user interaction.
//!
//! Output and input requests are routed to the program's *frontend*
//! (attached on the starting site by default). Disk files get a unique
//! [`FileHandle`] embedding the site the file resides on; accesses from
//! other sites are rerouted there automatically.

use crate::site::SiteInner;
use bytes::Bytes;
use parking_lot::Mutex;
use sdvm_types::{FileHandle, ManagerId, ProgramId, SdvmError, SdvmResult, SiteId};
use sdvm_wire::{Payload, SdMessage};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frontend attachment of one program on this site.
struct FrontendState {
    output_tx: crossbeam::channel::Sender<String>,
    input_queue: Arc<Mutex<VecDeque<String>>>,
}

/// The I/O manager of one site.
#[derive(Default)]
pub struct IoManager {
    frontends: Mutex<HashMap<ProgramId, FrontendState>>,
    files: Mutex<HashMap<u32, std::fs::File>>,
    next_file: AtomicU32,
}

impl IoManager {
    /// Fresh manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a frontend for `program` on this site. Returns the output
    /// stream and the queue user input can be pushed into.
    pub fn attach_frontend(
        &self,
        program: ProgramId,
    ) -> (
        crossbeam::channel::Receiver<String>,
        Arc<Mutex<VecDeque<String>>>,
    ) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let q: Arc<Mutex<VecDeque<String>>> = Arc::default();
        self.frontends.lock().insert(
            program,
            FrontendState {
                output_tx: tx,
                input_queue: q.clone(),
            },
        );
        (rx, q)
    }

    /// Program output: to the local frontend if attached, else routed to
    /// the program's frontend site (its code home), else stdout.
    pub fn output(&self, site: &SiteInner, program: ProgramId, text: String) {
        if let Some(f) = self.frontends.lock().get(&program) {
            let _ = f.output_tx.send(text);
            return;
        }
        match site.program.code_home(program) {
            Some(home) if home != site.my_id() => {
                let _ = site.send_payload(
                    home,
                    ManagerId::Io,
                    ManagerId::Io,
                    site.next_seq(),
                    Payload::IoOutput { program, text },
                );
            }
            _ => println!("[{program}] {text}"),
        }
    }

    /// Blocking user-input request (routed to the frontend site).
    pub fn input(&self, site: &SiteInner, program: ProgramId, prompt: &str) -> SdvmResult<String> {
        // Local frontend: poll its input queue.
        if let Some(q) = self
            .frontends
            .lock()
            .get(&program)
            .map(|f| f.input_queue.clone())
        {
            return poll_queue(site, &q);
        }
        let home = site
            .program
            .code_home(program)
            .ok_or(SdvmError::UnknownProgram(program))?;
        let reply = site.request(
            home,
            ManagerId::Io,
            ManagerId::Io,
            Payload::IoInputRequest {
                program,
                prompt: prompt.to_string(),
            },
            site.config.request_timeout,
        )?;
        match reply.payload {
            Payload::IoInputReply { line, .. } => Ok(line),
            other => Err(SdvmError::Io(format!(
                "unexpected input reply {}",
                other.name()
            ))),
        }
    }

    /// Open (or create) a file on *this* site; the returned handle works
    /// cluster-wide.
    pub fn file_open(&self, site: &SiteInner, path: &str, create: bool) -> SdvmResult<FileHandle> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(create)
            .create(create)
            .open(path)
            .map_err(|e| SdvmError::Io(format!("open {path}: {e}")))?;
        let local = self.next_file.fetch_add(1, Ordering::Relaxed);
        self.files.lock().insert(local, file);
        Ok(FileHandle {
            site: site.my_id(),
            local,
        })
    }

    /// Read from a (possibly remote) file.
    pub fn file_read(
        &self,
        site: &SiteInner,
        handle: FileHandle,
        offset: u64,
        len: u32,
    ) -> SdvmResult<Bytes> {
        if handle.site == site.my_id() {
            return self.local_read(handle, offset, len);
        }
        let reply = site.request(
            handle.site,
            ManagerId::Io,
            ManagerId::Io,
            Payload::FileRead {
                handle,
                offset,
                len,
            },
            site.config.request_timeout,
        )?;
        match reply.payload {
            Payload::FileData { data, .. } => Ok(data),
            Payload::FileError { message } => Err(SdvmError::Io(message)),
            other => Err(SdvmError::Io(format!(
                "unexpected file reply {}",
                other.name()
            ))),
        }
    }

    /// Write to a (possibly remote) file.
    pub fn file_write(
        &self,
        site: &SiteInner,
        handle: FileHandle,
        offset: u64,
        data: Bytes,
    ) -> SdvmResult<()> {
        if handle.site == site.my_id() {
            return self.local_write(handle, offset, &data);
        }
        let reply = site.request(
            handle.site,
            ManagerId::Io,
            ManagerId::Io,
            Payload::FileWrite {
                handle,
                offset,
                data,
            },
            site.config.request_timeout,
        )?;
        match reply.payload {
            Payload::FileAck { .. } => Ok(()),
            Payload::FileError { message } => Err(SdvmError::Io(message)),
            other => Err(SdvmError::Io(format!(
                "unexpected file reply {}",
                other.name()
            ))),
        }
    }

    /// Close a (possibly remote) file.
    pub fn file_close(&self, site: &SiteInner, handle: FileHandle) -> SdvmResult<()> {
        if handle.site == site.my_id() {
            self.files.lock().remove(&handle.local);
            return Ok(());
        }
        let _ = site.send_payload(
            handle.site,
            ManagerId::Io,
            ManagerId::Io,
            site.next_seq(),
            Payload::FileClose { handle },
        );
        Ok(())
    }

    fn local_read(&self, handle: FileHandle, offset: u64, len: u32) -> SdvmResult<Bytes> {
        let mut files = self.files.lock();
        let f = files
            .get_mut(&handle.local)
            .ok_or_else(|| SdvmError::Io(format!("bad file handle {handle}")))?;
        f.seek(SeekFrom::Start(offset))
            .map_err(|e| SdvmError::Io(e.to_string()))?;
        let mut buf = vec![0u8; len as usize];
        let mut read = 0;
        while read < buf.len() {
            match f.read(&mut buf[read..]) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) => return Err(SdvmError::Io(e.to_string())),
            }
        }
        buf.truncate(read);
        Ok(Bytes::from(buf))
    }

    fn local_write(&self, handle: FileHandle, offset: u64, data: &[u8]) -> SdvmResult<()> {
        let mut files = self.files.lock();
        let f = files
            .get_mut(&handle.local)
            .ok_or_else(|| SdvmError::Io(format!("bad file handle {handle}")))?;
        f.seek(SeekFrom::Start(offset))
            .map_err(|e| SdvmError::Io(e.to_string()))?;
        f.write_all(data)
            .map_err(|e| SdvmError::Io(e.to_string()))?;
        f.flush().map_err(|e| SdvmError::Io(e.to_string()))?;
        Ok(())
    }

    /// Handle an incoming I/O-manager message.
    pub fn handle(&self, site: &SiteInner, msg: SdMessage) {
        match msg.payload.clone() {
            Payload::IoOutput { program, text } => {
                // We are (or host) the frontend site.
                if let Some(f) = self.frontends.lock().get(&program) {
                    let _ = f.output_tx.send(text);
                } else {
                    println!("[{program}] {text}");
                }
            }
            Payload::IoInputRequest { program, .. } => {
                // Poll the frontend's queue off the router thread and
                // reply when a line arrives.
                let queue = self
                    .frontends
                    .lock()
                    .get(&program)
                    .map(|f| f.input_queue.clone());
                match queue {
                    Some(q) => {
                        site.spawn_task(move |site| {
                            let line = poll_queue(site, &q).unwrap_or_default();
                            site.reply_to(
                                &msg,
                                ManagerId::Io,
                                Payload::IoInputReply { program, line },
                            );
                        });
                    }
                    None => {
                        site.reply_to(
                            &msg,
                            ManagerId::Io,
                            Payload::IoInputReply {
                                program,
                                line: String::new(),
                            },
                        );
                    }
                }
            }
            Payload::FileOpen { path, create } => {
                let reply = match self.file_open(site, &path, create) {
                    Ok(handle) => Payload::FileOpened { handle },
                    Err(e) => Payload::FileError {
                        message: e.to_string(),
                    },
                };
                site.reply_to(&msg, ManagerId::Io, reply);
            }
            Payload::FileRead {
                handle,
                offset,
                len,
            } => {
                let reply = match self.local_read(handle, offset, len) {
                    Ok(data) => Payload::FileData { handle, data },
                    Err(e) => Payload::FileError {
                        message: e.to_string(),
                    },
                };
                site.reply_to(&msg, ManagerId::Io, reply);
            }
            Payload::FileWrite {
                handle,
                offset,
                data,
            } => {
                let reply = match self.local_write(handle, offset, &data) {
                    Ok(()) => Payload::FileAck { handle },
                    Err(e) => Payload::FileError {
                        message: e.to_string(),
                    },
                };
                site.reply_to(&msg, ManagerId::Io, reply);
            }
            Payload::FileClose { handle } => {
                self.files.lock().remove(&handle.local);
            }
            other => {
                site.reply_to(
                    &msg,
                    ManagerId::Io,
                    Payload::Error {
                        message: format!("io: unexpected {}", other.name()),
                    },
                );
            }
        }
    }
}

/// Poll an input queue until a line arrives or the request times out.
fn poll_queue(site: &SiteInner, q: &Mutex<VecDeque<String>>) -> SdvmResult<String> {
    let deadline = Instant::now() + site.config.request_timeout;
    loop {
        if let Some(line) = q.lock().pop_front() {
            return Ok(line);
        }
        if Instant::now() > deadline || !site.is_running() {
            return Err(SdvmError::Timeout("no user input".into()));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Mark unused-type warning silence for SiteId import used in docs.
const _: Option<SiteId> = None;
