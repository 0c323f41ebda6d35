//! Recording that does not perturb what it measures.
//!
//! Timed runs record one latency sample per verified frame into
//! preallocated atomic slots, indexed by `fetch_add`: no lock is taken
//! in a handler. Samples land in the round (an equal slice of the timed
//! section) their stamp falls in, so every end-to-end metric can be
//! reported as the median over rounds.
//!
//! Traced runs additionally record spans into per-thread buffers that
//! are only read after the cluster is torn down.

use crate::util::{quantile_sorted, sorted};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Fewest equal rounds a cluster's timed section is cut into.
pub const MIN_ROUNDS: usize = 5;

/// Rounds for a timed section of `seconds`: about a second each.
pub fn rounds_for(seconds: f64) -> usize {
    (seconds.round() as usize).max(MIN_ROUNDS)
}

struct Round {
    /// Verified frames whose stamp fell in this round.
    frames: AtomicU64,
    /// Latency samples recorded in this round (may exceed `lat.len()`).
    samples: AtomicU64,
    lat: Box<[AtomicU32]>,
}

/// Per-round results of the timed section.
pub struct RoundStats {
    pub frames_per_s: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    /// Latency samples the rounds hold, in total.
    pub samples: u64,
    /// Samples that found their round's slots full.
    pub dropped: u64,
}

/// Frame counts and latency samples of one run, by round.
pub struct Recorder {
    /// Start of the timed section; `u64::MAX` while warming up.
    start_ns: AtomicU64,
    window_ns: AtomicU64,
    rounds: OnceLock<Vec<Round>>,
    /// Frames verified before the timed section (the warm-up).
    warm: AtomicU64,
    /// Frames verified after the last round closed.
    late: AtomicU64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            start_ns: AtomicU64::new(u64::MAX),
            window_ns: AtomicU64::new(1),
            rounds: OnceLock::new(),
            warm: AtomicU64::new(0),
            late: AtomicU64::new(0),
        }
    }

    /// One verified frame at `now`, with its latency sample if it has one.
    pub fn record(&self, now: u64, latency_ns: Option<u64>) {
        // Acquire pairs with the Release store in `start`: a handler that
        // sees the start stamp also sees the rounds and the window.
        let start = self.start_ns.load(Ordering::Acquire);
        if now < start {
            self.warm.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let window = self.window_ns.load(Ordering::Relaxed);
        let idx = ((now - start) / window) as usize;
        let Some(round) = self.rounds.get().and_then(|r| r.get(idx)) else {
            self.late.fetch_add(1, Ordering::Relaxed);
            return;
        };
        round.frames.fetch_add(1, Ordering::Relaxed);
        if let Some(lat) = latency_ns {
            let i = round.samples.fetch_add(1, Ordering::Relaxed) as usize;
            if let Some(slot) = round.lat.get(i) {
                slot.store(lat.min(u32::MAX as u64) as u32, Ordering::Relaxed);
            }
        }
    }

    /// Frames verified during the warm-up so far.
    pub fn warm(&self) -> u64 {
        self.warm.load(Ordering::Relaxed)
    }

    /// Open the timed section at `now`: `rounds` rounds of `window_ns`,
    /// each with room for `slots` latency samples.
    pub fn start(&self, now: u64, rounds: usize, window_ns: u64, slots: usize) {
        let rounds = (0..rounds)
            .map(|_| Round {
                frames: AtomicU64::new(0),
                samples: AtomicU64::new(0),
                lat: (0..slots).map(|_| AtomicU32::new(0)).collect(),
            })
            .collect();
        assert!(self.rounds.set(rounds).is_ok(), "recorder started twice");
        self.window_ns.store(window_ns.max(1), Ordering::Relaxed);
        self.start_ns.store(now, Ordering::Release);
    }

    /// Every frame recorded, in any phase.
    pub fn total_frames(&self) -> u64 {
        self.timed_frames() + self.warm() + self.late.load(Ordering::Relaxed)
    }

    /// Frames recorded inside the timed section.
    pub fn timed_frames(&self) -> u64 {
        self.rounds.get().map_or(0, |rounds| {
            rounds
                .iter()
                .map(|r| r.frames.load(Ordering::Relaxed))
                .sum()
        })
    }

    /// Per-round rates and latency quantiles. Call after the run ended.
    pub fn round_stats(&self) -> RoundStats {
        let window_s = self.window_ns.load(Ordering::Relaxed) as f64 / 1e9;
        let mut out = RoundStats {
            frames_per_s: Vec::new(),
            p50_us: Vec::new(),
            p99_us: Vec::new(),
            samples: 0,
            dropped: 0,
        };
        for round in self.rounds.get().map(Vec::as_slice).unwrap_or(&[]) {
            let recorded = round.samples.load(Ordering::Relaxed);
            let held = (recorded as usize).min(round.lat.len());
            let lat: Vec<f64> = round.lat[..held]
                .iter()
                .map(|s| s.load(Ordering::Relaxed) as f64 / 1e3)
                .collect();
            let lat = sorted(&lat);
            out.frames_per_s
                .push(round.frames.load(Ordering::Relaxed) as f64 / window_s);
            out.p50_us.push(quantile_sorted(&lat, 0.50));
            out.p99_us.push(quantile_sorted(&lat, 0.99));
            out.samples += held as u64;
            out.dropped += recorded - held as u64;
        }
        out
    }
}

/// What a span covers. The first group is recorded around `ExecCtx`
/// calls in handlers, the second by the transport tap.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A whole benchmark handler, entry to return.
    Handler,
    /// `ExecCtx::send`.
    Send,
    /// `ExecCtx::create_frame`.
    CreateFrame,
    /// `ExecCtx::read`.
    MemRead,
    /// `ExecCtx::write`.
    MemWrite,
    /// `Transport::send_plain`: one record entering a peer's queue.
    Enqueue,
    /// One record inside a `DrainSealer` call.
    Seal,
    /// Sealed frame returned to the poller → body on the peer's
    /// `incoming()`.
    Wire,
}

/// One traced interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    /// Unique id of this span.
    pub span: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// Index of the site the span ran on.
    pub site: u32,
    pub start: u64,
    pub end: u64,
    /// The frame/hop id for handler spans, the message number for tap
    /// spans.
    pub id: u64,
    /// Kind-specific detail (see the tap).
    pub aux: [u64; 3],
}

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's span buffer. The mutex is uncontended while the
    /// cluster runs: only `drain_spans`, after teardown, takes it from
    /// another thread.
    static BUFFER: Arc<Mutex<Vec<Span>>> = {
        let buf = Arc::new(Mutex::new(Vec::new()));
        BUFFERS.lock().expect("span registry poisoned").push(buf.clone());
        buf
    };
    /// The innermost open span on this thread.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Turn span recording on or off for the whole process.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// A fresh span id.
pub fn next_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// The innermost span open on the calling thread (0 = none).
pub fn current_span() -> u64 {
    CURRENT.with(Cell::get)
}

/// Append a finished span to the calling thread's buffer.
pub fn push_span(span: Span) {
    BUFFER.with(|b| b.lock().expect("span buffer poisoned").push(span));
}

/// Run `f` as a span of `kind` when tracing (and `on`), else just run it.
pub fn spanned<R>(on: bool, kind: Kind, site: u32, id: u64, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let span = next_span_id();
    let parent = CURRENT.with(|c| c.replace(span));
    let start = crate::util::now_ns();
    let out = f();
    let end = crate::util::now_ns();
    CURRENT.with(|c| c.set(parent));
    push_span(Span {
        kind,
        span,
        parent,
        site,
        start,
        end,
        id,
        aux: [0; 3],
    });
    out
}

/// Take every span recorded so far, from every thread.
pub fn drain_spans() -> Vec<Span> {
    let buffers = BUFFERS.lock().expect("span registry poisoned");
    let mut all = Vec::new();
    for b in buffers.iter() {
        all.append(&mut b.lock().expect("span buffer poisoned"));
    }
    all
}
