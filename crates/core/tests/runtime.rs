//! End-to-end tests of the SDVM daemon: dataflow execution, distributed
//! scheduling via help requests, attraction memory, dynamic entry/exit,
//! crash recovery, security, heterogeneous platforms and I/O.

#![allow(clippy::field_reassign_with_default)] // config structs are built by mutation by design
#![allow(clippy::disallowed_methods)] // tests may unwrap

use bytes::Bytes;
use sdvm_core::{prometheus_text, AppBuilder, InProcessCluster, SiteConfig, TraceEvent, TraceLog};
use sdvm_types::{PlatformId, SchedulingHint, SiteId, Value};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);

/// width² summed via `width` parallel squaring microthreads + a reducer.
/// `work_ms` > 0 makes each worker take real time, so on a cluster the
/// idle sites' help requests land while work is still queued.
fn square_sum_app_with(width: usize, work_ms: u64) -> (AppBuilder, u32, u32) {
    let mut app = AppBuilder::new("square-sum");
    let square = app.thread("square", move |ctx| {
        if work_ms > 0 {
            std::thread::sleep(Duration::from_millis(work_ms));
        }
        let n = ctx.param(0)?.as_u64()?;
        let slot = ctx.param(1)?.as_u64()? as u32;
        let t = ctx.target(0)?;
        ctx.send(t, slot, Value::from_u64(n * n))
    });
    let reduce = app.thread("reduce", move |ctx| {
        let mut acc = 0u64;
        for i in 0..ctx.param_count() as u32 {
            acc += ctx.param(i)?.as_u64()?;
        }
        let t = ctx.target(0)?;
        ctx.send(t, 0, Value::from_u64(acc))
    });
    let _ = width;
    (app, square, reduce)
}

#[allow(dead_code)] // kept as the simplest API demonstration
fn square_sum_app(width: usize) -> (AppBuilder, u32, u32) {
    square_sum_app_with(width, 0)
}

fn launch_square_sum_with(
    cluster: &InProcessCluster,
    on: usize,
    width: usize,
    work_ms: u64,
) -> sdvm_core::ProgramHandle {
    let (app, square, reduce) = square_sum_app_with(width, work_ms);
    cluster
        .site(on)
        .launch(&app, |ctx, result| {
            let reducer = ctx.create_frame(reduce, width, vec![result], Default::default());
            for i in 0..width {
                let w = ctx.create_frame(square, 2, vec![reducer], SchedulingHint::default());
                ctx.send(w, 0, Value::from_u64(i as u64 + 1))?;
                ctx.send(w, 1, Value::from_u64(i as u64))?;
            }
            Ok(())
        })
        .expect("launch")
}

fn launch_square_sum(
    cluster: &InProcessCluster,
    on: usize,
    width: usize,
) -> sdvm_core::ProgramHandle {
    launch_square_sum_with(cluster, on, width, 0)
}

fn expected_square_sum(width: usize) -> u64 {
    (1..=width as u64).map(|n| n * n).sum()
}

#[test]
fn single_site_program() {
    let cluster = InProcessCluster::new(1, SiteConfig::default()).unwrap();
    let handle = launch_square_sum(&cluster, 0, 8);
    let result = handle.wait(WAIT).unwrap();
    assert_eq!(result.as_u64().unwrap(), expected_square_sum(8));
}

#[test]
fn work_distributes_across_cluster() {
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![SiteConfig::default(); 4], Some(trace.clone()))
            .unwrap();
    let handle = launch_square_sum_with(&cluster, 0, 24, 25);
    let result = handle.wait(WAIT).unwrap();
    assert_eq!(result.as_u64().unwrap(), expected_square_sum(24));
    // Decentralized scheduling must actually have moved work: at least
    // one help request was granted.
    let grants = trace.filter(|e| matches!(e, TraceEvent::HelpGranted { .. }));
    assert!(!grants.is_empty(), "no work migrated on a 4-site cluster");
    // And more than one site executed frames.
    let mut executors: Vec<_> = trace
        .timestamped()
        .into_iter()
        .filter(|b| matches!(b.event, TraceEvent::FrameExecuted { .. }))
        .map(|b| b.site)
        .collect();
    executors.sort_unstable();
    executors.dedup();
    assert!(executors.len() >= 2, "only {executors:?} executed");
    // Once every site has stopped, each help and execution counter
    // equals the count of its events on the (unwrapped) bus.
    for i in 0..4 {
        cluster.crash(i);
    }
    assert_eq!(trace.dropped(), 0, "the bus wrapped");
    let count = |f: fn(&TraceEvent) -> bool| trace.filter(f).len() as u64;
    let mut counters = (0, 0, 0, 0);
    for i in 0..4 {
        let m = cluster.site(i).inner().metrics.snapshot();
        counters.0 += m.help_requests;
        counters.1 += m.help_granted;
        counters.2 += m.help_denied;
        counters.3 += m.frames_executed;
    }
    assert_eq!(
        counters,
        (
            count(|e| matches!(e, TraceEvent::HelpRequested { .. })),
            count(|e| matches!(e, TraceEvent::HelpGranted { .. })),
            count(|e| matches!(e, TraceEvent::HelpDenied { .. })),
            count(|e| matches!(e, TraceEvent::FrameExecuted { .. })),
        ),
        "(help_requests, help_granted, help_denied, frames_executed) vs their events"
    );
}

#[test]
fn career_of_microframe_matches_figure5() {
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![SiteConfig::default()], Some(trace.clone())).unwrap();
    let handle = launch_square_sum(&cluster, 0, 2);
    handle.wait(WAIT).unwrap();
    // Find a square frame (2 slots) and check its lifecycle order.
    let created = trace.filter(|e| matches!(e, TraceEvent::FrameCreated { slots: 2, .. }));
    assert!(!created.is_empty());
    let TraceEvent::FrameCreated { frame, .. } = created[0] else {
        unreachable!()
    };
    let career = trace.career_of(frame);
    assert_eq!(
        career,
        vec![
            "incomplete",
            "param",
            "param",
            "executable",
            "ready",
            "executed"
        ],
        "career of {frame}"
    );
}

#[test]
fn global_memory_read_write_migrate() {
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![SiteConfig::default(); 2], Some(trace.clone()))
            .unwrap();
    let mut app = AppBuilder::new("memory");
    // Reader thread: reads the object (migrating), doubles it, writes it
    // back, then reports the doubled value.
    let reader = app.thread("reader", |ctx| {
        let addr = ctx.param(0)?.as_address()?;
        let v = ctx.read_migrate(addr)?.as_u64()?;
        ctx.write(addr, Value::from_u64(v * 2))?;
        let check = ctx.read(addr)?.as_u64()?;
        let t = ctx.target(0)?;
        ctx.send(t, 0, Value::from_u64(check))
    });
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let obj = ctx.alloc(Value::from_u64(21));
            let f = ctx.create_frame(reader, 1, vec![result], Default::default());
            ctx.send(f, 0, Value::from_address(obj))
        })
        .unwrap();
    assert_eq!(handle.wait(WAIT).unwrap().as_u64().unwrap(), 42);
}

#[test]
fn dynamic_entry_at_runtime() {
    let mut cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    // Launch a wide program, then add sites mid-run.
    let handle = launch_square_sum(&cluster, 0, 40);
    let i = cluster.add_site(SiteConfig::default()).unwrap();
    assert!(cluster.site(i).id().is_valid());
    let j = cluster.add_site(SiteConfig::default()).unwrap();
    assert!(cluster.site(j).id().is_valid());
    assert_ne!(cluster.site(i).id(), cluster.site(j).id());
    let result = handle.wait(WAIT).unwrap();
    assert_eq!(result.as_u64().unwrap(), expected_square_sum(40));
}

#[test]
fn dynamic_exit_relocates_work() {
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![SiteConfig::default(); 3], Some(trace.clone()))
            .unwrap();
    let handle = launch_square_sum(&cluster, 0, 30);
    // Sign off a non-frontend site while the program runs; its frames
    // must be relocated, and the program must still finish correctly.
    cluster.sign_off(2).unwrap();
    let result = handle.wait(WAIT).unwrap();
    assert_eq!(result.as_u64().unwrap(), expected_square_sum(30));
    let gone = trace.filter(|e| matches!(e, TraceEvent::SiteGone { crashed: false, .. }));
    assert!(!gone.is_empty(), "orderly departure must be announced");
}

#[test]
fn crash_recovery_completes_program() {
    let trace = TraceLog::new();
    let mut cfg = SiteConfig::default().with_crash_tolerance();
    cfg.heartbeat_interval = Duration::from_millis(50);
    cfg.crash_timeout = Duration::from_millis(300);
    // Slow the workers slightly so the crash lands mid-computation.
    let cluster =
        InProcessCluster::with_configs(vec![cfg.clone(); 3], Some(trace.clone())).unwrap();
    let mut app = AppBuilder::new("slow-sum");
    let slow_square = app.thread("slow-square", |ctx| {
        std::thread::sleep(Duration::from_millis(20));
        let n = ctx.param(0)?.as_u64()?;
        let slot = ctx.param(1)?.as_u64()? as u32;
        let t = ctx.target(0)?;
        ctx.send(t, slot, Value::from_u64(n * n))
    });
    let width = 24usize;
    let reduce = app.thread("reduce", move |ctx| {
        let mut acc = 0u64;
        for i in 0..ctx.param_count() as u32 {
            acc += ctx.param(i)?.as_u64()?;
        }
        let t = ctx.target(0)?;
        ctx.send(t, 0, Value::from_u64(acc))
    });
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let reducer = ctx.create_frame(reduce, width, vec![result], Default::default());
            for i in 0..width {
                let w = ctx.create_frame(slow_square, 2, vec![reducer], Default::default());
                ctx.send(w, 0, Value::from_u64(i as u64 + 1))?;
                ctx.send(w, 1, Value::from_u64(i as u64))?;
            }
            Ok(())
        })
        .unwrap();
    // Let work spread, then kill site 2 abruptly.
    std::thread::sleep(Duration::from_millis(150));
    cluster.crash(2);
    let result = handle.wait(WAIT).unwrap();
    assert_eq!(result.as_u64().unwrap(), expected_square_sum(width));
    // Detection needs crash_timeout of silence; poll for it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let crashes = trace.filter(|e| matches!(e, TraceEvent::SiteGone { crashed: true, .. }));
        if !crashes.is_empty() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "crash never detected");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The stronger property: work *held by the crashed site* is revived
/// from backups and the program still completes.
#[test]
fn crash_recovery_revives_lost_frames() {
    let trace = TraceLog::new();
    let mut cfg = SiteConfig::default().with_crash_tolerance();
    cfg.heartbeat_interval = Duration::from_millis(50);
    cfg.crash_timeout = Duration::from_millis(300);
    let cluster =
        InProcessCluster::with_configs(vec![cfg.clone(); 3], Some(trace.clone())).unwrap();
    let handle = launch_square_sum_with(&cluster, 0, 30, 30);
    // Wait until site 3 actually received work via a help grant.
    let victim = cluster.site(2).id();
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    loop {
        let got_work = trace.filter(
            |e| matches!(e, TraceEvent::HelpGranted { requester, .. } if *requester == victim),
        );
        if !got_work.is_empty() {
            break;
        }
        if std::time::Instant::now() > deadline {
            // Work never migrated (scheduling won the race) — the test
            // cannot exercise revival this run; completion is still
            // asserted below.
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.crash(2);
    let result = handle.wait(WAIT).unwrap();
    assert_eq!(result.as_u64().unwrap(), expected_square_sum(30));
}

#[test]
fn encrypted_cluster_runs() {
    let cfg = SiteConfig::default().with_password("cluster-secret");
    let cluster = InProcessCluster::new(3, cfg).unwrap();
    let handle = launch_square_sum(&cluster, 0, 12);
    let result = handle.wait(WAIT).unwrap();
    assert_eq!(result.as_u64().unwrap(), expected_square_sum(12));
}

#[test]
fn wrong_password_cannot_join() {
    let mut cluster =
        InProcessCluster::new(1, SiteConfig::default().with_password("right")).unwrap();
    let err = cluster.add_site(SiteConfig::default().with_password("wrong"));
    assert!(
        err.is_err(),
        "a site with the wrong start password must not join"
    );
}

#[test]
fn heterogeneous_platforms_compile_on_the_fly() {
    let trace = TraceLog::new();
    let mut cfg_a = SiteConfig::default();
    cfg_a.platform = PlatformId(1);
    cfg_a.compile_latency = Duration::from_millis(5);
    let mut cfg_b = SiteConfig::default();
    cfg_b.platform = PlatformId(2); // different OS/arch: needs source
    cfg_b.compile_latency = Duration::from_millis(5);
    let cluster =
        InProcessCluster::with_configs(vec![cfg_a, cfg_b.clone(), cfg_b], Some(trace.clone()))
            .unwrap();
    let handle = launch_square_sum_with(&cluster, 0, 30, 20);
    let result = handle.wait(WAIT).unwrap();
    assert_eq!(result.as_u64().unwrap(), expected_square_sum(30));
    // Platform-2 sites had no binary: at least one on-the-fly compile.
    let compiles = trace.filter(|e| {
        matches!(
            e,
            TraceEvent::CodeCompiled {
                platform: PlatformId(2),
                ..
            }
        )
    });
    assert!(!compiles.is_empty(), "platform 2 must compile from source");
}

#[test]
fn two_programs_run_concurrently() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let h1 = launch_square_sum(&cluster, 0, 10);
    let h2 = launch_square_sum(&cluster, 1, 15);
    assert_ne!(h1.program, h2.program);
    assert_eq!(
        h1.wait(WAIT).unwrap().as_u64().unwrap(),
        expected_square_sum(10)
    );
    assert_eq!(
        h2.wait(WAIT).unwrap().as_u64().unwrap(),
        expected_square_sum(15)
    );
}

#[test]
fn program_output_reaches_frontend() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let mut app = AppBuilder::new("hello");
    let t = app.thread("greet", |ctx| {
        ctx.output("hello from a microthread");
        let t = ctx.target(0)?;
        ctx.send(t, 0, Value::empty())
    });
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let f = ctx.create_frame(t, 1, vec![result], Default::default());
            ctx.send(f, 0, Value::empty())
        })
        .unwrap();
    handle.wait(WAIT).unwrap();
    let line = handle.next_output(WAIT).unwrap();
    assert_eq!(line, "hello from a microthread");
}

#[test]
fn remote_file_access_rerouted() {
    let dir = std::env::temp_dir().join(format!("sdvm-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.bin").to_string_lossy().to_string();
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let mut app = AppBuilder::new("files");
    let path2 = path.clone();
    // The writer opens the file on whatever site it runs on and passes
    // the handle on; the checker reads it back — possibly remotely.
    let check = app.thread("check", move |ctx| {
        let handle_bits = ctx.param(0)?.as_u64_slice()?;
        let handle = sdvm_types::FileHandle {
            site: sdvm_types::SiteId(handle_bits[0] as u32),
            local: handle_bits[1] as u32,
        };
        let data = ctx.file_read(handle, 0, 16)?;
        ctx.file_close(handle)?;
        let t = ctx.target(0)?;
        ctx.send(t, 0, Value::from_bytes(data))
    });
    let write = app.thread("write", move |ctx| {
        let handle = ctx.file_open(&path2, true)?;
        ctx.file_write(handle, 0, Bytes::from_static(b"sdvm file data"))?;
        let t = ctx.target(0)?;
        ctx.send(
            t,
            0,
            Value::from_u64_slice(&[handle.site.0 as u64, handle.local as u64]),
        )
    });
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let checker = ctx.create_frame(check, 1, vec![result], Default::default());
            let writer = ctx.create_frame(write, 1, vec![checker], Default::default());
            ctx.send(writer, 0, Value::empty())
        })
        .unwrap();
    let result = handle.wait(WAIT).unwrap();
    assert_eq!(result.bytes().as_ref(), b"sdvm file data");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn site_status_reports() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s = cluster.site(0).inner();
    let status = s.site_mgr.status(s);
    assert_eq!(status.id, cluster.site(0).id());
    assert_eq!(status.known_sites, 2);
}

#[test]
fn user_input_round_trip() {
    let cluster = InProcessCluster::new(1, SiteConfig::default()).unwrap();
    let mut app = AppBuilder::new("ask");
    let ask = app.thread("ask", |ctx| {
        let line = ctx.input("name? ")?;
        let t = ctx.target(0)?;
        ctx.send(t, 0, Value::from_str_val(&format!("hello {line}")))
    });
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let f = ctx.create_frame(ask, 1, vec![result], Default::default());
            ctx.send(f, 0, Value::empty())
        })
        .unwrap();
    handle.push_input("world");
    let result = handle.wait(WAIT).unwrap();
    assert_eq!(result.as_str().unwrap(), "hello world");
}

#[test]
fn accounting_tracks_per_program_usage() {
    // Paper goal 14 / §2.2 service-provider scenario: each site keeps a
    // ledger of what it executed for whom.
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let h1 = launch_square_sum_with(&cluster, 0, 16, 5);
    let h2 = launch_square_sum_with(&cluster, 0, 8, 5);
    h1.wait(WAIT).unwrap();
    h2.wait(WAIT).unwrap();
    // `wait` only proves the result arrived; the executing slot bills
    // *after* running a frame, so poll until the ledger settles.
    let (mut frames1, mut frames2, mut cpu_total);
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        frames1 = 0;
        frames2 = 0;
        cpu_total = Duration::ZERO;
        for i in 0..2 {
            let s = cluster.site(i).inner();
            frames1 += s.site_mgr.usage_of(h1.program).frames_executed;
            frames2 += s.site_mgr.usage_of(h2.program).frames_executed;
            for (_, u) in s.site_mgr.accounting() {
                cpu_total += u.cpu;
            }
        }
        if (frames1 == 18 && frames2 == 10) || std::time::Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // 16 squares + reducer + result thread; likewise 8 + 2.
    assert_eq!(frames1, 18, "program 1 executions across the cluster");
    assert_eq!(frames2, 10, "program 2 executions across the cluster");
    // The 5 ms per square must show up as billed CPU time.
    assert!(
        cpu_total >= Duration::from_millis(24 * 5),
        "billed cpu {cpu_total:?} below the sleep floor"
    );
}

/// A result sent to a frame that has already fired is discarded without
/// an error; the discard must be answerable from a live site — one
/// `sdvm_dropped_total` count with a reason, one `Dropped` bus event.
#[test]
fn a_duplicate_result_is_counted_and_traced_as_a_drop() {
    let trace = TraceLog::new();
    let cluster = InProcessCluster::with_configs(vec![SiteConfig::default()], Some(trace.clone()))
        .expect("cluster");
    let mut app = AppBuilder::new("duplicate-result");
    let leaf = app.thread("leaf", |ctx| {
        let v = ctx.param(0)?.clone();
        ctx.send(ctx.target(0)?, 0, v)
    });
    let handle = cluster
        .site(0)
        .launch(&app, move |ctx, result| {
            let w = ctx.create_frame(leaf, 1, vec![result], Default::default());
            ctx.send(w, 0, Value::from_u64(7))?;
            ctx.send(w, 0, Value::from_u64(7))
        })
        .expect("launch");
    let result = handle.wait(WAIT).expect("result");
    assert_eq!(result.as_u64().expect("u64"), 7);

    let site = cluster.site(0);
    let inner = site.inner();
    let m = inner.metrics.snapshot();
    let counted: Vec<_> = m.dropped.iter().filter(|(_, n)| *n > 0).collect();
    assert_eq!(counted.len(), 1, "one drop, one reason: {:?}", m.dropped);
    let (reason, n) = counted[0];
    assert_eq!(*n, 1);
    let traced = trace.filter(|e| matches!(e, TraceEvent::Dropped { .. }));
    assert_eq!(traced.len(), 1, "one Dropped event on the bus");
    let TraceEvent::Dropped {
        reason: traced_reason,
        ..
    } = &traced[0]
    else {
        unreachable!("filtered on Dropped");
    };
    assert_eq!(&format!("{traced_reason:?}"), reason);
    let text = prometheus_text(&[(SiteId(1), m.clone())]);
    assert!(
        text.contains(&format!(
            "sdvm_dropped_total{{site=\"1\",reason=\"{reason}\"}} 1"
        )),
        "drop missing from the exposition"
    );
}
