//! The ops-plane HTTP listener: live introspection of a running site.
//!
//! A site configured with [`ops_addr`] serves four plain-HTTP/1.1
//! endpoints from one background thread:
//!
//! - `GET /metrics` — the Prometheus text exposition of this site's
//!   metrics, followed by the `sdvm_cluster_*` rollup merged from the
//!   digests that piggyback on heartbeats (wire v7).
//! - `GET /healthz` — `200` when the site is healthy, `503` with a JSON
//!   reason list when it is not (not running, draining, zero live
//!   workers, open suspicions, death tombstones, or deep outbound
//!   backpressure). While draining, the reason carries live progress:
//!   objects left, frames left, outbound queue depth.
//! - `GET /status` — a JSON snapshot: local manager status, the
//!   membership view (incarnations, suspicions, tombstones,
//!   succession), dead letters, replication counters and per-shard
//!   memory contention.
//! - `POST /drain` — start a graceful drain (the wire-v8 planned
//!   departure): replies `202` immediately and runs the drain on a
//!   helper thread; `/healthz` tracks the progress until the site
//!   departs. A second POST while draining replies `409`.
//!
//! The listener is deliberately primitive — `std::net`, blocking reads
//! with a timeout, `Connection: close` — because it serves curl and
//! Prometheus scrapers, not browsers. With `ops_addr` unset (the
//! default) none of this code runs.
//!
//! [`ops_addr`]: crate::config::SiteConfig::ops_addr

use crate::site::SiteInner;
use crate::telemetry::export::json_escape;
use crate::telemetry::rollup::{cluster_prometheus_text, digest_of};
use crate::telemetry::{prometheus_text, MAX_POSTMORTEM_FILES};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Outbound queue depth at which `/healthz` starts reporting the site
/// unhealthy: this much standing backpressure means peers are not
/// draining what this site sends.
pub const HEALTHZ_OUTBOUND_LIMIT: usize = 1024;

/// Poll interval of the nonblocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Per-connection read/write timeout — a stuck scraper must not pin
/// the ops thread.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Bind the ops listener and spawn its accept-loop thread. Returns
/// `None` (with a stderr report) when binding fails or no `ops_addr`
/// is configured — the site then runs without an ops plane rather than
/// dying over it. The bound address is stored on the site first, so
/// callers can resolve `"127.0.0.1:0"` right after start.
pub(crate) fn spawn_ops_listener(inner: &Arc<SiteInner>) -> Option<std::thread::JoinHandle<()>> {
    let addr = inner.config.ops_addr.clone()?;
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sdvm: ops listener failed to bind {addr}: {e}");
            return None;
        }
    };
    match listener.local_addr() {
        Ok(local) => inner.set_ops_bound(local),
        Err(e) => {
            eprintln!("sdvm: ops listener has no local addr: {e}");
            return None;
        }
    }
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("sdvm: ops listener cannot go nonblocking: {e}");
        return None;
    }
    let inner = inner.clone();
    let name = format!("sdvm-ops-{}", inner.my_id());
    crate::site::spawn_named(name, move || {
        while inner.is_running() {
            match listener.accept() {
                Ok((stream, _)) => handle_connection(&inner, stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
    })
}

/// Serve one connection: read the request head, route on the path,
/// write one response, close.
fn handle_connection(inner: &Arc<SiteInner>, mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Some((method, path)) = read_request_line(&mut stream) else {
        respond(&mut stream, 400, "text/plain", "bad request\n");
        return;
    };
    match (method.as_str(), path.as_str()) {
        ("GET", "/metrics") => {
            let (code, body) = metrics_body(inner);
            respond(&mut stream, code, "text/plain; version=0.0.4", &body);
        }
        ("GET", "/healthz") => {
            let (code, body) = healthz_body(inner);
            respond(&mut stream, code, "application/json", &body);
        }
        ("GET", "/status") => {
            let body = status_body(inner);
            respond(&mut stream, 200, "application/json", &body);
        }
        ("POST", "/drain") => {
            let (code, body) = drain_trigger(inner);
            respond(&mut stream, code, "application/json", &body);
        }
        ("GET" | "POST", _) => respond(
            &mut stream,
            404,
            "text/plain",
            "not found; try GET /metrics /healthz /status, POST /drain\n",
        ),
        _ => respond(&mut stream, 405, "text/plain", "method not allowed\n"),
    }
}

/// Read the request head and return `(method, path)` of
/// `<METHOD> <path> HTTP/…`.
fn read_request_line(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 256];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 4096 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
        // The request line is all we route on; stop as soon as it's in.
        if buf.windows(2).any(|w| w == b"\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next()?;
    let mut parts = line.split_ascii_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?;
    // Ignore any query string — `/metrics?x=y` is still `/metrics`.
    Some((method, path.split('?').next().unwrap_or(path).to_string()))
}

/// Write one HTTP/1.1 response and close.
fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let reason = match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "OK",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// `/metrics`: per-site families, then the cluster rollup. The site's
/// own digest is refreshed on scrape so a fresh (or singleton) site
/// reports itself without waiting for a heartbeat tick.
fn metrics_body(inner: &Arc<SiteInner>) -> (u16, String) {
    let status = inner.site_mgr.status(inner);
    if status.id.is_valid() {
        inner.rollup.record(status.id, digest_of(&inner.metrics));
    }
    let mut body = prometheus_text(&[(status.id, status.metrics)]);
    body.push_str(&cluster_prometheus_text(&inner.rollup.totals()));
    if let Some(rec) = &inner.recorder {
        let _ = writeln!(
            body,
            "# HELP sdvm_postmortems_written Flight-recorder postmortem files written (bounded at {MAX_POSTMORTEM_FILES})."
        );
        let _ = writeln!(body, "# TYPE sdvm_postmortems_written gauge");
        let _ = writeln!(body, "sdvm_postmortems_written {}", rec.written());
    }
    (200, body)
}

/// `/healthz`: 200 and `{"ok": true}` when healthy, else 503 and the
/// reason list. Tombstones lift when the dead site rejoins (its
/// re-announce clears the entry), so recovery flips this back to 200.
fn healthz_body(inner: &Arc<SiteInner>) -> (u16, String) {
    let mut reasons: Vec<String> = Vec::new();
    if !inner.is_running() {
        reasons.push("not running".into());
    }
    if inner.is_draining() {
        // Live drain progress: what still has to leave before the site
        // can depart. All three numbers fall to zero over a drain.
        let mem = inner.memory.stats();
        let queued = inner.scheduling.queued_total();
        let outbound: usize = inner
            .transport
            .outbound_depths()
            .iter()
            .map(|(_, depth)| depth)
            .sum();
        reasons.push(format!(
            "draining: {} objects left, {} frames left, {} queued locally, outbound queue depth {}",
            mem.objects, mem.frames, queued, outbound
        ));
    }
    let workers = inner.live_workers();
    if workers == 0 {
        reasons.push("no live worker slots".into());
    }
    let view = inner.cluster.membership_view();
    for m in view.members.iter().filter(|m| m.suspected) {
        reasons.push(format!(
            "site {} suspected ({} accusers)",
            m.site.0, m.accusers
        ));
    }
    for d in &view.dead {
        reasons.push(format!("site {} dead (fence floor {})", d.site.0, d.floor));
    }
    let outbound: usize = inner
        .transport
        .outbound_depths()
        .iter()
        .map(|(_, depth)| depth)
        .sum();
    if outbound >= HEALTHZ_OUTBOUND_LIMIT {
        reasons.push(format!("outbound backpressure: {outbound} frames queued"));
    }
    let ok = reasons.is_empty();
    let mut body = format!(
        "{{\"ok\": {ok}, \"site\": {}, \"reasons\": [",
        inner.my_id().0
    );
    for (i, r) in reasons.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(body, "\"{}\"", json_escape(r));
    }
    body.push_str("]}\n");
    (if ok { 200 } else { 503 }, body)
}

/// `POST /drain`: kick off the graceful departure. The drain itself is
/// blocking (relocation round trips), so it runs on a helper thread and
/// the response is `202 Accepted` — watch `/healthz` for progress. When
/// the drain completes the site soft-stops (its threads exit; the
/// owning handle joins them later); when it fails the site re-adopts
/// its work and returns to normal duty.
fn drain_trigger(inner: &Arc<SiteInner>) -> (u16, String) {
    let me = inner.my_id().0;
    if inner.is_draining() {
        return (
            409,
            format!("{{\"ok\": false, \"site\": {me}, \"error\": \"already draining\"}}\n"),
        );
    }
    inner.set_draining(true);
    inner.spawn_task(|site| {
        match site.cluster.sign_off(site) {
            Ok(()) => site.soft_stop(),
            Err(e) => {
                // Drain aborted (successor unreachable, relocation
                // refused): work was re-adopted, resume normal duty.
                eprintln!("sdvm: site {} drain failed: {e}", site.my_id());
                site.set_draining(false);
            }
        }
    });
    (
        202,
        format!("{{\"ok\": true, \"site\": {me}, \"draining\": true}}\n"),
    )
}

/// `/status`: the full JSON snapshot.
fn status_body(inner: &Arc<SiteInner>) -> String {
    let status = inner.site_mgr.status(inner);
    let m = &status.metrics;
    let view = inner.cluster.membership_view();
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\n  \"site\": {}, \"incarnation\": {}, \"running\": {}, \"draining\": {},\n",
        status.id.0,
        inner.my_incarnation(),
        inner.is_running(),
        inner.is_draining(),
    );
    let _ = writeln!(
        out,
        "  \"queued_frames\": {}, \"busy_slots\": {}, \"live_workers\": {}, \"objects\": {}, \"incomplete_frames\": {}, \"memory_bytes\": {}, \"programs\": {}, \"outstanding_requests\": {}, \"outbound_queued\": {}, \"outbound_retries\": {}, \"delayed_frames\": {},",
        status.queued_frames,
        status.busy_slots,
        inner.live_workers(),
        status.objects,
        status.incomplete_frames,
        status.memory_bytes,
        status.programs,
        status.outstanding_requests,
        status.outbound_queued,
        status.outbound_retries,
        status.delayed_frames,
    );
    // The transport driver's fixed thread budget and live-socket count,
    // plus this site's Vivaldi coordinate fit (wire v9 proximity
    // routing stays on uniform fallback until `converged` flips true).
    let (coord_err_ms, coord_samples, coord_converged) = inner.cluster.coord_stats();
    let _ = writeln!(
        out,
        "  \"transport\": {{\"peers_connected\": {}, \"driver_threads\": {}}}, \"coord\": {{\"error_ms\": {:.3}, \"samples\": {}, \"converged\": {}}},",
        inner.transport.peers_connected(),
        inner.transport.driver_threads(),
        coord_err_ms,
        coord_samples,
        coord_converged,
    );
    // Membership: live members with incarnation/suspicion/silence,
    // death tombstones with fencing floors, crash succession.
    out.push_str("  \"membership\": {\"members\": [");
    for (i, mv) in view.members.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"site\": {}, \"incarnation\": {}, \"suspected\": {}, \"accusers\": {}, \"silent_ms\": {}, \"queued_frames\": {}, \"busy_slots\": {}}}",
            mv.site.0,
            mv.incarnation,
            mv.suspected,
            mv.accusers,
            mv.silent_for.as_millis(),
            mv.load.queued_frames,
            mv.load.busy_slots,
        );
    }
    out.push_str("], \"dead\": [");
    for (i, d) in view.dead.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"site\": {}, \"floor\": {}}}", d.site.0, d.floor);
    }
    out.push_str("], \"succession\": [");
    for (i, (from, to)) in view.succession.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{}, {}]", from.0, to.0);
    }
    out.push_str("]},\n");
    // Dead letters: the quarantined poison frames, with causes.
    let letters = inner.deadletter.letters();
    let _ = write!(
        out,
        "  \"dead_letters\": {{\"count\": {}, \"frames\": [",
        letters.len()
    );
    for (i, l) in letters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"frame\": \"{}\", \"cause\": \"{}\"}}",
            l.frame.id,
            json_escape(&l.cause.to_string()),
        );
    }
    out.push_str("]},\n");
    // Replication ledger counters and bus loss.
    let _ = writeln!(
        out,
        "  \"replication\": {{\"replicas_dispatched\": {}, \"result_divergence\": {}, \"hedges_fired\": {}, \"hedge_wins\": {}}},",
        m.replicas_dispatched, m.result_divergence, m.hedges_fired, m.hedge_wins,
    );
    let _ = writeln!(
        out,
        "  \"bus\": {{\"dropped\": {}, \"tap_dropped\": {}}},",
        m.bus_dropped, m.bus_tap_dropped,
    );
    // Per-shard attraction-memory contention.
    out.push_str("  \"mem_shard_contention\": [");
    for (i, v) in m.mem_shard_contention.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push_str("]\n}\n");
    out
}
