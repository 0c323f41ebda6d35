//! Shared harness code for the experiment binaries: the calibrated cost
//! model tying the simulator to the paper's Pentium-IV testbed, small
//! table-printing helpers, and the writer of the `BENCH_*.json` reports.
//!
//! The `paper` binary regenerates every table and figure of the paper,
//! one subcommand per experiment (`paper e1` … `paper e14`, `paper e7b`,
//! `paper f4`; `paper sim` runs the purely simulated ones); see
//! DESIGN.md §3 for the index and EXPERIMENTS.md for paper-vs-measured
//! numbers. The other binaries each gate one design claim of this
//! reproduction: `scale_sim`, `telemetry_overhead`, `drain_makespan` and
//! `hedged_tail`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sdvm_apps::primes::PrimesProgram;
use sdvm_cdag::Cdag;
use sdvm_sim::{SimConfig, SimMetrics, Simulation};

/// Calibrated per-candidate cost of the paper's prime tester, in sim
/// work units (1e6 units = 1 virtual second on a reference site).
///
/// Calibration: the paper measures 33.9 s for p=100, width=10 on one
/// Pentium-IV 1.7 GHz site. p=100 → candidates 2..=541 → 540 tests, so
/// one candidate ≈ 62.7 ms ≈ 62 700 units. The paper's per-candidate
/// cost is approximately constant in the candidate (its 1-site times
/// scale with the candidate count: 455.9/33.9 ≈ 13.4 ≈ 7919/541), which
/// this constant reproduces; `division_count` adds the small real
/// trial-division growth.
pub const UNIT_COST: u64 = 62_700;

/// Cost of one collect step (bookkeeping + spawning the next pair).
pub const COLLECT_COST: u64 = 1_000;

/// Calibrated CPU cost of handling one inter-site data message (frame or
/// result) on the receiving site, in seconds. Calibration: the paper's
/// measured efficiencies (≈0.85–0.90 at 4 sites, ≈0.80–0.88 at 8) imply
/// a distribution overhead proportional to traffic; 2 ms per data
/// message (2005-era C++ serialization + TCP + manager dispatch on a
/// 1.7 GHz P4) lands both cluster sizes inside the paper's bands.
pub const MSG_OVERHEAD: f64 = 2.0e-3;

/// The simulated cluster configuration used by the paper-reproduction
/// experiments: `n` homogeneous reference sites on a LAN with the
/// calibrated message-handling overhead.
pub fn cluster_config(n: usize) -> SimConfig {
    let mut cfg = SimConfig::homogeneous(n);
    cfg.cost.msg_overhead = MSG_OVERHEAD;
    cfg
}

/// Build the calibrated prime-search CDAG for a Table 1 cell.
pub fn primes_graph(p: u64, width: usize) -> Cdag {
    PrimesProgram::new(p, width).graph(UNIT_COST, COLLECT_COST)
}

/// Run one simulation.
pub fn simulate(cfg: SimConfig, graph: Cdag) -> SimMetrics {
    Simulation::new(cfg, graph).run()
}

/// Format seconds like the paper's table (`33.9s`).
pub fn secs(t: f64) -> String {
    format!("{t:.1}s")
}

/// Format a speedup like the paper (`(3.4)`).
pub fn speedup(base: f64, t: f64) -> String {
    format!("({:.1})", base / t)
}

/// Print a separator line of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// One value of a `BENCH_*.json` report, already rendered.
#[derive(Clone, Debug)]
pub struct Json(String);

impl Json {
    /// A number with `decimals` digits after the point.
    pub fn num(v: f64, decimals: usize) -> Json {
        Json(format!("{v:.decimals$}"))
    }

    /// A string (names and labels: Rust's escaping matches JSON's for
    /// printable text).
    pub fn str(s: &str) -> Json {
        Json(format!("{s:?}"))
    }

    /// An object on one line: `{"key": value, ...}`.
    pub fn obj<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        let fields: Vec<String> = fields
            .into_iter()
            .map(|(k, v)| format!("{:?}: {}", k.as_ref(), v.0))
            .collect();
        Json(format!("{{{}}}", fields.join(", ")))
    }

    /// An array of a top-level field, one element per line.
    pub fn rows(rows: impl IntoIterator<Item = Json>) -> Json {
        let rows: Vec<String> = rows.into_iter().map(|r| format!("    {}", r.0)).collect();
        Json(format!("[\n{}\n  ]", rows.join(",\n")))
    }
}

macro_rules! json_from_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json(v.to_string())
            }
        }
    )*};
}
json_from_display!(bool, u64, u128, usize);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or_else(|| Json("null".into()), Into::into)
    }
}

/// A `BENCH_*.json` report: one top-level object, one field per line.
#[derive(Debug)]
pub struct Report(Vec<(String, Json)>);

impl Report {
    /// A report whose first field is `"bench": "<bench>"`.
    pub fn new(bench: &str) -> Report {
        Report(vec![("bench".into(), Json::str(bench))])
    }

    /// Append a field.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Report {
        self.0.push((key.into(), value.into()));
        self
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("  {k:?}: {}", v.0))
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Write the report to `path`.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvm_apps::primes::nth_prime;

    #[test]
    fn calibration_matches_paper_single_site() {
        // One site, p=100, width=10 must land near the paper's 33.9 s.
        let m = simulate(SimConfig::homogeneous(1), primes_graph(100, 10));
        assert!(
            (m.makespan - 33.9).abs() < 5.0,
            "1-site virtual time {} should be ≈ 33.9 s",
            m.makespan
        );
    }

    #[test]
    fn calibration_scales_with_p_like_the_paper() {
        let t100 = simulate(SimConfig::homogeneous(1), primes_graph(100, 10)).makespan;
        let t500 = simulate(SimConfig::homogeneous(1), primes_graph(500, 10)).makespan;
        let ratio = t500 / t100;
        // Paper: 207.0 / 33.9 ≈ 6.1.
        assert!((ratio - 6.1).abs() < 1.2, "p-scaling ratio {ratio}");
        let _ = nth_prime(10);
    }

    #[test]
    fn report_layout() {
        let mut r = Report::new("demo");
        r.set(
            "rows",
            Json::rows([
                Json::obj([("n", Json::from(1u64)), ("t", Json::num(0.5, 2))]),
                Json::obj([("n", Json::from(2u64)), ("t", Json::num(1.0, 2))]),
            ]),
        )
        .set("ms", None::<u64>)
        .set("pass", true);
        assert_eq!(
            r.render(),
            "{\n  \"bench\": \"demo\",\n  \"rows\": [\n    {\"n\": 1, \"t\": 0.50},\n    \
             {\"n\": 2, \"t\": 1.00}\n  ],\n  \"ms\": null,\n  \"pass\": true\n}\n"
        );
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(33.91), "33.9s");
        assert_eq!(speedup(33.9, 10.0), "(3.4)");
    }
}
