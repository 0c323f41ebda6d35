//! What the ledger prints and writes: one run's metrics, the spread of
//! repeated runs, and the comparison of two sets of runs against the
//! bounds.

use crate::json::Json;
use crate::layers::{per_layer, HopTimeline, HOP_STAGES, PER_LAYER};
use crate::run::{measure, Options};
use crate::util::{median, quartiles_exclusive};
use crate::workloads::Workload;
use std::collections::{BTreeMap, HashMap};

/// Name, unit, better direction and bound of every end-to-end metric.
/// The bound is the share of the earlier median by which the later one
/// may be worse before it counts as a regression.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("frames_per_s", "frames/s", "higher", 0.10),
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_p99_us", "us", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
];

/// Fresh clusters a timed run is split over. Part of the run-to-run
/// noise belongs to the cluster (how its threads happen to settle), so
/// pooling the rounds of three steadies every metric, and `setup_s` is
/// the median of three set-ups.
pub const SECTIONS: usize = 3;

/// The end-to-end result of one run.
pub struct EndToEnd {
    /// In the order of [`END_TO_END`].
    pub values: [f64; 4],
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub problems: Vec<String>,
    /// Latency samples behind the quantiles, and samples dropped because
    /// a round's slots were full.
    pub samples: u64,
    pub dropped: u64,
    /// Per-round `frames_per_s`, p50 and p99, and per-set-up seconds.
    pub detail: [Vec<f64>; 4],
}

impl EndToEnd {
    /// (frames expected − frames verified) / expected.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The contract's `metrics` object.
    pub fn metrics_json(&self) -> Json {
        Json::obj(
            END_TO_END
                .iter()
                .zip(self.values)
                .map(|((name, unit, ..), v)| {
                    (
                        *name,
                        Json::obj([("value", Json::Num(v)), ("unit", Json::Str((*unit).into()))]),
                    )
                }),
        )
    }
}

/// The last line of a contract run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

fn counts(verdict: &crate::workloads::Verdict) -> (u64, u64, bool) {
    let attempted = verdict.expected.max(verdict.verified).max(1);
    let failed = attempted - verdict.verified.min(attempted);
    (
        attempted,
        failed,
        verdict.problems.is_empty() && failed == 0,
    )
}

/// One timed run of `w`.
pub fn run_end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
    sections: usize,
    break_check: bool,
) -> Result<EndToEnd, String> {
    let m = measure(
        w,
        &Options {
            seed,
            seconds,
            sections,
            traced: false,
            break_check,
        },
    )?;
    let (attempted, failed, correct) = counts(&m.verdict);
    Ok(EndToEnd {
        values: [
            median(&m.rounds.frames_per_s),
            median(&m.rounds.p50_us),
            median(&m.rounds.p99_us),
            median(&m.setup_s),
        ],
        attempted,
        failed,
        correct,
        problems: m.verdict.problems,
        samples: m.rounds.samples,
        dropped: m.rounds.dropped,
        detail: [
            m.rounds.frames_per_s,
            m.rounds.p50_us,
            m.rounds.p99_us,
            m.setup_s,
        ],
    })
}

/// Print one timed run: every metric by name with its unit.
pub fn print_end_to_end(w: &Workload, e: &EndToEnd) {
    println!(
        "{}  ({} sites, {} chains in flight, closed loop): {}",
        w.name, w.sites, w.window, w.why
    );
    for (((name, unit, better, _), v), detail) in END_TO_END.iter().zip(e.values).zip(&e.detail) {
        let detail: Vec<String> = detail.iter().map(|d| format!("{d:.3}")).collect();
        println!(
            "  {name:<16} {v:>14.3} {unit:<9} ({better} is better; median of {})",
            detail.join(" ")
        );
    }
    println!(
        "  failed_share     {:>14} ({} of {} frames)",
        e.failed_share(),
        e.failed,
        e.attempted
    );
    println!(
        "  {} latency samples in {} rounds, {} dropped",
        e.samples,
        e.detail[0].len(),
        e.dropped
    );
    for p in &e.problems {
        println!("  CHECK FAILED: {p}");
    }
}

/// The result of a traced run: an untraced and a traced half.
pub struct Traced {
    pub layers: HashMap<&'static str, f64>,
    pub timeline: Option<HopTimeline>,
    pub kinds: BTreeMap<&'static str, (u64, u64)>,
    pub frames: u64,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub problems: Vec<String>,
}

/// One traced run of `w`: half the time untraced on the bare transport,
/// half traced through the taps; their rates give `trace_overhead`.
pub fn run_traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    break_check: bool,
) -> Result<Traced, String> {
    // Two bare clusters, then one tapped: the first cluster a process
    // forms is at times faster than every later one, and the spans of
    // one cluster are the unit the analysis joins.
    let options = |traced, sections| Options {
        seed,
        seconds: seconds / 2.0,
        sections,
        traced,
        break_check,
    };
    let bare = measure(w, &options(false, 2))?;
    let traced = measure(w, &options(true, 1))?;
    let micro = crate::micro::measure();
    let (layers, timeline) = per_layer(w.name, &traced, median(&bare.rounds.frames_per_s), &micro);
    let (a1, f1, c1) = counts(&bare.verdict);
    let (a2, f2, c2) = counts(&traced.verdict);
    let mut problems = bare.verdict.problems;
    problems.extend(traced.verdict.problems);
    Ok(Traced {
        layers,
        timeline,
        kinds: traced
            .by_kind
            .map(|kinds| kinds.into_iter().collect())
            .unwrap_or_default(),
        frames: traced.timed_frames,
        attempted: a1 + a2,
        failed: f1 + f2,
        correct: c1 && c2,
        problems,
    })
}

/// The contract's `metrics` object of a traced run.
pub fn layer_metrics_json(t: &Traced) -> Json {
    Json::obj(PER_LAYER.iter().map(|(name, unit, _)| {
        (
            *name,
            Json::obj([
                (
                    "value",
                    Json::Num(t.layers.get(name).copied().unwrap_or(0.0)),
                ),
                ("unit", Json::Str((*unit).into())),
            ]),
        )
    }))
}

/// Print one traced run: every per-layer metric, the messages by kind,
/// and on the relays the hop timeline.
pub fn print_traced(w: &Workload, t: &Traced) {
    println!(
        "{}  traced  ({} frames in the traced half)",
        w.name, t.frames
    );
    for (name, unit, better) in PER_LAYER {
        let v = t.layers[name];
        println!("  {name:<32} {v:>14.4} {unit:<6} ({better} is better)");
    }
    if !t.kinds.is_empty() {
        println!("  messages by payload kind (count, plaintext bytes):");
        for (kind, (n, bytes)) in &t.kinds {
            println!("    {kind:<20} {n:>9} {bytes:>11}");
        }
    }
    if let Some(tl) = &t.timeline {
        println!(
            "  hop timeline: mean over the two-hop samples nearest the median ({} of {} samples complete)",
            tl.complete, tl.samples
        );
        for (stage, us) in HOP_STAGES.iter().zip(&tl.stages_us) {
            println!(
                "    {us:>9.1} us {:>5.1}%  {stage}",
                100.0 * us / tl.p50_us.max(f64::MIN_POSITIVE)
            );
        }
        println!(
            "    {:>9.1} us {:>5.1}%  unattributed",
            tl.unattributed_us,
            100.0 * tl.unattributed_us / tl.p50_us.max(f64::MIN_POSITIVE)
        );
        println!(
            "    {:>9.1} us 100.0%  latency_p50_us of the traced half",
            tl.p50_us
        );
    }
    println!(
        "  failed_share {} ({} of {} frames)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    for p in &t.problems {
        println!("  CHECK FAILED: {p}");
    }
}

/// The end-to-end values of a set of runs: workload → metric → one
/// value per run.
pub struct RunSet {
    pub seed: u64,
    pub runs: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

/// (q3 − q1) / median with Python's exclusive quartiles, as the
/// acceptance check computes spread.
fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles_exclusive(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

impl RunSet {
    pub fn new(seed: u64) -> Self {
        RunSet {
            seed,
            runs: BTreeMap::new(),
        }
    }

    /// Add one run of `workload`.
    pub fn push(&mut self, workload: &str, e: &EndToEnd) {
        let metrics = self.runs.entry(workload.to_string()).or_default();
        for ((name, ..), v) in END_TO_END.iter().zip(e.values) {
            metrics.entry((*name).to_string()).or_default().push(v);
        }
    }

    /// Per metric: median, quartiles and (max−min)/median across runs.
    pub fn print_spread(&self) {
        println!("seed {}: spread across runs", self.seed);
        println!(
            "  {:<11} {:<15} {:>4} {:>12} {:>12} {:>12} {:>8} {:>8}",
            "workload", "metric", "runs", "q1", "median", "q3", "iqr/med", "rng/med"
        );
        for (workload, metrics) in &self.runs {
            for (name, ..) in END_TO_END {
                let Some(values) = metrics.get(name) else {
                    continue;
                };
                let (q1, q2, q3) = quartiles_exclusive(values);
                let (lo, hi) = values
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
                println!(
                    "  {workload:<11} {name:<15} {:>4} {q1:>12.3} {q2:>12.3} {q3:>12.3} {:>8.4} {:>8.4}",
                    values.len(),
                    spread(values),
                    if q2 == 0.0 { 0.0 } else { (hi - lo) / q2 }
                );
            }
        }
    }

    /// `{workload: {metric: f(values)}}`.
    fn per_metric(&self, f: impl Fn(&[f64]) -> Json) -> Json {
        Json::Obj(
            self.runs
                .iter()
                .map(|(workload, metrics)| {
                    let metrics = metrics.iter().map(|(m, v)| (m.clone(), f(v))).collect();
                    (workload.clone(), Json::Obj(metrics))
                })
                .collect(),
        )
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Num(self.seed as f64)),
            ("runs", self.per_metric(Json::nums)),
            ("spread", self.per_metric(|v| Json::Num(spread(v)))),
        ])
    }

    fn from_json(j: &Json) -> Result<RunSet, String> {
        let seed = j.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let mut set = RunSet::new(seed);
        let runs = j
            .get("runs")
            .and_then(Json::as_object)
            .ok_or("a set needs a \"runs\" object")?;
        for (workload, metrics) in runs {
            let metrics = metrics
                .as_object()
                .ok_or("a workload's runs must be an object")?;
            for (metric, values) in metrics {
                let values: Vec<f64> = values
                    .as_array()
                    .ok_or("a metric's runs must be an array")?
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                set.runs
                    .entry(workload.clone())
                    .or_default()
                    .insert(metric.clone(), values);
            }
        }
        Ok(set)
    }
}

/// Write `sets` with what they rest on: revision, cores, run length.
pub fn write_sets(path: &str, rev: &str, seconds: f64, sets: &[RunSet]) -> std::io::Result<()> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj([
        ("rev", Json::Str(rev.into())),
        ("nproc", Json::Num(nproc as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "bounds",
            Json::obj(
                END_TO_END
                    .iter()
                    .map(|(name, .., bound)| (*name, Json::Num(*bound))),
            ),
        ),
        (
            "sets",
            Json::Arr(sets.iter().map(RunSet::to_json).collect()),
        ),
    ]);
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.pretty())
}

/// The first set of a results file.
pub fn read_first_set(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let first = doc
        .get("sets")
        .and_then(Json::as_array)
        .and_then(<[Json]>::first)
        .ok_or(format!("{path}: no \"sets\""))?;
    RunSet::from_json(first).map_err(|e| format!("{path}: {e}"))
}

/// Apply the bounds to `later` against `earlier`. Prints a row per
/// (workload, metric) and names every pair that is worse than its bound
/// allows, or whose spread is wider than its bound — such a pair is
/// unresolved, not unchanged. Returns whether every pair is within.
pub fn compare(earlier: &RunSet, later: &RunSet) -> bool {
    let mut flagged = Vec::new();
    println!(
        "  {:<11} {:<15} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "earlier", "later", "change", "spread1", "spread2", "bound"
    );
    for (workload, metrics) in &earlier.runs {
        for (name, _, better, bound) in END_TO_END {
            let (Some(a), Some(b)) = (
                metrics.get(name),
                later.runs.get(workload).and_then(|m| m.get(name)),
            ) else {
                println!("  {workload:<11} {name:<15} missing from one side");
                flagged.push(format!("{name} on {workload}: missing"));
                continue;
            };
            let (ma, mb) = (median(a), median(b));
            // Positive = worse, as a share of the earlier median.
            let worse = if ma == 0.0 {
                0.0
            } else if better == "higher" {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            // Set-up time is bounded but, being one sample of a few
            // hundred milliseconds, is not held to the spread rule.
            let wide = name != "setup_s" && spread(a).max(spread(b)) > bound;
            let verdict = if worse > bound {
                "WORSE"
            } else if wide {
                "UNRESOLVED"
            } else {
                "within"
            };
            println!(
                "  {workload:<11} {name:<15} {ma:>12.3} {mb:>12.3} {:>+7.1}% {:>8.4} {:>8.4} {bound:>6.2}  {verdict}",
                100.0 * if ma == 0.0 { 0.0 } else { (mb - ma) / ma },
                spread(a),
                spread(b),
            );
            if verdict != "within" {
                flagged.push(format!("{name} on {workload}: {verdict}"));
            }
        }
    }
    for f in &flagged {
        println!("  {f}");
    }
    flagged.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` has to repeat the tables in this package; the
    /// two must say the same.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_array).unwrap().to_vec();
        let text = |j: &Json, key: &str| match j.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workloads::ALL.len());
        for (j, w) in workloads.iter().zip(&crate::workloads::ALL) {
            assert_eq!(
                (text(j, "name"), text(j, "why")),
                (w.name.into(), w.why.into())
            );
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (j, (name, unit, better, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(
                (text(j, "name"), text(j, "unit"), text(j, "better")),
                (name.into(), unit.into(), better.into())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(bound));
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(
                (text(j, "name"), text(j, "unit"), text(j, "better")),
                (name.into(), unit.into(), better.into())
            );
        }
    }
}
