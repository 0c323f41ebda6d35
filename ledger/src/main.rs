//! The frame ledger: end-to-end and per-layer measurement of a
//! microframe's career on a real loopback TCP cluster with encryption
//! on. See `README.md` beside this package for what each workload and
//! metric is for and how to read the output.

mod cluster;
mod json;
mod layers;
mod micro;
mod record;
mod report;
mod run;
mod tap;
mod util;
mod workloads;

use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "\
usage: ledger [--workload <name> | --all] [--seed <n>] [--seconds <s>] [--trace <0|1>]
              [--repeat <n> [--sets <k>]] [--out <file>] [--rev <git rev>]
       ledger --smoke
       ledger --compare <a.json> <b.json>

  --workload <name>  one of: relay.k1 relay.k64 fan.local farm.s4 objects.rw
  --all              every workload
  --seed <n>         seed of the generated inputs (default 1)
  --seconds <s>      length of the timed section (default 15)
  --trace <0|1>      1: a traced run, printing the per-layer metrics
  --repeat <n>       n fresh runs per workload (seeds n, n+1, ...): median,
                     quartiles and (max-min)/median of every end-to-end metric
  --sets <k>         k sets of --repeat runs, compared with each other
  --out <file>       where --all/--repeat write their results
                     (default target/ledger/<workload or 'all'>.json)
  --smoke            every workload for one second: output checks only
  --compare a b      apply the bounds to two result files
  --break-check      self-test: expect one frame too many, so the run must fail";

struct Args {
    workloads: Vec<&'static Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    sets: usize,
    out: Option<String>,
    rev: String,
    smoke: bool,
    compare: Option<(String, String)>,
    break_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        all: false,
        seed: 1,
        seconds: 15.0,
        trace: false,
        repeat: None,
        sets: 1,
        out: None,
        rev: "unknown".into(),
        smoke: false,
        compare: None,
        break_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workloads
                    .push(workloads::by_name(&name).ok_or(format!("no workload named {name}"))?);
            }
            "--all" => a.all = true,
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                a.repeat = Some(n.max(1));
            }
            "--sets" => {
                a.sets = value("a count")?
                    .parse::<usize>()
                    .map_err(|e| format!("--sets: {e}"))?
                    .max(1)
            }
            "--out" => a.out = Some(value("a path")?),
            "--rev" => a.rev = value("a revision")?,
            "--smoke" => a.smoke = true,
            "--compare" => a.compare = Some((value("two files")?, value("two files")?)),
            "--break-check" => a.break_check = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.all || a.smoke {
        a.workloads = workloads::ALL.iter().collect();
    }
    if a.compare.is_none() && a.workloads.is_empty() {
        return Err("name a workload, or --all, --smoke or --compare".into());
    }
    Ok(a)
}

/// 0 when every output check held and nothing was flagged, else 1.
fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The contract's single run: human-readable lines, then one JSON
/// object as the last line of standard output.
fn single_run(a: &Args) -> ExitCode {
    let w = a.workloads[0];
    let outcome = if a.trace {
        report::run_traced(w, a.seed, a.seconds, a.break_check).map(|t| {
            report::print_traced(w, &t);
            (
                t.correct,
                t.attempted,
                t.failed,
                report::layer_metrics_json(&t),
            )
        })
    } else {
        report::run_end_to_end(w, a.seed, a.seconds, report::SECTIONS, a.break_check).map(|e| {
            report::print_end_to_end(w, &e);
            (e.correct, e.attempted, e.failed, e.metrics_json())
        })
    };
    match outcome {
        Ok((correct, attempted, failed, metrics)) => {
            println!(
                "{}",
                report::result_line(correct, attempted, failed, metrics)
            );
            exit_code(correct)
        }
        Err(e) => {
            eprintln!("ledger: {}: {e}", w.name);
            ExitCode::from(1)
        }
    }
}

/// `--smoke`: every workload for a second, output checks only.
fn smoke(a: &Args) -> ExitCode {
    let mut ok = true;
    for w in &a.workloads {
        match report::run_end_to_end(w, a.seed, 1.0, 1, a.break_check) {
            Ok(e) => {
                println!(
                    "{:<11} {:>8} frames  failed_share {}  {}",
                    w.name,
                    e.attempted,
                    e.failed_share(),
                    if e.correct { "ok" } else { "FAILED" }
                );
                for p in &e.problems {
                    println!("    {p}");
                }
                ok &= e.correct;
            }
            Err(e) => {
                println!("{:<11} FAILED: {e}", w.name);
                ok = false;
            }
        }
    }
    exit_code(ok)
}

/// `--all` / `--repeat`: sets of runs, their spread, a results file.
fn many_runs(a: &Args) -> ExitCode {
    let repeat = a.repeat.unwrap_or(1);
    let mut ok = true;
    let mut sets: Vec<report::RunSet> = Vec::new();
    for set in 0..a.sets {
        let base = a.seed + 100 * set as u64;
        let mut runs = report::RunSet::new(base);
        for w in &a.workloads {
            for i in 0..repeat {
                match report::run_end_to_end(
                    w,
                    base + i as u64,
                    a.seconds,
                    report::SECTIONS,
                    a.break_check,
                ) {
                    Ok(e) => {
                        report::print_end_to_end(w, &e);
                        ok &= e.correct;
                        runs.push(w.name, &e);
                    }
                    Err(e) => {
                        eprintln!("ledger: {}: {e}", w.name);
                        ok = false;
                    }
                }
            }
        }
        sets.push(runs);
    }
    if a.trace {
        for w in &a.workloads {
            match report::run_traced(w, a.seed, a.seconds, a.break_check) {
                Ok(t) => {
                    report::print_traced(w, &t);
                    ok &= t.correct;
                }
                Err(e) => {
                    eprintln!("ledger: {}: {e}", w.name);
                    ok = false;
                }
            }
        }
    }
    println!();
    for set in &sets {
        set.print_spread();
    }
    if let [first, second, ..] = &sets[..] {
        println!(
            "\nset with seed {} against set with seed {}:",
            first.seed, second.seed
        );
        ok &= report::compare(first, second);
    }
    let name = match &a.workloads[..] {
        [one] => one.name,
        _ => "all",
    };
    let path = a
        .out
        .clone()
        .unwrap_or(format!("target/ledger/{name}.json"));
    match report::write_sets(&path, &a.rev, a.seconds, &sets) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => {
            eprintln!("ledger: writing {path}: {e}");
            ok = false;
        }
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("ledger: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((first, second)) = &a.compare {
        return match (
            report::read_first_set(first),
            report::read_first_set(second),
        ) {
            (Ok(x), Ok(y)) => exit_code(report::compare(&x, &y)),
            (x, y) => {
                for e in [x.err(), y.err()].into_iter().flatten() {
                    eprintln!("ledger: {e}");
                }
                ExitCode::from(2)
            }
        };
    }
    if a.smoke {
        return smoke(&a);
    }
    if a.repeat.is_some() || a.all || a.workloads.len() > 1 || a.out.is_some() {
        many_runs(&a)
    } else {
        single_run(&a)
    }
}
