//! Every knob has a row in DESIGN.md's "Configuration" table, every row
//! names a knob that exists, and every `file:line` the table cites sets
//! that knob. The struct patterns below list each field and end without
//! `..`, so adding or removing a config field does not compile until this
//! file (and then the table) follows.
//!
//! The same file's §2 module map is checked too: every `sdvm-core::…`
//! path it names is a module under `crates/core/src`.

use sdvm::core::SiteConfig;
use sdvm::sim::SimConfig;

const DESIGN: &str = include_str!("../DESIGN.md");

const ENV_VARS: [&str; 4] = [
    "SDVM_TELEMETRY",
    "SDVM_CHAOS_PLAN",
    "SDVM_CHAOS_SEED",
    "SDVM_BENCH_ITERS",
];

/// Destructure `<$ty>::default()` exhaustively and name each field as
/// `"Type::field"`.
macro_rules! knobs {
    ($ty:ident { $($field:ident),* $(,)? }) => {{
        let $ty { $($field: _),* } = $ty::default();
        vec![$(concat!(stringify!($ty), "::", stringify!($field))),*]
    }};
}

fn all_knobs() -> Vec<&'static str> {
    let mut knobs = knobs!(SiteConfig {
        platform,
        slots,
        password,
        compile_latency,
        id_alloc,
        crash_tolerance,
        heartbeat_interval,
        crash_timeout,
        suspect_timeout,
        help_timeout,
        request_timeout,
        max_frame_retries,
        retry_backoff_base,
        retry_backoff_cap,
        stuck_timeout,
        mem_shards,
        replica_reads,
        replica_ttl,
        ops_addr,
        postmortem_dir,
    });
    knobs.extend(knobs!(SimConfig {
        sites,
        net,
        cost,
        slots,
        local_policy,
        help_policy,
        help_backoff,
        binary_fetch,
        compile,
        crash_detect,
        record_timeline,
        proximity_routing,
        net_drivers,
        driver_service,
    }));
    knobs.extend(ENV_VARS);
    knobs
}

/// The first two cells of each row of the Configuration table: the knob
/// (backticks stripped) and who sets it.
fn table_rows() -> Vec<(&'static str, &'static str)> {
    let (_, section) = DESIGN
        .split_once("## 10. Configuration")
        .expect("DESIGN.md has a Configuration section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split_once('`'))
        .map(|(knob, rest)| (knob, rest.split('|').nth(1).unwrap_or("").trim()))
        .collect()
}

#[test]
fn every_knob_has_exactly_one_row() {
    let rows = table_rows();
    for knob in all_knobs() {
        let n = rows.iter().filter(|&&(r, _)| r == knob).count();
        assert_eq!(n, 1, "{knob} needs exactly one row in DESIGN.md §10");
    }
}

#[test]
fn every_row_names_a_knob() {
    let knobs = all_knobs();
    for (row, _) in table_rows() {
        assert!(
            knobs.contains(&row),
            "DESIGN.md §10 has a row for {row}, which is no knob"
        );
    }
}

#[test]
fn every_citation_sets_its_knob() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for (knob, cite) in table_rows() {
        // "none", "none yet": nothing to check.
        let Some((path, line)) = cite.trim_matches('`').rsplit_once(':') else {
            continue;
        };
        let text = std::fs::read_to_string(root.join(path))
            .unwrap_or_else(|e| panic!("{knob}: cited file {path}: {e}"));
        let n: usize = line
            .parse()
            .unwrap_or_else(|_| panic!("{knob}: bad line number in {cite}"));
        let cited = text.lines().nth(n - 1).unwrap_or("");
        let field = knob.rsplit("::").next().unwrap_or(knob);
        assert!(
            cited.contains(field) || cited.contains(".with_"),
            "{knob}: {path}:{n} neither names `{field}` nor calls a `with_` builder: {cited:?}"
        );
    }
}

#[test]
fn every_core_module_in_the_inventory_exists() {
    let (_, section) = DESIGN
        .split_once("## 2. System inventory")
        .expect("DESIGN.md has a System inventory section");
    let table = section.split("\n### ").next().unwrap_or(section);
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let mut checked = 0;
    for cell in table.split('`').skip(1).step_by(2) {
        let Some(path) = cell.strip_prefix("sdvm-core::") else {
            continue;
        };
        let module = src.join(path.replace("::", "/"));
        assert!(
            module.with_extension("rs").is_file() || module.join("mod.rs").is_file(),
            "DESIGN.md §2 names {cell}, which is no module under crates/core/src"
        );
        checked += 1;
    }
    assert!(
        checked > 10,
        "DESIGN.md §2 names only {checked} core modules"
    );
}
