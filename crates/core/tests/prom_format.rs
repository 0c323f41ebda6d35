//! Prometheus text-format correctness: metric-name validity, HELP/TYPE
//! pairing for every family, label syntax and escaping, the registry
//! table's family list against DESIGN.md §5.1 — so a PR that adds a
//! counter without documenting it fails loudly — and a golden pinning
//! every family block byte for byte.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use sdvm_core::telemetry::{prom_label_escape, FAMILIES};
use sdvm_core::{
    cluster_prometheus_text, prometheus_text, ClusterRollup, HistogramSnapshot, SiteMetrics,
};
use sdvm_types::SiteId;
use sdvm_wire::WireMetricsSummary;
use std::collections::{BTreeMap, BTreeSet};

/// Prometheus metric names: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn is_valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Prometheus label names: `[a-zA-Z_][a-zA-Z0-9_]*`.
fn is_valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Family name → declared TYPE, from `# TYPE` comment lines.
fn families(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|rest| {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE line names a family").to_string();
            let kind = it.next().expect("TYPE line names a kind").to_string();
            (name, kind)
        })
        .collect()
}

/// Split one sample line into (metric name, label pairs, value token).
fn parse_sample(line: &str) -> (String, Vec<(String, String)>, String) {
    if let Some(brace) = line.find('{') {
        let name = line[..brace].to_string();
        let close = line
            .rfind('}')
            .unwrap_or_else(|| panic!("unclosed label set: {line}"));
        let labels_raw = &line[brace + 1..close];
        let value = line[close + 1..].trim().to_string();
        // Split on commas outside quotes (label values may contain them).
        let mut pairs = Vec::new();
        let mut depth_quote = false;
        let mut cur = String::new();
        let mut chars = labels_raw.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    depth_quote = !depth_quote;
                    cur.push(c);
                }
                '\\' if depth_quote => {
                    cur.push(c);
                    if let Some(n) = chars.next() {
                        cur.push(n);
                    }
                }
                ',' if !depth_quote => {
                    pairs.push(std::mem::take(&mut cur));
                }
                c => cur.push(c),
            }
        }
        if !cur.is_empty() {
            pairs.push(cur);
        }
        let pairs = pairs
            .into_iter()
            .map(|p| {
                let eq = p
                    .find('=')
                    .unwrap_or_else(|| panic!("label without '=': {p}"));
                let (k, v) = (p[..eq].to_string(), p[eq + 1..].to_string());
                assert!(
                    v.len() >= 2 && v.starts_with('"') && v.ends_with('"'),
                    "label value must be quoted: {p}"
                );
                (k, v[1..v.len() - 1].to_string())
            })
            .collect();
        (name, pairs, value)
    } else {
        let mut it = line.split_whitespace();
        let name = it.next().expect("sample has a name").to_string();
        let value = it.next().expect("sample has a value").to_string();
        (name, Vec::new(), value)
    }
}

/// Validate a whole exposition body: every TYPE has exactly one HELP (and
/// vice versa), every sample line names a declared family (modulo
/// histogram `_bucket`/`_sum`/`_count` suffixes), names and labels are
/// syntactically valid, and every value parses.
fn validate_exposition(text: &str) {
    let fams = families(text);
    assert!(!fams.is_empty(), "exposition declares at least one family");

    for (name, kind) in &fams {
        assert!(is_valid_metric_name(name), "invalid family name: {name}");
        assert!(
            matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
            "unexpected TYPE kind for {name}: {kind}"
        );
        let helps = text
            .lines()
            .filter(|l| {
                l.strip_prefix("# HELP ")
                    .is_some_and(|r| r.split_whitespace().next() == Some(name.as_str()))
            })
            .count();
        let types = text
            .lines()
            .filter(|l| {
                l.strip_prefix("# TYPE ")
                    .is_some_and(|r| r.split_whitespace().next() == Some(name.as_str()))
            })
            .count();
        assert_eq!(helps, 1, "{name} must have exactly one HELP line");
        assert_eq!(types, 1, "{name} must have exactly one TYPE line");
    }

    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (name, labels, value) = parse_sample(line);
        assert!(is_valid_metric_name(&name), "invalid sample name: {name}");
        // Resolve histogram series suffixes back to their family.
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suf| name.strip_suffix(suf))
            .find(|base| fams.get(*base).map(String::as_str) == Some("histogram"))
            .unwrap_or(&name)
            .to_string();
        assert!(
            fams.contains_key(&base),
            "sample {name} has no HELP/TYPE declaration (family {base})"
        );
        for (k, v) in &labels {
            assert!(is_valid_label_name(k), "invalid label name {k} in {line}");
            // Raw control characters and unescaped quotes must not
            // appear inside a rendered label value.
            assert!(
                !v.contains('\n'),
                "unescaped newline in label value: {line}"
            );
            let mut chars = v.chars();
            while let Some(c) = chars.next() {
                if c == '\\' {
                    let n = chars.next();
                    assert!(
                        matches!(n, Some('\\') | Some('"') | Some('n')),
                        "bad escape in label value {v:?} ({line})"
                    );
                } else {
                    assert!(c != '"', "unescaped quote in label value: {line}");
                }
            }
        }
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable sample value {value:?} in: {line}"
        );
        // Histogram bucket series must carry an `le` label.
        if name.ends_with("_bucket") && fams.get(&base).map(String::as_str) == Some("histogram") {
            assert!(
                labels.iter().any(|(k, _)| k == "le"),
                "bucket series without le label: {line}"
            );
        }
    }
}

#[test]
fn per_site_exposition_is_well_formed() {
    let (per_site, _) = pinned_exposition();
    validate_exposition(&per_site);
}

#[test]
fn cluster_exposition_is_well_formed() {
    let (_, cluster) = pinned_exposition();
    validate_exposition(&cluster);
    // Quantile gauges carry the q label with the three pinned points.
    for q in ["0.5", "0.99", "0.999"] {
        assert!(
            cluster.contains(&format!(
                "sdvm_cluster_frame_career_quantile_us{{q=\"{q}\"}}"
            )),
            "missing career quantile q={q}"
        );
    }
}

#[test]
fn label_escaping_round_trips_hostile_values() {
    assert_eq!(prom_label_escape("plain"), "plain");
    assert_eq!(prom_label_escape(r#"a"b"#), r#"a\"b"#);
    assert_eq!(prom_label_escape(r"a\b"), r"a\\b");
    assert_eq!(prom_label_escape("a\nb"), r"a\nb");
    // A hostile value rendered into a label survives the validator.
    let hostile = prom_label_escape("evil\"} 9\ninjected_metric 1");
    let line = format!("sdvm_test_metric{{name=\"{hostile}\"}} 1");
    let (name, labels, value) = parse_sample(&line);
    assert_eq!(name, "sdvm_test_metric");
    assert_eq!(labels.len(), 1, "escaped value must stay one label");
    assert_eq!(value, "1");
}

/// The drift-catcher: the registry table's families, the cluster
/// rollup's, and the recorder gauge the HTTP listener appends must
/// exactly match the canonical list documented in DESIGN.md §5.1.
#[test]
fn family_list_matches_design_doc() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md at the repo root");
    let block = design
        .split("<!-- prom-families:begin -->")
        .nth(1)
        .and_then(|rest| rest.split("<!-- prom-families:end -->").next())
        .expect("DESIGN.md carries the prom-families markers");
    let documented: BTreeSet<String> = block
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("```"))
        .map(str::to_string)
        .collect();

    let mut emitted: BTreeSet<String> = FAMILIES.iter().map(|f| f.name.to_string()).collect();
    emitted.extend(families(&cluster_prometheus_text(&ClusterRollup::new().totals())).into_keys());
    // Appended by the ops HTTP listener only when the flight recorder
    // is armed (crates/core/src/telemetry/http.rs).
    emitted.insert("sdvm_postmortems_written".to_string());

    let undocumented: Vec<_> = emitted.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&emitted).collect();
    assert!(
        undocumented.is_empty(),
        "families emitted but missing from DESIGN.md §5.1: {undocumented:?}"
    );
    assert!(
        stale.is_empty(),
        "families documented in DESIGN.md §5.1 but never emitted: {stale:?}"
    );
}

/// A histogram snapshot with distinct, seed-dependent bucket counts.
fn hist(seed: u64) -> HistogramSnapshot {
    let buckets: Vec<u64> = (0..12).map(|i| (seed + i) % 5).collect();
    HistogramSnapshot {
        count: buckets.iter().sum(),
        sum_us: seed * 1000 + 7,
        buckets,
    }
}

/// The per-site exposition of two snapshots, one with every field
/// holding its own non-zero value, and the cluster exposition of two
/// distinct digests. `sdvm_postmortems_written` is not here: the HTTP
/// listener appends it when the flight recorder is armed.
fn pinned_exposition() -> (String, String) {
    let full = SiteMetrics {
        messages_sent: 101,
        messages_received: 102,
        help_requests: 103,
        help_granted: 104,
        help_denied: 105,
        suspicions_raised: 106,
        suspicions_refuted: 107,
        zombies_fenced: 108,
        crashes_declared: 109,
        frames_executed: 110,
        frames_retried: 111,
        frames_quarantined: 112,
        handler_panics: 113,
        workers_respawned: 114,
        programs_stuck: 115,
        mem_replica_hits: 116,
        mem_replica_misses: 117,
        mem_invalidations: 118,
        mem_chase_hops: hist(1),
        replicas_dispatched: 119,
        result_divergence: 120,
        hedges_fired: 121,
        hedge_wins: 122,
        hedge_delay_us: hist(2),
        drain_started: 123,
        drain_completed: 124,
        drain_objects_relocated: 125,
        drain_frames_relocated: 126,
        drain_dead_letters_swept: 127,
        drain_duration_us: hist(3),
        checkpoint_incremental_cuts: 128,
        checkpoint_incremental_shards_captured: 129,
        checkpoint_incremental_shards_reused: 130,
        checkpoint_incremental_block_us: hist(4),
        mem_shard_contention: vec![0, 3, 131],
        outbound_queue_depth: 132,
        net_peers_connected: 133,
        net_driver_threads: 134,
        coord_error_ms: 135,
        backpressure_stalls: 136,
        bus_dropped: 137,
        bus_tap_dropped: 138,
        career_total_us: hist(5),
        career_wait_us: hist(6),
        career_fetch_us: hist(7),
        career_exec_us: hist(8),
        seal_us: hist(9),
        open_us: hist(10),
        dispatch_us: vec![
            ("Scheduling".to_string(), hist(11)),
            ("needs \"escaping\"\\\n".to_string(), hist(12)),
        ],
        help_rtt_us: hist(13),
        compile_us: hist(14),
        detection_latency_us: hist(15),
        retry_delay_us: hist(16),
        ..Default::default()
    };
    let sparse = SiteMetrics {
        frames_executed: 1,
        career_total_us: HistogramSnapshot {
            count: 1,
            sum_us: u64::MAX,
            buckets: vec![0; 40].into_iter().chain([1]).collect(),
        },
        ..Default::default()
    };
    let per_site = prometheus_text(&[(SiteId(1), full), (SiteId(7), sparse)]);

    let rollup = ClusterRollup::new();
    rollup.record(
        SiteId(1),
        WireMetricsSummary {
            messages_sent: 201,
            messages_received: 202,
            frames_executed: 203,
            frames_retried: 204,
            frames_quarantined: 205,
            crashes_declared: 206,
            help_requests: 207,
            help_granted: 208,
            career_sum_us: 90_000,
            career_buckets: vec![1, 0, 2, 0, 3, 40, 500, 6],
            help_rtt_sum_us: 7_000,
            help_rtt_buckets: vec![0, 0, 0, 0, 0, 0, 0, 0, 9, 1],
        },
    );
    rollup.record(
        SiteId(2),
        WireMetricsSummary {
            messages_sent: 1,
            frames_executed: 2,
            career_sum_us: 5,
            career_buckets: vec![0, 1, 1],
            ..Default::default()
        },
    );
    (per_site, cluster_prometheus_text(&rollup.totals()))
}

/// Split an exposition into family blocks: the `# HELP` line, the
/// `# TYPE` line, then the sample lines that follow them.
fn family_blocks(text: &str) -> BTreeMap<String, Vec<&str>> {
    let mut blocks: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    let mut current = String::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            current = rest
                .split_whitespace()
                .next()
                .expect("HELP names a family")
                .to_string();
        }
        blocks.entry(current.clone()).or_default().push(line);
    }
    blocks
}

/// FNV-1a over the block's sample lines (newline-terminated).
fn fnv1a(lines: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Render blocks in the golden's form: short blocks verbatim; longer
/// ones keep the two header lines and condense the sample lines to a
/// count and a hash (a histogram block is 34 lines per series; the
/// hash pins every byte of them).
fn condensed(blocks: &BTreeMap<String, Vec<&str>>) -> BTreeMap<String, String> {
    blocks
        .iter()
        .map(|(name, lines)| {
            let (head, samples) = lines.split_at(2.min(lines.len()));
            let block = if samples.len() <= 3 {
                format!("{}\n", lines.join("\n"))
            } else {
                format!(
                    "{}\n= {} samples, fnv1a {:016x}\n",
                    head.join("\n"),
                    samples.len(),
                    fnv1a(samples)
                )
            };
            (name.clone(), block)
        })
        .collect()
}

/// The pin: every family block of the populated per-site and cluster
/// exposition — HELP text, TYPE, and each sample line — is byte-exact
/// against `tests/golden/exposition.txt`. Blocks are matched by family
/// name, so the order of families in the exposition is free, and a
/// family added later needs no golden edit (its name is guarded by
/// `family_list_matches_design_doc`, its lines by the shared writers).
#[test]
fn exposition_blocks_match_the_golden() {
    let (per_site, cluster) = pinned_exposition();
    let text = per_site + &cluster;
    let actual = condensed(&family_blocks(&text));
    let golden = include_str!("golden/exposition.txt");
    let mut pinned = 0;
    for block in golden.split("\n\n").filter(|b| !b.trim().is_empty()) {
        let block = format!("{}\n", block.trim_end());
        let name = block
            .strip_prefix("# HELP ")
            .and_then(|r| r.split_whitespace().next())
            .expect("golden block starts with a HELP line");
        let got = actual
            .get(name)
            .unwrap_or_else(|| panic!("pinned family {name} is no longer emitted"));
        assert_eq!(
            *got,
            block,
            "family block {name} changed; its lines are now:\n{}",
            family_blocks(&text)[name].join("\n")
        );
        pinned += 1;
    }
    assert!(pinned >= 66, "golden lost blocks: only {pinned} pinned");
}
