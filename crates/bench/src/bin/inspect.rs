//! Inspect SP-Cube's shuffle on a workload: per-reducer input bytes, which
//! cuboids contribute to the hottest reducer, and the largest anchor
//! groups — the debugging view behind the load-balance numbers.
//!
//! ```text
//! cargo run --release -p spcube-bench --bin inspect -- [usagov|wikipedia|zipf|binomial] [n] [chaos|corrupt]
//! cargo run --release -p spcube-bench --bin inspect -- generations <store-dir> [prefix]
//! cargo run --release -p spcube-bench --bin inspect -- layers <store-dir> [prefix]
//! cargo run --release -p spcube-bench --bin inspect -- scrub <store-dir> [prefix]
//! cargo run --release -p spcube-bench --bin inspect -- trace [dataset] [n] [--validate]
//! cargo run --release -p spcube-bench --bin inspect -- flight <trace.jsonl> [top]
//! ```
//!
//! The optional third argument injects faults: `chaos` runs on a cluster
//! with flaky tasks, stragglers + speculation, and a machine lost in each
//! phase; `corrupt` flips a byte of the serialized SP-Sketch on the DFS so
//! the driver degrades to the hash-partitioned fallback plan.
//!
//! The `generations` view runs the CubeStore recovery scan over a store
//! directory written by the CLI (default prefix `cube`) without modifying
//! it: every generation with its sealed state, the committed and chosen
//! generations, whether the root commit pointer is torn, and any orphan
//! blobs a recovering open would quarantine.
//!
//! The `layers` view is the same read-only scan aimed at an incremental
//! (delta-layered) store: the live chain in merge order with each layer's
//! segment count, bytes, and state rows, plus which layers the default
//! compaction policy would fold next.
//!
//! The `scrub` view runs the integrity scrubber over a store directory in
//! check-only mode: every blob of the live generation chain is re-read and
//! re-verified (checksums, codec round-trip, manifest shape agreement),
//! but nothing is quarantined or rewritten — corruption is reported with
//! what a repairing `spcube scrub` run would do about it.
//!
//! The `trace` view runs SP-Cube with the observability layer on the
//! deterministic mock clock and renders its flight traces — one per
//! round, split into map and reduce phases, with retry/speculation
//! events and the slowest root-to-leaf path flagged — then each round's
//! per-task simulated seconds and the metrics snapshot. With
//! `--validate` it additionally exits non-zero if reconstruction finds
//! unclosed spans, dangling parents, or malformed records.
//!
//! The `flight` view reads a flight-recorder JSONL file (what
//! `spcube cube --trace` writes: one trace per round; or an
//! `ObsHandle::flight_jsonl` dump of the query traces the tail sampler
//! kept), splits it per trace id, and renders the slowest
//! traces with per-phase times — queue-wait, blob-IO, decode, merge and
//! finalize for a query, map and reduce for a build round; only the
//! families some trace has are shown — plus the full span tree of the
//! single slowest one.
//! A truncated final line (a torn tail from a crashed writer) is
//! reported as a warning, not a failure.
// Output path: nothing here may iterate in hash order (DESIGN.md §8).
#![warn(clippy::disallowed_types)]

use std::collections::BTreeMap;

use spcube_agg::AggSpec;
use spcube_common::{Group, Mask, Relation};
use spcube_core::{SpCube, SpCubeConfig};
use spcube_datagen as datagen;
use spcube_lattice::{BfsOrder, TupleLattice};
use spcube_mapreduce::{ClusterConfig, Dfs, Phase};
use spcube_obs::{names, Name, SpanTree};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dataset = args.first().map(String::as_str).unwrap_or("usagov");
    if dataset == "generations" {
        inspect_generations(&args);
        return;
    }
    if dataset == "layers" {
        inspect_layers(&args);
        return;
    }
    if dataset == "scrub" {
        inspect_scrub(&args);
        return;
    }
    if dataset == "trace" {
        inspect_trace(&args);
        return;
    }
    if dataset == "flight" {
        inspect_flight(&args);
        return;
    }
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let mode = args.get(2).map(String::as_str).unwrap_or("");
    if !matches!(mode, "" | "chaos" | "corrupt") {
        eprintln!("unknown mode {mode} (expected chaos or corrupt)");
        std::process::exit(2);
    }
    let rel: Relation = match dataset {
        "usagov" => datagen::usagov_like(n, 0x90),
        "wikipedia" => datagen::wikipedia_like(n, 0x41),
        "zipf" => datagen::gen_zipf(n, 4, 0x21f),
        "binomial" => datagen::gen_binomial(n, 4, 0.4, 0xb1),
        other => {
            eprintln!("unknown dataset {other}");
            std::process::exit(2);
        }
    };
    let k = 20;
    let mut cluster = ClusterConfig::new(k, n / k);
    if mode == "chaos" {
        cluster = cluster
            .with_task_failures(0.05)
            .with_stragglers(0.1, 8.0)
            .with_speculation(1.5)
            .with_machine_failure(Phase::Map, 1)
            .with_machine_failure(Phase::Reduce, 2);
        cluster.retry.max_attempts = 12;
    }
    let dfs = Dfs::new();
    if mode == "corrupt" {
        dfs.corrupt_next_write("sp-sketch");
    }
    let cfg = SpCubeConfig::new(AggSpec::Count);
    let run = SpCube::run_on(&rel, &cluster, &cfg, &dfs).expect("run failed");
    let round = run.metrics.rounds.last().expect("at least one round");

    println!(
        "dataset {dataset}, n = {n}, k = {k}, m = {}",
        cluster.skew_threshold()
    );
    println!(
        "sketch: {} skewed groups, {} bytes",
        run.sketch.skew_count(),
        run.sketch_bytes
    );
    let m = &run.metrics;
    println!(
        "recovery: {} retries, {} tasks lost, {} re-executions, {} speculative, {:.3}s wasted",
        m.task_retries(),
        m.tasks_lost(),
        m.re_executions(),
        m.speculative_launches(),
        m.wasted_seconds(),
    );
    if run.degraded {
        println!(
            "DEGRADED: sketch rejected or sketch round failed ({} fallback event(s)); \
             cube round ran hash-partitioned without skew handling",
            m.fallback_events()
        );
        return; // the sketch-replay attribution below needs a real sketch
    }
    println!("\nper-reducer input bytes (reducer 0 = skew merger):");
    for (r, b) in round.reducer_input_bytes.iter().enumerate() {
        println!("  r{r:<3} {b:>12}");
    }

    // Replay the mapper walk to attribute traffic: (cuboid, range) loads.
    let d = rel.arity();
    let bfs = BfsOrder::new(d);
    let mut load: BTreeMap<(Mask, usize), u64> = BTreeMap::new();
    let mut group_sizes: BTreeMap<Group, u64> = BTreeMap::new();
    for t in rel.tuples() {
        let mut lat = TupleLattice::new(t, &bfs);
        let mut rank = 0u32;
        while let Some((mask, at)) = lat.next_unmarked(rank) {
            rank = at;
            let g = Group::of_tuple(t, mask);
            if run.sketch.is_skewed_group(&g) {
                lat.mark(mask);
            } else {
                let range = run.sketch.partition_of(mask, &g.key);
                *load.entry((mask, range)).or_insert(0) += t.wire_bytes();
                *group_sizes.entry(g).or_insert(0) += 1;
                lat.mark_with_ancestors(mask);
            }
        }
    }
    let hottest = round
        .reducer_input_bytes
        .iter()
        .enumerate()
        .skip(1)
        .max_by_key(|(_, b)| **b)
        .map(|(r, _)| r - 1) // range index = reducer - 1
        .unwrap_or(0);
    println!("\nhottest range = {hottest}; contributions by cuboid:");
    let mut rows: Vec<(&(Mask, usize), &u64)> =
        load.iter().filter(|((_, r), _)| *r == hottest).collect();
    rows.sort_by(|a, b| b.1.cmp(a.1));
    for ((mask, _), bytes) in rows.iter().take(8) {
        println!("  cuboid {:>width$b}: {bytes:>12} bytes", mask.0, width = d);
    }

    println!("\nlargest anchored groups overall:");
    let mut groups: Vec<(&Group, &u64)> = group_sizes.iter().collect();
    groups.sort_by(|a, b| b.1.cmp(a.1));
    for (g, size) in groups.iter().take(8) {
        println!(
            "  {:<40} {size:>8} tuples (range {})",
            g.display(d),
            run.sketch.partition_of(g.mask, &g.key)
        );
    }
}

/// The `trace` view: run SP-Cube with tracing on the deterministic mock
/// clock, render the span tree, and optionally validate the JSONL export.
fn inspect_trace(args: &[String]) {
    use spcube_obs::ObsHandle;

    let dataset = args.get(1).map(String::as_str).unwrap_or("binomial");
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let validate = args.iter().any(|a| a == "--validate");
    let rel: Relation = match dataset {
        "usagov" => datagen::usagov_like(n, 0x90),
        "wikipedia" => datagen::wikipedia_like(n, 0x41),
        "zipf" => datagen::gen_zipf(n, 4, 0x21f),
        "binomial" => datagen::gen_binomial(n, 4, 0.4, 0xb1),
        other => {
            eprintln!("unknown dataset {other}");
            std::process::exit(2);
        }
    };
    let k = 20;
    let obs = ObsHandle::mock();
    let cluster = ClusterConfig::new(k, n / 500).with_obs(obs.clone());
    let cfg = SpCubeConfig::new(AggSpec::Count);
    let run = SpCube::run(&rel, &cluster, &cfg).expect("run failed");
    println!(
        "dataset {dataset}, n = {n}, k = {k}: {} c-groups, {} round(s), {:.3}s simulated",
        run.cube.len(),
        run.metrics.round_count(),
        run.metrics.total_seconds()
    );

    let jsonl = obs.flight_jsonl();
    let tree = match SpanTree::parse_jsonl(&jsonl) {
        Ok(tree) => tree,
        Err(e) => {
            eprintln!("trace JSONL failed to parse: {e}");
            std::process::exit(1);
        }
    };
    // Tolerated irregularities (e.g. a torn final line) are warnings:
    // printed, but never an exit-code failure — only structural errors
    // from parse/validate are.
    for w in tree.warnings() {
        eprintln!("warning: {w}");
    }
    println!("\n{}", tree.render());
    // Per-task simulated seconds live in the run's metrics; the trace
    // splits each round's wall time into its map and reduce phases.
    println!("per-task simulated seconds:");
    for round in &run.metrics.rounds {
        for (phase, times) in [("map", &round.map_times), ("reduce", &round.reduce_times)] {
            let secs: Vec<String> = times.iter().map(|s| format!("{s:.3}")).collect();
            println!("  {:<10} {phase:<6} sim_s [{}]", round.name, secs.join(" "));
        }
    }
    println!();
    println!("{}", obs.prometheus());
    if validate {
        match tree.validate() {
            Ok(()) => println!(
                "trace validation: OK ({} JSONL record(s))",
                jsonl.lines().count()
            ),
            Err(problems) => {
                eprintln!("trace validation FAILED:");
                for p in &problems {
                    eprintln!("  {p}");
                }
                std::process::exit(1);
            }
        }
    }
}

/// The `flight` view: render the slowest persisted flight traces with
/// per-phase self-times, and the full span tree of the slowest one.
fn inspect_flight(args: &[String]) {
    let Some(path) = args.get(1) else {
        eprintln!("flight: need a trace JSONL path");
        std::process::exit(2);
    };
    let top: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5);
    let input = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("flight: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };

    // One span tree per trace id. A torn final line (a crashed writer's
    // half-record) is a warning; anything else malformed, a record
    // without a trace id included, is a structural error.
    let (groups, warnings) = match SpanTree::parse_per_trace(&input) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("flight: {path}: {e}");
            std::process::exit(1);
        }
    };
    for w in &warnings {
        eprintln!("warning: {w}");
    }
    if groups.is_empty() {
        println!("no flight traces in {path} (nothing was tail-sampled in)");
        return;
    }
    let (columns, rows) = match flight_table(groups) {
        Ok(table) => table,
        Err(e) => {
            eprintln!("flight: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "{} persisted trace(s); slowest {} by end-to-end latency (us):",
        rows.len(),
        top.min(rows.len())
    );
    let header: String = columns.iter().map(|c| format!(" {c:>10}")).collect();
    println!("{:>10} {:>10}{header} {:>7}", "trace", "total", "events");
    for r in rows.iter().take(top) {
        let phases: String = r.phases.iter().map(|us| format!(" {us:>10}")).collect();
        println!("{:>10} {:>10}{phases} {:>7}", r.id, r.total, r.events);
    }
    if let Some(slowest) = rows.first() {
        println!("\nslowest trace {}:", slowest.id);
        println!("{}", slowest.tree.render());
    }
}

/// The `flight` table's phase columns in two families: a query's latency
/// split, then a build round's. A family is shown when some trace in the
/// file has one of its spans, so a query-trace file keeps its five
/// columns and a `spcube cube --trace` file shows map and reduce.
const FLIGHT_PHASES: [&[(&str, Name)]; 2] = [
    &[
        ("queue", names::SERVE_PHASE_QUEUE_WAIT),
        ("blob_io", names::STORE_FLIGHT_BLOB_IO),
        ("decode", names::STORE_FLIGHT_DECODE),
        ("merge", names::STORE_FLIGHT_MERGE),
        ("finalize", names::SERVE_PHASE_FINALIZE),
    ],
    &[
        ("map", names::ENGINE_PHASE_MAP),
        ("reduce", names::ENGINE_PHASE_REDUCE),
    ],
];

/// One persisted trace in the `flight` table.
struct FlightRow {
    id: u64,
    /// The root span: a query's `serve.phase.total`, or a build round's
    /// `engine.round`.
    total: u64,
    /// Microseconds per shown phase column.
    phases: Vec<u64>,
    events: usize,
    tree: SpanTree,
}

/// Validate every trace and tabulate it, slowest first: the shown phase
/// column names and one row per trace. Fails on the first structurally
/// broken trace.
fn flight_table(
    groups: Vec<(u64, SpanTree)>,
) -> Result<(Vec<&'static str>, Vec<FlightRow>), String> {
    for (id, tree) in &groups {
        if let Err(problems) = tree.validate() {
            return Err(format!(
                "trace {id} is structurally broken:\n  {}",
                problems.join("\n  ")
            ));
        }
    }
    let in_file = |name: Name| groups.iter().any(|(_, t)| !t.spans_named(name).is_empty());
    let shown: Vec<(&'static str, Name)> = FLIGHT_PHASES
        .iter()
        .filter(|family| family.iter().any(|&(_, name)| in_file(name)))
        .flat_map(|family| family.iter().copied())
        .collect();
    let mut rows: Vec<FlightRow> = groups
        .into_iter()
        .map(|(id, tree)| FlightRow {
            id,
            total: tree.roots.iter().map(|&r| tree.total_us(r)).sum(),
            phases: shown
                .iter()
                .map(|&(_, name)| {
                    tree.spans_named(name)
                        .iter()
                        .map(|s| s.end_us.unwrap_or(s.start_us).saturating_sub(s.start_us))
                        .sum()
                })
                .collect(),
            events: tree.nodes.iter().map(|n| n.events.len()).sum(),
            tree,
        })
        .collect();
    rows.sort_by(|a, b| b.total.cmp(&a.total).then(a.id.cmp(&b.id)));
    Ok((shown.iter().map(|&(column, _)| column).collect(), rows))
}

/// The `layers` view: recovery-scan an incremental store read-only and
/// print its live delta chain, layer by layer.
fn inspect_layers(args: &[String]) {
    use spcube_cubestore::{scan_store, CompactionPolicy, DirBlobs, StoreKind};

    let Some(dir) = args.get(1) else {
        eprintln!("usage: inspect layers <store-dir> [prefix]");
        std::process::exit(2);
    };
    let prefix = args.get(2).map(String::as_str).unwrap_or("cube");
    let blobs = DirBlobs::new(dir);
    let scan = match scan_store(&blobs, prefix) {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("scanning {dir}/{prefix} failed: {e}");
            std::process::exit(1);
        }
    };
    let Some(chosen) = scan.chosen else {
        eprintln!("no recoverable generation under {dir}/{prefix}");
        std::process::exit(1);
    };
    let info_of = |g: u64| scan.generations.iter().find(|i| i.generation == g);
    let Some(manifest) = info_of(chosen).and_then(|i| i.manifest.as_ref()) else {
        eprintln!("generation {chosen} has no readable manifest");
        std::process::exit(1);
    };
    if manifest.kind != StoreKind::State {
        println!(
            "store {dir} prefix {prefix}: classic full-rebuild store \
             (generation {chosen}, no delta layers); see `inspect generations`"
        );
        return;
    }
    println!(
        "store {dir} prefix {prefix}: incremental, d = {}, agg {}, \
         {} live layer(s), serving generation {chosen}",
        manifest.d,
        manifest.spec.name(),
        manifest.layers.len()
    );
    println!("live chain (merge order):");
    for &g in &manifest.layers {
        match info_of(g) {
            Some(info) => {
                let rows: u64 = info
                    .manifest
                    .as_ref()
                    .map(|m| m.entries.iter().map(|e| u64::from(e.rows)).sum())
                    .unwrap_or(0);
                println!(
                    "  gen {g:>8}: {} segment(s), {} bytes, {rows} state rows{}",
                    info.segments,
                    info.bytes,
                    if info.sealed { "" } else { "  UNSEALED" }
                );
            }
            None => println!("  gen {g:>8}: MISSING (chain references a collected layer)"),
        }
    }
    let policy = CompactionPolicy::default();
    if manifest.layers.len() > policy.max_layers {
        let fold = manifest.layers.len() - policy.max_layers + 1;
        let mut sized: Vec<(u64, u64)> = manifest
            .layers
            .iter()
            .filter_map(|&g| info_of(g).map(|i| (i.bytes, g)))
            .collect();
        sized.sort_unstable();
        let victims: Vec<u64> = sized.iter().take(fold).map(|&(_, g)| g).collect();
        println!(
            "compaction (default policy, max {} layer(s)) would fold {victims:?}",
            policy.max_layers
        );
    } else {
        println!(
            "chain within the default compaction policy (max {} layer(s))",
            policy.max_layers
        );
    }
}

/// The `scrub` view: run the integrity scrubber over a store directory in
/// check-only mode and print what a repairing run would do. Exits non-zero
/// when any live blob is corrupt, so scripts can gate on it.
fn inspect_scrub(args: &[String]) {
    use spcube_cubestore::{DirBlobs, ScrubConfig, Scrubber};

    let Some(dir) = args.get(1) else {
        eprintln!("usage: inspect scrub <store-dir> [prefix]");
        std::process::exit(2);
    };
    let prefix = args.get(2).map(String::as_str).unwrap_or("cube");
    let blobs = DirBlobs::new(dir);
    let report = match Scrubber::new(ScrubConfig::read_only()).run(&blobs, prefix) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("scrubbing {dir}/{prefix} failed: {e}");
            std::process::exit(1);
        }
    };
    let Some(generation) = report.generation else {
        println!("store {dir} prefix {prefix}: no committed generation; nothing to scrub");
        return;
    };
    println!(
        "store {dir} prefix {prefix}: serving generation {generation}, \
         {} manifest(s) + {} segment(s) on the live chain, {} clean",
        report.manifests_checked, report.segments_checked, report.clean
    );
    if report.corrupt == 0 {
        println!("live chain verifies clean (checksums, codecs, manifest shapes)");
        return;
    }
    println!("{} corrupt blob(s) on the live chain:", report.corrupt);
    for f in &report.findings {
        let mask = f
            .mask
            .map(|m| format!(" cuboid {m}"))
            .unwrap_or_else(|| " (manifest)".to_string());
        println!("  gen {:>8}{mask}  {}", f.generation, f.path);
        println!("           {}", f.what);
    }
    println!("a repairing run (`spcube scrub {dir}`) would quarantine and repair in place");
    std::process::exit(1);
}

/// The `generations` view: recovery-scan a CLI-written store directory
/// read-only and print what a recovering open would decide.
fn inspect_generations(args: &[String]) {
    use spcube_cubestore::{scan_store, DirBlobs};

    let Some(dir) = args.get(1) else {
        eprintln!("usage: inspect generations <store-dir> [prefix]");
        std::process::exit(2);
    };
    let prefix = args.get(2).map(String::as_str).unwrap_or("cube");
    let blobs = DirBlobs::new(dir);
    let scan = match scan_store(&blobs, prefix) {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("scanning {dir}/{prefix} failed: {e}");
            std::process::exit(1);
        }
    };
    println!("store {dir} prefix {prefix}");
    if scan.generations.is_empty() {
        println!("no generations found");
    }
    for info in &scan.generations {
        let state = if info.sealed {
            "sealed".to_string()
        } else if info.manifest.is_some() {
            format!("UNSEALED ({} segment(s) missing or resized)", info.missing)
        } else {
            "UNSEALED (no valid seal manifest)".to_string()
        };
        println!(
            "  gen {:>8}: {state}, {} segment(s), {} bytes",
            info.generation, info.segments, info.bytes
        );
    }
    match (scan.committed, scan.chosen) {
        (Some(c), Some(ch)) if c == ch => println!("committed = chosen = generation {c}"),
        (committed, chosen) => {
            let fmt = |g: Option<u64>| g.map_or_else(|| "none".to_string(), |g| g.to_string());
            println!(
                "committed generation: {} / chosen generation: {}",
                fmt(committed),
                fmt(chosen)
            );
        }
    }
    if scan.torn_root {
        println!("TORN ROOT: commit pointer does not match a sealed generation; a recovering open repairs it");
    }
    if scan.chosen.is_none() {
        println!("UNRECOVERABLE: no fully sealed generation; open will fail typed");
    }
    if scan.orphans.is_empty() {
        println!("no orphan blobs");
    } else {
        println!("orphan blobs (quarantined at next open):");
        for path in &scan.orphans {
            println!("  {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One build round (trace 1) and one query (trace 2), as the flight
    /// writer persists them.
    const MIXED: &str = r#"{"type":"span_start","id":1,"parent":0,"name":"engine.round","ts_us":0,"trace":1,"labels":{"job":"cube"}}
{"type":"span_start","id":2,"parent":1,"name":"engine.phase.map","ts_us":0,"trace":1,"labels":{}}
{"type":"event","name":"engine.task.retry","parent":2,"ts_us":300,"trace":1,"labels":{"task":"2"}}
{"type":"span_end","id":2,"ts_us":4000,"trace":1,"attrs":{}}
{"type":"span_start","id":3,"parent":1,"name":"engine.phase.reduce","ts_us":4000,"trace":1,"labels":{}}
{"type":"span_end","id":3,"ts_us":9000,"trace":1,"attrs":{}}
{"type":"span_end","id":1,"ts_us":9000,"trace":1,"attrs":{}}
{"type":"span_start","id":10,"parent":0,"name":"serve.phase.total","ts_us":0,"trace":2,"labels":{}}
{"type":"span_start","id":11,"parent":10,"name":"serve.phase.queue_wait","ts_us":0,"trace":2,"labels":{}}
{"type":"span_end","id":11,"ts_us":100,"trace":2,"attrs":{}}
{"type":"span_start","id":12,"parent":10,"name":"store.flight.blob_io","ts_us":100,"trace":2,"labels":{}}
{"type":"span_end","id":12,"ts_us":300,"trace":2,"attrs":{}}
{"type":"span_start","id":13,"parent":10,"name":"store.flight.decode","ts_us":300,"trace":2,"labels":{}}
{"type":"span_end","id":13,"ts_us":350,"trace":2,"attrs":{}}
{"type":"span_start","id":14,"parent":10,"name":"serve.phase.finalize","ts_us":350,"trace":2,"labels":{}}
{"type":"span_end","id":14,"ts_us":500,"trace":2,"attrs":{}}
{"type":"span_end","id":10,"ts_us":500,"trace":2,"attrs":{}}
"#;

    /// A row as `(trace, total, phases, events)`.
    type Row = (u64, u64, Vec<u64>, usize);

    fn table(jsonl: &str) -> (Vec<&'static str>, Vec<Row>) {
        let (groups, warnings) = SpanTree::parse_per_trace(jsonl).expect("parse");
        assert!(warnings.is_empty());
        let (columns, rows) = flight_table(groups).expect("valid traces");
        let rows = rows
            .into_iter()
            .map(|r| (r.id, r.total, r.phases, r.events))
            .collect();
        (columns, rows)
    }

    #[test]
    fn flight_table_shows_the_phase_families_the_file_has() {
        let (columns, rows) = table(MIXED);
        assert_eq!(
            columns,
            ["queue", "blob_io", "decode", "merge", "finalize", "map", "reduce"]
        );
        assert_eq!(
            rows,
            [
                (1, 9000, vec![0, 0, 0, 0, 0, 4000, 5000], 1),
                (2, 500, vec![100, 200, 50, 0, 150, 0, 0], 0),
            ]
        );

        // Each family alone: a query file keeps its five columns, merge
        // included, and a build file shows only map and reduce.
        let (query, build): (Vec<&str>, Vec<&str>) =
            MIXED.lines().partition(|l| l.contains(r#""trace":2"#));
        let (columns, rows) = table(&(query.join("\n") + "\n"));
        assert_eq!(columns, ["queue", "blob_io", "decode", "merge", "finalize"]);
        assert_eq!(rows, [(2, 500, vec![100, 200, 50, 0, 150], 0)]);
        let (columns, rows) = table(&(build.join("\n") + "\n"));
        assert_eq!(columns, ["map", "reduce"]);
        assert_eq!(rows, [(1, 9000, vec![4000, 5000], 1)]);
    }

    #[test]
    fn a_broken_trace_fails_the_table() {
        let unclosed = MIXED.replace(
            "{\"type\":\"span_end\",\"id\":3,\"ts_us\":9000,\"trace\":1,\"attrs\":{}}\n",
            "",
        );
        let (groups, _) = SpanTree::parse_per_trace(&unclosed).expect("parse");
        let err = flight_table(groups).err().expect("unclosed span");
        assert!(err.starts_with("trace 1 is structurally broken:"), "{err}");
    }
}
