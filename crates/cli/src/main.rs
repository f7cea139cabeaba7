//! `spcube` — command-line front end for the SP-Cube reproduction.
//!
//! ```text
//! spcube generate --dataset zipf --n 100000 --seed 7 --out data.tsv
//! spcube sketch data.tsv --machines 20 [--memory M] [--exact-sketch]
//! spcube cube data.tsv --algo spcube --agg sum --machines 20 --out cube_out
//! spcube cuboid data.tsv --mask 101 --agg count
//! spcube help
//! ```
//!
//! `cube` writes one TSV per cuboid into `--out` (Section 3.1's layout)
//! and prints the run's metrics; `--algo` selects between `spcube`, `pig`
//! (MRCube), `hive`, `naive`, and `topdown`.
//!
//! The read side of the reproduction lives behind more commands:
//! `build-store` persists the cube as a columnar CubeStore directory,
//! `query` answers point/slice/top-k lookups against such a directory,
//! and `ingest`, `compact` and `scrub` maintain an incremental one.
//! Serving throughput and latency are measured by the `cubebench`
//! workspace.

mod args;

use std::process::ExitCode;
use std::sync::Arc;

use args::Args;
use spcube_agg::AggSpec;
use spcube_baselines::{
    hive_cube, mr_cube, naive_mr_cube, top_down_cube, HiveConfig, MrCubeConfig,
};
use spcube_common::{io, Error, Mask, Relation, Result, Value};
use spcube_core::{build_exact_sketch, build_sampled_sketch, SketchConfig, SpCube, SpCubeConfig};
use spcube_cubealg::{Cube, CubeQuery, CubeRead};
use spcube_cubestore::{
    ingest_batch, write_store, BlobStore, CompactionPolicy, CubeStore, DirBlobs, ScrubConfig,
    Scrubber,
};
use spcube_datagen as datagen;
use spcube_mapreduce::{ClusterConfig, RunMetrics};
use spcube_obs::ObsHandle;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spcube: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(raw: &[String]) -> Result<()> {
    let args = Args::parse(raw)?;
    let command = args.command.clone();
    match command.as_str() {
        "generate" => generate(&args),
        "sketch" => sketch(&args),
        "cube" => cube(&args),
        "cuboid" => cuboid(&args),
        "build-store" => build_store(&args),
        "ingest" => ingest(&args),
        "compact" => compact_store(&args),
        "scrub" => scrub_store(&args),
        "query" => query(&args),
        "" | "help" => {
            print!("{}", HELP);
            Ok(())
        }
        other => Err(Error::Config(format!(
            "unknown command `{other}`; see `spcube help`"
        ))),
    }
}

const HELP: &str = "\
spcube — SP-Cube data cube computation (SIGMOD'16 reproduction)

COMMANDS
  generate --dataset D --n N [--seed S] [--p P] [--dims K] --out FILE
      Write a synthetic dataset as TSV. Datasets: zipf, binomial (needs
      --p), wikipedia, usagov, retail (accepts --p as skew), apex.
  sketch FILE --machines K [--memory M] [--exact-sketch]
      Build and summarize the SP-Sketch of a TSV relation.
  cube FILE --algo A [--agg F] --machines K [--memory M]
       [--min-support S] [--out DIR] [--trace FILE] [--metrics FILE]
      Compute the cube. Algorithms: spcube, pig, hive, naive, topdown.
      Aggregates: count, sum, min, max, avg, count_distinct.
      --trace writes one flight trace per MapReduce round as JSONL;
      --metrics writes a Prometheus-style snapshot of all instruments.
  cuboid FILE --mask BITS [--agg F] [--top N]
      Compute just one cuboid view (via a full sequential cube) and print
      its largest groups.
  build-store FILE --out DIR [--agg F] [--machines K] [--memory M]
       [--min-support S]
      Run SP-Cube and persist the cube as a columnar CubeStore directory
      (one checksummed segment per cuboid plus a manifest).
  ingest FILE --store DIR [--agg F]
      Cube the TSV batch in one cheap pass and publish it as a new delta
      layer of the incremental store under DIR (created on the first
      ingest; aggregates merge bit-exactly across layers at read time).
  compact DIR [--max-layers N]
      Fold the smallest delta layers of the store under DIR into one new
      layer when the chain exceeds N (default 4); answers are unchanged.
  scrub DIR [--check-only] [--recover FILE]
      Walk the live generation chain of the store under DIR re-verifying
      every blob checksum; quarantine bit-rot and repair segments in
      place (rollup for delta layers; BUC recompute from --recover's TSV
      for full-rebuild stores). --check-only reports without touching
      anything. Exits nonzero when corruption remains unrepaired.
  query DIR --mask BITS [--point V1,V2,..] [--slice DIM=VALUE] [--top N]
      Answer a lookup against a CubeStore directory written by
      build-store or ingest. Without --point/--slice, prints the
      cuboid's top N groups by measure.
  help
";

/// Blob-path prefix used inside every CubeStore directory the CLI writes.
const STORE_PREFIX: &str = "cube";

fn load(args: &Args) -> Result<Relation> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| Error::Config("input TSV path required".into()))?;
    io::read_tsv_file(path)
}

fn cluster_from(args: &Args, n: usize) -> Result<ClusterConfig> {
    let machines: usize = args.get_or("machines", 20)?;
    let memory: usize = args.get_or("memory", (n / machines.max(1)).max(1))?;
    Ok(ClusterConfig::new(machines, memory))
}

fn agg_from(args: &Args) -> Result<AggSpec> {
    Ok(match args.get("agg").unwrap_or("count") {
        "count" => AggSpec::Count,
        "sum" => AggSpec::Sum,
        "min" => AggSpec::Min,
        "max" => AggSpec::Max,
        "avg" => AggSpec::Avg,
        "count_distinct" => AggSpec::CountDistinct,
        other => return Err(Error::Config(format!("unknown aggregate `{other}`"))),
    })
}

fn generate(args: &Args) -> Result<()> {
    let dataset = args.require("dataset")?;
    let n: usize = args.get_or("n", 100_000)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let dims: usize = args.get_or("dims", 4)?;
    let p: f64 = args.get_or("p", 0.25)?;
    let out = args.require("out")?;
    let rel = match dataset {
        "zipf" => datagen::gen_zipf(n, dims, seed),
        "binomial" => datagen::gen_binomial(n, dims, p, seed),
        "wikipedia" => datagen::wikipedia_like(n, seed),
        "usagov" => datagen::usagov_like(n, seed),
        "retail" => datagen::retail(n, p, seed),
        "apex" => datagen::apex_only_skew(n, dims, seed),
        other => return Err(Error::Config(format!("unknown dataset `{other}`"))),
    };
    io::write_tsv_file(&rel, out)?;
    println!(
        "wrote {} tuples ({} bytes) to {out}",
        rel.len(),
        rel.wire_bytes()
    );
    Ok(())
}

fn sketch(args: &Args) -> Result<()> {
    let rel = load(args)?;
    let cluster = cluster_from(args, rel.len())?;
    let (sketch, round) = if args.has("exact-sketch") {
        (build_exact_sketch(&rel, &cluster), None)
    } else {
        let (s, m) = build_sampled_sketch(&rel, &cluster, &SketchConfig::default())?;
        (s, Some(m))
    };
    println!(
        "sketch over {} tuples: d = {}, k = {}, m = {}",
        rel.len(),
        rel.arity(),
        cluster.machines,
        cluster.skew_threshold()
    );
    println!("  skewed c-groups : {}", sketch.skew_count());
    println!("  serialized size : {} bytes", sketch.serialized_bytes());
    if let Some(m) = round {
        println!("  sample records  : {}", m.map_output_records);
        println!("  round time (sim): {:.2}s", m.simulated_seconds);
    }
    for mask in Mask::full(rel.arity()).subsets() {
        let node = sketch.node(mask);
        if node.skew_count() > 0 {
            println!(
                "  cuboid {:0>width$b}: {} skews",
                mask.0,
                node.skew_count(),
                width = rel.arity()
            );
        }
    }
    Ok(())
}

fn cube(args: &Args) -> Result<()> {
    let rel = load(args)?;
    let want_obs = args.get("trace").is_some() || args.get("metrics").is_some();
    let obs = if want_obs {
        ObsHandle::wall()
    } else {
        ObsHandle::default()
    };
    let cluster = cluster_from(args, rel.len())?.with_obs(obs.clone());
    let agg = agg_from(args)?;
    let algo = args.get("algo").unwrap_or("spcube");
    let (cube, metrics): (Cube, RunMetrics) = match algo {
        "spcube" => {
            let mut cfg = SpCubeConfig::new(agg);
            cfg.min_support = args.get_or("min-support", 1)?;
            cfg.use_exact_sketch = args.has("exact-sketch");
            let run = SpCube::run(&rel, &cluster, &cfg)?;
            println!(
                "sketch: {} bytes, {} skews",
                run.sketch_bytes,
                run.sketch.skew_count()
            );
            (run.cube, run.metrics)
        }
        "pig" => {
            let run = mr_cube(&rel, &cluster, &MrCubeConfig::new(agg))?;
            (run.cube, run.metrics)
        }
        "hive" => {
            let run = hive_cube(&rel, &cluster, &HiveConfig::new(agg))?;
            (run.cube, run.metrics)
        }
        "naive" => {
            let run = naive_mr_cube(&rel, &cluster, agg)?;
            (run.cube, run.metrics)
        }
        "topdown" => {
            let run = top_down_cube(&rel, &cluster, agg)?;
            (run.cube, run.metrics)
        }
        other => return Err(Error::Config(format!("unknown algorithm `{other}`"))),
    };

    println!(
        "{algo}/{}: {} c-groups in {} round(s); {:.1}s simulated; {} intermediate bytes",
        agg.name(),
        cube.len(),
        metrics.round_count(),
        metrics.total_seconds(),
        metrics.map_output_bytes()
    );
    if let Some(dir) = args.get("out") {
        std::fs::create_dir_all(dir).map_err(|e| Error::Io(format!("creating {dir}"), e))?;
        let q = CubeQuery::new(&cube, rel.arity());
        let mut failed = None;
        let paths = q.export_per_cuboid(dir, |path, body| {
            if failed.is_none() {
                if let Err(e) = std::fs::write(&path, body) {
                    failed = Some(Error::Io(format!("writing {path}"), e));
                }
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        println!("wrote {} cuboid files under {dir}/", paths.len());
    }
    if let Some(path) = args.get("trace") {
        std::fs::write(path, obs.flight_jsonl())
            .map_err(|e| Error::Io(format!("writing {path}"), e))?;
        println!("wrote flight trace (JSONL, one trace per round) to {path}");
    }
    if let Some(path) = args.get("metrics") {
        std::fs::write(path, obs.prometheus())
            .map_err(|e| Error::Io(format!("writing {path}"), e))?;
        println!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

fn cuboid(args: &Args) -> Result<()> {
    let rel = load(args)?;
    let agg = agg_from(args)?;
    let mask = mask_from(args, rel.arity())?;
    let top_n: usize = args.get_or("top", 20)?;
    let cube = spcube_cubealg::buc(&rel, agg, &spcube_cubealg::BucConfig::default());
    let q = CubeQuery::new(&cube, rel.arity());
    println!(
        "cuboid {:0>width$b}: {} groups; top {top_n} by {}:",
        mask.0,
        q.cuboid_len(mask),
        agg.name(),
        width = rel.arity()
    );
    for (g, v) in q.top(mask, top_n) {
        println!("  {:<40} {v}", g.display(rel.arity()));
    }
    Ok(())
}

/// Parse a CLI value token the way the TSV reader would: integer if it
/// looks like one, string otherwise.
fn parse_value(tok: &str) -> Value {
    tok.parse::<i64>()
        .map_or_else(|_| Value::str(tok), Value::Int)
}

fn mask_from(args: &Args, d: usize) -> Result<Mask> {
    let mask_str = args.require("mask")?;
    let bits = u32::from_str_radix(mask_str, 2)
        .map_err(|_| Error::Config(format!("--mask `{mask_str}` is not binary")))?;
    let mask = Mask(bits);
    if !mask.is_subset_of(Mask::full(d)) {
        return Err(Error::Config(format!(
            "--mask {mask_str} has bits beyond the {d}-dimensional schema"
        )));
    }
    Ok(mask)
}

fn build_store(args: &Args) -> Result<()> {
    let rel = load(args)?;
    let cluster = cluster_from(args, rel.len())?;
    let out = args.require("out")?;
    let mut cfg = SpCubeConfig::new(agg_from(args)?);
    cfg.min_support = args.get_or("min-support", 1)?;
    cfg.use_exact_sketch = args.has("exact-sketch");
    let run = SpCube::run(&rel, &cluster, &cfg)?;
    let blobs = DirBlobs::new(out);
    let report = write_store(
        &blobs,
        STORE_PREFIX,
        &run.cube,
        rel.arity(),
        cfg.agg,
        cfg.min_support,
    )?;
    println!(
        "stored {} c-groups as {} segments ({} bytes) under {out}/{STORE_PREFIX}/ \
         as generation {}",
        report.rows, report.segments, report.bytes, report.generation
    );
    Ok(())
}

fn ingest(args: &Args) -> Result<()> {
    let batch = load(args)?;
    let dir = args.require("store")?;
    let blobs = DirBlobs::new(dir);
    let report = ingest_batch(&blobs, STORE_PREFIX, &batch, agg_from(args)?)?;
    println!(
        "ingested {} tuples as generation {}: {} state segments, {} bytes, \
         {} state rows; live chain {:?} ({} layer(s))",
        batch.len(),
        report.generation,
        report.segments,
        report.bytes,
        report.rows,
        report.layers,
        report.layers.len()
    );
    if report.layers.len() > 4 {
        eprintln!(
            "hint: {} layers now serve every read; `spcube compact {dir}` folds them",
            report.layers.len()
        );
    }
    Ok(())
}

fn compact_store(args: &Args) -> Result<()> {
    let dir = args
        .positional
        .first()
        .ok_or_else(|| Error::Config("CubeStore directory required".into()))?;
    let policy = CompactionPolicy {
        max_layers: args.get_or("max-layers", 4)?,
    };
    let blobs = DirBlobs::new(dir);
    match spcube_cubestore::compact(&blobs, STORE_PREFIX, &policy)? {
        Some(report) => println!(
            "folded layers {:?} into generation {}: {} segments, {} bytes, \
             {} state rows; live chain {:?} ({} layer(s))",
            report.folded,
            report.generation,
            report.segments,
            report.bytes,
            report.rows,
            report.layers,
            report.layers.len()
        ),
        None => println!(
            "chain within policy (max {} layer(s)); nothing to fold",
            policy.max_layers
        ),
    }
    Ok(())
}

fn scrub_store(args: &Args) -> Result<()> {
    let dir = args
        .positional
        .first()
        .ok_or_else(|| Error::Config("CubeStore directory required".into()))?;
    let config = if args.has("check-only") {
        ScrubConfig::read_only()
    } else {
        ScrubConfig::default()
    };
    let mut scrubber = Scrubber::new(config);
    if let Some(path) = args.get("recover") {
        scrubber = scrubber.with_recovery(io::read_tsv_file(path)?);
    }
    let blobs = DirBlobs::new(dir);
    let report = scrubber.run(&blobs, STORE_PREFIX)?;
    let Some(generation) = report.generation else {
        println!("no committed generation under {dir}; nothing to scrub");
        return Ok(());
    };
    println!(
        "scrubbed generation {generation}: {} manifest(s) + {} segment(s) checked, {} clean",
        report.manifests_checked, report.segments_checked, report.clean
    );
    if report.corrupt == 0 {
        return Ok(());
    }
    println!(
        "{} corrupt blob(s): {} quarantined, {} repaired in place, {} unrepairable",
        report.corrupt, report.quarantined, report.repaired, report.unrepairable
    );
    for f in &report.findings {
        let action = match (f.quarantined, f.repaired) {
            (true, true) => "quarantined, repaired",
            (true, false) => "quarantined",
            (false, true) => "repaired",
            (false, false) => "detected",
        };
        println!("  {}  [{}] {}", f.path, action, f.what);
    }
    if report.unrepairable > 0 && !args.has("check-only") {
        return Err(Error::corrupt(
            "store",
            format!(
                "{} blob(s) remain corrupt; quarantined copies are under {STORE_PREFIX}/quarantine/",
                report.unrepairable
            ),
        ));
    }
    Ok(())
}

fn query(args: &Args) -> Result<()> {
    let dir = args
        .positional
        .first()
        .ok_or_else(|| Error::Config("CubeStore directory required".into()))?;
    let store = CubeStore::open(
        Arc::new(DirBlobs::new(dir)) as Arc<dyn BlobStore>,
        STORE_PREFIX,
    )?;
    let d = store.dims();
    let mask = mask_from(args, d)?;

    if let Some(point) = args.get("point") {
        let key: Vec<Value> = point.split(',').map(parse_value).collect();
        if key.len() != mask.arity() as usize {
            return Err(Error::Config(format!(
                "--point has {} values but the cuboid groups {} dimensions",
                key.len(),
                mask.arity()
            )));
        }
        match store.point(mask, &key)? {
            Some(v) => println!("{v}"),
            None => println!("(no such group)"),
        }
    } else if let Some(slice) = args.get("slice") {
        let (dim_s, val_s) = slice
            .split_once('=')
            .ok_or_else(|| Error::Config("--slice expects DIM=VALUE".into()))?;
        let dim: usize = dim_s
            .parse()
            .map_err(|_| Error::Config(format!("--slice dimension `{dim_s}` is not a number")))?;
        let rows = store.slice(mask, dim, &parse_value(val_s))?;
        println!("{} groups match dim {dim} = {val_s}:", rows.len());
        for (g, v) in rows {
            println!("  {:<40} {v}", g.display(d));
        }
    } else {
        let n: usize = args.get_or("top", 20)?;
        println!(
            "cuboid {:0>width$b}: {} groups; top {n} by measure:",
            mask.0,
            store.cuboid_len(mask)?,
            width = d
        );
        for (g, score) in store.top(mask, n)? {
            println!("  {:<40} {score}", g.display(d));
        }
    }
    let stats = store.stats();
    if stats.degraded_recomputes > 0 {
        eprintln!(
            "warning: {} cuboid(s) served via degraded recompute",
            stats.degraded_recomputes
        );
    }
    if stats.torn_commits > 0 {
        eprintln!(
            "warning: a torn commit was repaired at open; serving generation {}",
            store.generation()
        );
    }
    if stats.quarantined_blobs > 0 {
        eprintln!(
            "warning: {} orphan blob(s) from an aborted commit moved to {STORE_PREFIX}/quarantine/",
            stats.quarantined_blobs
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(tokens: &[String]) -> Result<()> {
        run(tokens)
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn generate_sketch_cube_pipeline() {
        let dir = std::env::temp_dir().join(format!("spcube-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tsv = dir.join("data.tsv");
        let tsv_s = tsv.to_str().unwrap();

        call(&argv(&[
            "generate",
            "--dataset",
            "retail",
            "--n",
            "3000",
            "--p",
            "0.4",
            "--seed",
            "5",
            "--out",
            tsv_s,
        ]))
        .unwrap();
        assert!(tsv.exists());

        call(&argv(&[
            "sketch",
            tsv_s,
            "--machines",
            "5",
            "--memory",
            "200",
        ]))
        .unwrap();

        let out = dir.join("cube");
        for algo in ["spcube", "pig", "hive", "naive", "topdown"] {
            call(&argv(&[
                "cube",
                tsv_s,
                "--algo",
                algo,
                "--agg",
                "sum",
                "--machines",
                "5",
                "--memory",
                "200",
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
        }
        // 2^3 cuboid files written.
        assert_eq!(std::fs::read_dir(&out).unwrap().count(), 8);

        // An instrumented run exports a parseable trace and a snapshot.
        let trace = dir.join("trace.jsonl");
        let metrics = dir.join("metrics.prom");
        call(&argv(&[
            "cube",
            tsv_s,
            "--algo",
            "spcube",
            "--machines",
            "5",
            "--memory",
            "200",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        let (rounds, warnings) = spcube_obs::SpanTree::parse_per_trace(&jsonl).unwrap();
        assert!(warnings.is_empty());
        assert_eq!(rounds.len(), 2, "one flight trace per SP-Cube round");
        for (_, tree) in &rounds {
            tree.validate().unwrap();
            assert_eq!(tree.spans_named(spcube_obs::names::ENGINE_ROUND).len(), 1);
        }
        assert!(std::fs::read_to_string(&metrics)
            .unwrap()
            .contains("spcube_reducer_imbalance"));

        call(&argv(&["cuboid", tsv_s, "--mask", "101", "--top", "3"])).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(call(&argv(&["nope"])).is_err());
        assert!(call(&argv(&["cube"])).is_err());
        assert!(call(&argv(&[
            "generate",
            "--dataset",
            "bogus",
            "--out",
            "/tmp/x"
        ]))
        .is_err());
        assert!(call(&argv(&["help"])).is_ok());
    }

    #[test]
    fn store_and_query_pipeline() {
        let dir = std::env::temp_dir().join(format!("spcube-cli-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tsv = dir.join("data.tsv");
        let tsv_s = tsv.to_str().unwrap();
        call(&argv(&[
            "generate",
            "--dataset",
            "retail",
            "--n",
            "2000",
            "--p",
            "0.3",
            "--seed",
            "11",
            "--out",
            tsv_s,
        ]))
        .unwrap();

        let store_dir = dir.join("store");
        let store_s = store_dir.to_str().unwrap();
        call(&argv(&[
            "build-store",
            tsv_s,
            "--out",
            store_s,
            "--machines",
            "5",
        ]))
        .unwrap();
        assert!(store_dir.join(STORE_PREFIX).join("manifest.cman").exists());

        // Top-k, point, and slice all answer against the on-disk store.
        call(&argv(&["query", store_s, "--mask", "101", "--top", "3"])).unwrap();
        call(&argv(&["query", store_s, "--mask", "000", "--point", ""])).unwrap_err();
        call(&argv(&[
            "query", store_s, "--mask", "001", "--slice", "0=1",
        ]))
        .unwrap();
        // Arity mismatch between --point and the mask is reported.
        let err = call(&argv(&["query", store_s, "--mask", "101", "--point", "1"])).unwrap_err();
        assert!(err.to_string().contains("values"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_compact_query_pipeline() {
        let dir = std::env::temp_dir().join(format!("spcube-cli-inc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store_dir = dir.join("store");
        let store_s = store_dir.to_str().unwrap();

        // Three TSV batches of one relation; ingest them as delta layers.
        let rel = datagen::gen_zipf(900, 3, 0x77);
        for i in 0..3 {
            let mut part = Relation::empty(rel.schema().clone());
            for t in &rel.tuples()[i * 300..(i + 1) * 300] {
                part.push(t.clone()).unwrap();
            }
            let tsv = dir.join(format!("batch{i}.tsv"));
            io::write_tsv_file(&part, tsv.to_str().unwrap()).unwrap();
            call(&argv(&[
                "ingest",
                tsv.to_str().unwrap(),
                "--store",
                store_s,
                "--agg",
                "avg",
            ]))
            .unwrap();
        }
        // The layered store answers the same queries build-store's would.
        call(&argv(&["query", store_s, "--mask", "101", "--top", "3"])).unwrap();

        // Mismatched aggregate on a later batch is a typed error.
        let tsv0 = dir.join("batch0.tsv");
        let err = call(&argv(&[
            "ingest",
            tsv0.to_str().unwrap(),
            "--store",
            store_s,
            "--agg",
            "sum",
        ]))
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "got {err}");

        // Fold the chain down and keep answering.
        call(&argv(&["compact", store_s, "--max-layers", "1"])).unwrap();
        call(&argv(&["query", store_s, "--mask", "011", "--top", "3"])).unwrap();
        // Within policy now: compact again reports nothing to fold.
        call(&argv(&["compact", store_s, "--max-layers", "1"])).unwrap();

        // A clean chain scrubs clean.
        call(&argv(&["scrub", store_s])).unwrap();
        // Rot one sub-cuboid state segment on disk; a check-only pass
        // detects without touching, then a real pass repairs in place.
        let victim = walk_for(&store_dir, "cuboid-011.dseg");
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[13] ^= 0x40;
        std::fs::write(&victim, bytes).unwrap();
        call(&argv(&["scrub", store_s, "--check-only"])).unwrap();
        call(&argv(&["scrub", store_s])).unwrap();
        call(&argv(&["query", store_s, "--mask", "011", "--top", "3"])).unwrap();
        // The full-mask segment has no repair source: scrub exits nonzero.
        let victim = walk_for(&store_dir, "cuboid-111.dseg");
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[13] ^= 0x40;
        std::fs::write(&victim, bytes).unwrap();
        call(&argv(&["scrub", store_s])).unwrap_err();

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Live copy of the blob named `suffix`: the match in the highest
    /// generation directory, skipping quarantine copies and swept orphans.
    fn walk_for(dir: &std::path::Path, suffix: &str) -> std::path::PathBuf {
        let mut hits = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.to_str().is_some_and(|p| {
                    p.ends_with(suffix) && !p.contains(spcube_cubestore::manifest::QUARANTINE_DIR)
                }) {
                    hits.push(path);
                }
            }
        }
        hits.sort();
        hits.pop()
            .unwrap_or_else(|| panic!("no file ending with {suffix} under {}", dir.display()))
    }

    #[test]
    fn cuboid_mask_validation() {
        let dir = std::env::temp_dir().join(format!("spcube-cli-m-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tsv = dir.join("d.tsv");
        call(&argv(&[
            "generate",
            "--dataset",
            "zipf",
            "--n",
            "100",
            "--dims",
            "3",
            "--out",
            tsv.to_str().unwrap(),
        ]))
        .unwrap();
        // Mask with a bit beyond d=3.
        let err = call(&argv(&["cuboid", tsv.to_str().unwrap(), "--mask", "1000"])).unwrap_err();
        assert!(err.to_string().contains("beyond"));
        // Non-binary mask.
        assert!(call(&argv(&["cuboid", tsv.to_str().unwrap(), "--mask", "xyz"])).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
