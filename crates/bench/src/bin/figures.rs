//! Regenerate the paper's figures.
//!
//! ```text
//! cargo run --release -p spcube-bench --bin figures -- all
//! cargo run --release -p spcube-bench --bin figures -- fig6 --size 4 --out bench_results
//! ```
//!
//! Experiments: fig4 fig5 fig6 fig7 fig8 naive traffic balance ablations
//! rounds all.
//! CSV series land in the output directory (default `bench_results/`).
//! Serving is measured by the `cubebench` workspace, not here.

use spcube_bench::experiments::{self, ExpConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::default();
    let mut names: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--size" => {
                i += 1;
                cfg.size_factor = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--size needs a number"));
            }
            "--out" => {
                i += 1;
                cfg.out_dir = args
                    .get(i)
                    .map(Into::into)
                    .unwrap_or_else(|| die("--out needs a path"));
            }
            "--quiet" => cfg.verbose = false,
            name if !name.starts_with('-') => names.push(name.to_string()),
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if names.is_empty() {
        names.push("all".into());
    }

    for name in &names {
        let started = spcube_mapreduce::Stopwatch::start();
        match name.as_str() {
            "fig4" => drop(experiments::fig4(&cfg)),
            "fig5" => drop(experiments::fig5(&cfg)),
            "fig6" => drop(experiments::fig6(&cfg)),
            "fig7" => drop(experiments::fig7(&cfg)),
            "fig8" => drop(experiments::fig8(&cfg)),
            "naive" => drop(experiments::naive_traffic(&cfg)),
            "traffic" => drop(experiments::traffic_bounds(&cfg)),
            "balance" => drop(experiments::balance(&cfg)),
            "ablations" => drop(experiments::ablations(&cfg)),
            "rounds" => drop(experiments::rounds(&cfg)),
            "all" => experiments::all(&cfg),
            other => die(&format!(
                "unknown experiment `{other}` (expected fig4..fig8, naive, traffic, balance, ablations, rounds, all)"
            )),
        }
        eprintln!("[{name}] finished in {:.1}s wall", started.seconds());
    }
}

fn die(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2);
}
