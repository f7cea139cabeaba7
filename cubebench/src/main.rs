//! The repository benchmark: the SP-Cube build and the cube store's
//! serving path, with exact percentiles and per-layer attribution.
//!
//! ```text
//! cubebench --workload <build-skew|serve-static> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. An untraced run (`--trace 0`)
//! prints the end-to-end metrics; a traced run (`--trace 1`) repeats the
//! workload with tracing on and prints the per-layer metrics, the traced
//! end-to-end figures, and the tracing overhead. Every answer is checked
//! against a reference outside the timed sections; the last line of
//! standard output is the JSON result, and a wrong answer makes the run
//! exit nonzero. See README.md in this directory.

mod build_skew;
mod layers;
mod report;
mod rounds;
mod serve;
mod serve_static;
mod stats;
mod workload;

use std::process::ExitCode;

use report::{metric_line, record_line, result_line};
use workload::{Output, Params, PassOut};

/// The workloads, by name.
pub const WORKLOADS: [&str; 2] = ["build-skew", "serve-static"];

type PassFn = fn(&Params, bool) -> Result<PassOut, String>;

fn pass_of(workload: &str) -> Option<PassFn> {
    match workload {
        "build-skew" => Some(build_skew::pass),
        "serve-static" => Some(serve_static::pass),
        _ => None,
    }
}

struct Args {
    workload: String,
    params: Params,
}

fn usage() -> String {
    format!(
        "usage: cubebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value `{value}` for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if pass_of(&workload).is_none() {
        return Err(format!("unknown workload `{workload}`\n{}", usage()));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        params: Params {
            seed: seed.unwrap_or(1),
            seconds,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            traced: trace.unwrap_or(false),
            tiny: false,
        },
    })
}

/// The commit the benchmark was built from, when the checkout is a git
/// repository.
fn git_revision() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Run one workload.
pub fn run(workload: &str, p: &Params) -> Result<Output, String> {
    let pass = pass_of(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    workload::run(p, pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { workload, params } = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&workload, &params) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::from(1);
        }
    };
    let mut record = vec![
        ("workload".to_string(), workload.clone()),
        ("seed".to_string(), params.seed.to_string()),
        ("seconds".to_string(), params.seconds.to_string()),
        ("traced".to_string(), params.traced.to_string()),
        ("nproc".to_string(), params.threads.to_string()),
        ("cluster_threads".to_string(), params.threads.to_string()),
        ("server_workers".to_string(), params.threads.to_string()),
        ("clients".to_string(), serve::CLIENTS.to_string()),
        ("git_revision".to_string(), git_revision()),
        ("rustc".to_string(), rustc_version()),
        ("blob_store".to_string(), "in-memory Dfs".to_string()),
    ];
    record.extend(out.record);
    println!("{}", record_line(&record));
    let shown = if params.traced {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for m in shown {
        println!("{}", metric_line(m));
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, shown)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{workload}: {} of {} operations failed",
            out.failed, out.attempted
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    fn tiny(seed: u64, traced: bool) -> Params {
        Params {
            seed,
            seconds: 0.3,
            threads: 2,
            traced,
            tiny: true,
        }
    }

    fn names(list: &[report::Metric]) -> Vec<&str> {
        list.iter().map(|m| m.name.as_str()).collect()
    }

    #[test]
    fn traced_runs_print_exactly_the_registered_sets() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        for workload in WORKLOADS {
            let out = run(workload, &tiny(3, true)).expect("workload runs");
            assert_eq!(names(&out.end_to_end), e2e, "{workload}: end-to-end set");
            assert_eq!(names(&out.per_layer), layers, "{workload}: per-layer set");
            assert_eq!(out.failed, 0, "{workload}: failed operations");
            for m in out.end_to_end.iter().chain(&out.per_layer) {
                assert!(m.value.is_finite(), "{workload}: {} is not finite", m.name);
            }
        }
    }

    #[test]
    fn seeds_change_inputs_and_both_pass_the_gate() {
        let (a, b) = (tiny(1, false), tiny(2, false));
        assert_ne!(build_skew::relation(&a), build_skew::relation(&b));
        assert_ne!(serve_static::relation(&a), serve_static::relation(&b));
        assert_eq!(build_skew::relation(&a), build_skew::relation(&a));
        for workload in WORKLOADS {
            for p in [&a, &b] {
                let out = run(workload, p).expect("workload runs");
                assert!(out.attempted > 0, "{workload}: nothing attempted");
                assert_eq!(
                    out.failed, 0,
                    "{workload} seed {}: failed operations",
                    p.seed
                );
                for m in &out.end_to_end {
                    assert!(m.value > 0.0, "{workload}: {} reads {}", m.name, m.value);
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload serve-static --seed 7 --seconds 2 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(ok.workload, "serve-static");
        assert_eq!(ok.params.seed, 7);
        assert!(ok.params.traced);
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload build-skew --trace 2")).is_err());
        assert!(parse_args(&args("--workload build-skew --seed")).is_err());
        assert!(parse_args(&args("--workload build-skew --seconds 0")).is_err());
    }
}
