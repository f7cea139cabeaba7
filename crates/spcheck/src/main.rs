//! CLI for the spcheck gate.
//!
//! ```text
//! spcheck [--root <dir>] [--json]
//! spcheck lockgraph [--root <dir>] [--dot]
//! ```
//!
//! The bare form runs the full rule set (R2, R6–R9) and prints findings.
//! `lockgraph` dumps the workspace lock-acquisition graph — every lock
//! class, every may-acquire edge with its source site, and the acyclicity
//! verdict — as text, or as Graphviz DOT with `--dot`.
//!
//! Exit codes: 0 clean/acyclic, 1 findings/cycles, 2 usage or I/O error.
//! `--root` defaults to the current directory (CI runs it from the
//! workspace root via `cargo run -p spcheck`).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut dot = false;
    let mut lockgraph = false;

    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("lockgraph") {
        lockgraph = true;
        argv.next();
    }
    while let Some(arg) = argv.next() {
        match (arg.as_str(), lockgraph) {
            ("--json", false) => json = true,
            ("--dot", true) => dot = true,
            ("--root", _) => {
                let Some(dir) = argv.next() else {
                    eprintln!("spcheck: --root needs a directory");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(dir);
            }
            ("--help" | "-h", _) => {
                println!("usage: spcheck [--root <dir>] [--json]");
                println!("       spcheck lockgraph [--root <dir>] [--dot]");
                println!("exit codes: 0 clean/acyclic, 1 findings/cycles, 2 usage/io error");
                return ExitCode::SUCCESS;
            }
            (other, _) => {
                eprintln!("spcheck: unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let analysis = match spcheck::run_full(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spcheck: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if lockgraph {
        if dot {
            print!("{}", analysis.model.render_dot());
        } else {
            print!("{}", analysis.model.render_text());
        }
        return if analysis.model.cycles().is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let findings = analysis.findings;
    if json {
        print!("{}", spcheck::report::render_json(&findings));
    } else {
        print!("{}", spcheck::report::render_text(&findings));
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
