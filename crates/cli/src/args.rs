//! Tiny flag parser for the CLI (the workspace's dependency policy has no
//! argument-parsing crate, and the surface here is small).

use std::collections::HashMap;

use spcube_common::{Error, Result};

/// Parsed command line: a subcommand, positional arguments, and `--flag
/// value` / `--switch` options.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["exact-sketch", "quiet", "help", "check-only"];

impl Args {
    /// Parse a raw argument list (without the program name).
    pub fn parse(raw: &[String]) -> Result<Args> {
        let mut args = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let tok = &raw[i];
            if let Some(name) = tok.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    args.switches.push(name.to_string());
                } else {
                    i += 1;
                    let value = raw
                        .get(i)
                        .ok_or_else(|| Error::Config(format!("--{name} needs a value")))?;
                    args.flags.insert(name.to_string(), value.clone());
                }
            } else if args.command.is_empty() {
                args.command = tok.clone();
            } else {
                args.positional.push(tok.clone());
            }
            i += 1;
        }
        Ok(args)
    }

    /// String flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Error::Config(format!("--{name}: cannot parse `{v}`"))),
        }
    }

    /// Required string flag.
    pub fn require(&self, name: &str) -> Result<&str> {
        self.get(name)
            .ok_or_else(|| Error::Config(format!("--{name} is required")))
    }

    /// Boolean switch presence.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn command_positional_and_flags() {
        let a = parse(&["cube", "data.tsv", "--algo", "spcube", "--machines", "8"]);
        assert_eq!(a.command, "cube");
        assert_eq!(a.positional, vec!["data.tsv"]);
        assert_eq!(a.get("algo"), Some("spcube"));
        assert_eq!(a.get_or("machines", 0usize).unwrap(), 8);
        assert_eq!(a.get_or("memory", 42usize).unwrap(), 42);
    }

    #[test]
    fn switches_take_no_value() {
        let a = parse(&["sketch", "--exact-sketch", "data.tsv"]);
        assert!(a.has("exact-sketch"));
        assert_eq!(a.positional, vec!["data.tsv"]);
    }

    #[test]
    fn missing_value_is_an_error() {
        let raw = vec!["cube".to_string(), "--algo".to_string()];
        assert!(Args::parse(&raw).is_err());
    }

    #[test]
    fn bad_parse_is_an_error() {
        let a = parse(&["cube", "--machines", "many"]);
        assert!(a.get_or("machines", 0usize).is_err());
    }

    #[test]
    fn require_reports_flag_name() {
        let a = parse(&["cube"]);
        let err = a.require("algo").unwrap_err();
        assert!(err.to_string().contains("--algo"));
    }
}
