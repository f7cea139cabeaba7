//! Workspace-wide error type.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the data model, the MapReduce engine, and the cube
/// algorithms built on top of them.
#[derive(Debug)]
pub enum Error {
    /// Schema construction or validation failed.
    Schema(String),
    /// Parsing an external representation (TSV, JSON) failed.
    Parse(String),
    /// An I/O error, carrying context about what was being done.
    Io(String, std::io::Error),
    /// Invalid cluster or algorithm configuration.
    Config(String),
    /// A simulated machine exceeded its memory and the running job declared
    /// that condition fatal (models e.g. Hive reducers going out of memory
    /// on heavily skewed data, Section 6.2 of the paper).
    OutOfMemory {
        /// Which simulated machine failed.
        machine: usize,
        /// Human-readable description of what overflowed.
        detail: String,
    },
    /// A distributed-file-system object was not found.
    DfsMissing(String),
    /// A MapReduce job aborted because a task exhausted its retry budget
    /// (Hadoop kills the job once a task fails `max_attempts` times).
    JobFailed {
        /// Name of the job that aborted.
        job: String,
        /// Phase of the failing task ("map" or "reduce").
        phase: String,
        /// Index of the failing task.
        task: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// Persisted bytes failed structural validation: truncated input, a
    /// count that exceeds the blob, a bad magic/version tag, or a checksum
    /// mismatch. Decoders return this instead of panicking so a serving
    /// path can degrade (re-fetch, recompute) rather than crash.
    Corrupt {
        /// Which artifact was being decoded ("sketch", "segment", …).
        what: String,
        /// What exactly was malformed.
        detail: String,
    },
    /// A broken internal invariant that would previously have been a
    /// panic (`unreachable!`, a missing task slot). Serving paths report
    /// it as a typed error so one bad request cannot take the process down.
    Internal(String),
    /// A deterministic fault injected by a test harness (e.g. the
    /// fault-injecting blob-store wrapper crashing a write mid-commit). Never
    /// raised in production; carried as its own variant so recovery code
    /// cannot mistake an injected crash for real data loss and silently
    /// degrade over it.
    Injected(String),
}

impl Error {
    /// Shorthand for a [`Error::Corrupt`] with formatted context.
    pub fn corrupt(what: impl Into<String>, detail: impl Into<String>) -> Error {
        Error::Corrupt {
            what: what.into(),
            detail: detail.into(),
        }
    }

    /// True when the error indicates damaged or missing persisted state —
    /// the class of failure a reader can recover from by recomputing,
    /// as opposed to I/O or configuration problems it must surface.
    pub fn is_data_loss(&self) -> bool {
        matches!(
            self,
            Error::Corrupt { .. } | Error::Parse(_) | Error::DfsMissing(_)
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Schema(msg) => write!(f, "schema error: {msg}"),
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::Io(what, e) => write!(f, "I/O error while {what}: {e}"),
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
            Error::OutOfMemory { machine, detail } => {
                write!(f, "machine {machine} out of memory: {detail}")
            }
            Error::DfsMissing(path) => write!(f, "DFS object not found: {path}"),
            Error::JobFailed {
                job,
                phase,
                task,
                attempts,
            } => {
                write!(
                    f,
                    "job `{job}`: {phase} task {task} failed {attempts} attempts, giving up"
                )
            }
            Error::Corrupt { what, detail } => {
                write!(f, "corrupt {what}: {detail}")
            }
            Error::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
            Error::Injected(msg) => write!(f, "injected fault: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(_, e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::Schema("dup".into());
        assert_eq!(e.to_string(), "schema error: dup");
        let oom = Error::OutOfMemory {
            machine: 3,
            detail: "group too large".into(),
        };
        assert!(oom.to_string().contains("machine 3"));
        let failed = Error::JobFailed {
            job: "cube".into(),
            phase: "reduce".into(),
            task: 7,
            attempts: 4,
        };
        assert!(failed.to_string().contains("reduce task 7"));
        assert!(failed.to_string().contains("failed 4 attempts"));
    }

    #[test]
    fn corrupt_and_internal_format() {
        let c = Error::corrupt("segment", "declared 9 rows, 3 bytes left");
        assert_eq!(
            c.to_string(),
            "corrupt segment: declared 9 rows, 3 bytes left"
        );
        assert!(c.is_data_loss());
        assert!(Error::Parse("bad".into()).is_data_loss());
        assert!(Error::DfsMissing("p".into()).is_data_loss());
        let i = Error::Internal("slot taken twice".into());
        assert!(i.to_string().contains("slot taken twice"));
        assert!(!i.is_data_loss());
        assert!(!Error::Config("x".into()).is_data_loss());
    }

    #[test]
    fn injected_faults_are_not_data_loss() {
        let e = Error::Injected("crash after op 3".into());
        assert_eq!(e.to_string(), "injected fault: crash after op 3");
        // An injected crash must abort the write loudly, never trigger
        // the silent degrade-recompute path.
        assert!(!e.is_data_loss());
    }

    #[test]
    fn io_error_has_source() {
        use std::error::Error as _;
        let e = Error::Io(
            "reading".into(),
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.source().is_some());
        assert!(Error::Schema("x".into()).source().is_none());
    }
}
