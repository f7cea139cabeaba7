//! A minimal in-memory "distributed file system".
//!
//! The paper's cluster shares a DFS from which the input is read, to which
//! the cube is written, and through which the serialized SP-Sketch is
//! broadcast to every machine before the cube round ("Once computed, the
//! SP-Sketch is stored in the distributed file system, to be later cached
//! by all machines", Section 4.2). This type mirrors those interactions and
//! counts the bytes moved, so sketch-distribution overhead is visible in
//! the experiment reports.
//!
//! For fault testing the DFS can also inject silent corruption: a bit of a
//! stored blob can be flipped on demand ([`Dfs::corrupt_byte`]) or
//! scheduled to flip on the next write to a path
//! ([`Dfs::corrupt_next_write`]), modelling disk bit-rot the reader must
//! detect by checksum.
// Serving path: no panic source outside tests (DESIGN.md §8).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use spcube_common::sync::lock_or_recover;

/// Shared byte-blob store with read/write accounting and corruption
/// injection.
#[derive(Debug, Default)]
pub struct Dfs {
    inner: Mutex<DfsInner>,
}

#[derive(Debug, Default)]
struct DfsInner {
    files: HashMap<String, Vec<u8>>,
    bytes_written: u64,
    bytes_read: u64,
    corrupt_on_write: HashSet<String>,
}

impl Dfs {
    /// An empty DFS.
    pub fn new() -> Dfs {
        Dfs::default()
    }

    /// Store a blob under `path`, replacing any previous content. If
    /// corruption was scheduled for `path`, one bit of the stored copy is
    /// silently flipped (the writer never notices, just like real bit-rot).
    pub fn put(&self, path: &str, mut data: Vec<u8>) {
        let mut inner = lock_or_recover(&self.inner);
        if inner.corrupt_on_write.remove(path) && !data.is_empty() {
            let mid = data.len() / 2;
            if let Some(b) = data.get_mut(mid) {
                *b ^= 0x01;
            }
        }
        inner.bytes_written += data.len() as u64;
        inner.files.insert(path.to_string(), data);
    }

    /// Fetch a copy of the blob at `path`.
    pub fn get(&self, path: &str) -> spcube_common::Result<Vec<u8>> {
        let mut inner = lock_or_recover(&self.inner);
        match inner.files.get(path) {
            Some(data) => {
                let data = data.clone();
                inner.bytes_read += data.len() as u64;
                Ok(data)
            }
            None => Err(spcube_common::Error::DfsMissing(path.to_string())),
        }
    }

    /// Size of the blob at `path`, if present.
    pub fn len_of(&self, path: &str) -> Option<u64> {
        lock_or_recover(&self.inner)
            .files
            .get(path)
            .map(|d| d.len() as u64)
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        lock_or_recover(&self.inner).bytes_written
    }

    /// Total bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        lock_or_recover(&self.inner).bytes_read
    }

    /// Flip the low bit of the byte at `offset` of the blob at `path`
    /// (fault injection for tests). Errors when the blob is missing or
    /// shorter than `offset`.
    pub fn corrupt_byte(&self, path: &str, offset: usize) -> spcube_common::Result<()> {
        let mut inner = lock_or_recover(&self.inner);
        let data = inner
            .files
            .get_mut(path)
            .ok_or_else(|| spcube_common::Error::DfsMissing(path.to_string()))?;
        if offset >= data.len() {
            return Err(spcube_common::Error::Config(format!(
                "corruption offset {offset} beyond blob of {} bytes",
                data.len()
            )));
        }
        if let Some(b) = data.get_mut(offset) {
            *b ^= 0x01;
        }
        Ok(())
    }

    /// Schedule one bit-flip to happen during the *next* write to `path`.
    /// Lets a test corrupt a blob that a driver writes and reads within a
    /// single call.
    pub fn corrupt_next_write(&self, path: &str) {
        lock_or_recover(&self.inner)
            .corrupt_on_write
            .insert(path.to_string());
    }

    /// Every stored path under `prefix` (i.e. equal to it or below
    /// `prefix/`), with blob sizes, sorted by path. An empty prefix lists
    /// everything. Listing is not counted as read traffic — it models a
    /// namespace scan, not a data fetch.
    pub fn list_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        let inner = lock_or_recover(&self.inner);
        let mut out: Vec<(String, u64)> = inner
            .files
            .iter()
            .filter(|(path, _)| {
                prefix.is_empty()
                    || path.as_str() == prefix
                    || path
                        .strip_prefix(prefix)
                        .is_some_and(|rest| rest.starts_with('/'))
            })
            .map(|(path, data)| (path.clone(), data.len() as u64))
            .collect();
        out.sort();
        out
    }

    /// Remove the blob at `path`. Returns whether it existed (deleting a
    /// missing blob is not an error — deletes must be idempotent so a
    /// crashed-and-reissued GC pass converges).
    pub fn delete(&self, path: &str) -> bool {
        lock_or_recover(&self.inner).files.remove(path).is_some()
    }

    /// A deep copy of the current file contents with fresh counters and no
    /// pending corruption. Crash-matrix tests fork a prepared base state
    /// once per schedule instead of rebuilding it from scratch.
    pub fn fork(&self) -> Dfs {
        let inner = lock_or_recover(&self.inner);
        Dfs {
            inner: Mutex::new(DfsInner {
                files: inner.files.clone(),
                ..DfsInner::default()
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let dfs = Dfs::new();
        dfs.put("sketch", vec![1, 2, 3]);
        assert_eq!(dfs.get("sketch").expect("get"), vec![1, 2, 3]);
        assert_eq!(dfs.len_of("sketch"), Some(3));
    }

    #[test]
    fn missing_file_errors() {
        let dfs = Dfs::new();
        assert!(dfs.get("nope").is_err());
        assert_eq!(dfs.len_of("nope"), None);
    }

    #[test]
    fn accounting_counts_reads_and_writes() {
        let dfs = Dfs::new();
        dfs.put("a", vec![0; 10]);
        let _ = dfs.get("a").expect("get");
        let _ = dfs.get("a").expect("get");
        assert_eq!(dfs.bytes_written(), 10);
        assert_eq!(dfs.bytes_read(), 20);
    }

    #[test]
    fn overwrite_replaces() {
        let dfs = Dfs::new();
        dfs.put("a", vec![1]);
        dfs.put("a", vec![2, 3]);
        assert_eq!(dfs.get("a").expect("get"), vec![2, 3]);
        assert_eq!(dfs.bytes_written(), 3);
    }

    #[test]
    fn corrupt_byte_flips_one_bit() {
        let dfs = Dfs::new();
        dfs.put("a", vec![0u8; 4]);
        dfs.corrupt_byte("a", 2).expect("corrupt");
        assert_eq!(dfs.get("a").expect("get"), vec![0, 0, 1, 0]);
        assert!(dfs.corrupt_byte("a", 99).is_err());
        assert!(dfs.corrupt_byte("missing", 0).is_err());
    }

    #[test]
    fn list_prefix_is_sorted_and_boundary_exact() {
        let dfs = Dfs::new();
        dfs.put("store/gen-2/b", vec![1, 2]);
        dfs.put("store/gen-1/a", vec![1]);
        dfs.put("store/manifest", vec![1, 2, 3]);
        dfs.put("storeother/x", vec![9]);
        assert_eq!(
            dfs.list_prefix("store"),
            vec![
                ("store/gen-1/a".to_string(), 1),
                ("store/gen-2/b".to_string(), 2),
                ("store/manifest".to_string(), 3),
            ]
        );
        assert_eq!(dfs.list_prefix("store/gen-1").len(), 1);
        assert_eq!(dfs.list_prefix("").len(), 4);
        assert!(dfs.list_prefix("nope").is_empty());
    }

    #[test]
    fn delete_is_idempotent() {
        let dfs = Dfs::new();
        dfs.put("a", vec![1]);
        assert!(dfs.delete("a"));
        assert!(!dfs.delete("a"));
        assert!(dfs.get("a").is_err());
    }

    #[test]
    fn fork_copies_files_but_not_counters() {
        let dfs = Dfs::new();
        dfs.put("a", vec![1, 2]);
        let _ = dfs.get("a").expect("get");
        let fork = dfs.fork();
        assert_eq!(fork.get("a").expect("get"), vec![1, 2]);
        assert_eq!(fork.bytes_written(), 0);
        // Writes to the fork do not leak back.
        fork.put("b", vec![3]);
        assert!(dfs.get("b").is_err());
    }

    #[test]
    fn scheduled_corruption_hits_next_write_only() {
        let dfs = Dfs::new();
        dfs.corrupt_next_write("a");
        dfs.put("a", vec![0u8; 3]);
        assert_eq!(dfs.get("a").expect("get"), vec![0, 1, 0]);
        // The schedule is consumed; later writes are clean.
        dfs.put("a", vec![0u8; 3]);
        assert_eq!(dfs.get("a").expect("get"), vec![0, 0, 0]);
    }
}
