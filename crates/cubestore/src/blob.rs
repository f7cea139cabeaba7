//! Blob storage behind the store.
//!
//! The store reads and writes whole blobs by path, so the backing storage
//! is a small trait: put/get plus the two namespace operations the
//! generational commit protocol needs — listing a prefix (with sizes, so
//! a recovery scan can check segment completeness without fetching) and
//! idempotent deletion (so generation GC converges even if re-issued
//! after a crash). Two implementations ship:
//!
//! * [`Dfs`] — the simulated distributed file system from `mapreduce`.
//!   This is what the SP-Cube driver writes through, so store traffic
//!   shows up in the same `bytes_written` / `bytes_read` accounting as
//!   shuffle traffic, and the DFS fault hooks (`corrupt_byte`,
//!   `corrupt_next_write`) inject segment corruption for tests.
//! * [`DirBlobs`] — a real directory on the local file system, used by the
//!   CLI so a store built in one invocation can be queried in the next.
//!   Its `put` is crash-atomic: bytes land in a temporary file that is
//!   fsynced, renamed over the final name, and sealed with a directory
//!   fsync — a host crash can leave a stale `.tmp` behind but never a
//!   half-written blob under its final name.

use std::fs;
use std::path::{Path, PathBuf};

use spcube_common::sync::assert_unlocked;
use spcube_common::{Error, Result};
use spcube_mapreduce::Dfs;

/// Whole-blob storage by path.
pub trait BlobStore: Send + Sync {
    /// Write `data` at `path`, replacing any previous blob. The write must
    /// be atomic at the blob level where the medium allows it (directory
    /// stores rename into place); on media without atomic replace the
    /// recovery scan in [`crate::recover`] tolerates the torn result.
    fn put(&self, path: &str, data: Vec<u8>) -> Result<()>;

    /// Read the blob at `path`.
    fn get(&self, path: &str) -> Result<Vec<u8>>;

    /// Every blob path under `prefix` with its size in bytes, sorted by
    /// path. A prefix with no blobs lists empty (not an error).
    fn list(&self, prefix: &str) -> Result<Vec<(String, u64)>>;

    /// Remove the blob at `path`. Deleting a missing blob succeeds, so a
    /// GC pass that crashed halfway can simply be re-run.
    fn delete(&self, path: &str) -> Result<()>;
}

impl BlobStore for Dfs {
    fn put(&self, path: &str, data: Vec<u8>) -> Result<()> {
        Dfs::put(self, path, data);
        Ok(())
    }

    fn get(&self, path: &str) -> Result<Vec<u8>> {
        Dfs::get(self, path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<(String, u64)>> {
        Ok(self.list_prefix(prefix))
    }

    fn delete(&self, path: &str) -> Result<()> {
        Dfs::delete(self, path);
        Ok(())
    }
}

/// Suffix of in-flight temporary files below a [`DirBlobs`] root. A crash
/// between temp write and rename leaves one behind; the recovery scan
/// sees it in listings and quarantines it like any other orphan.
pub const TMP_SUFFIX: &str = ".tmp";

/// Blob storage rooted at a local directory; blob paths become relative
/// file paths under it.
#[derive(Debug, Clone)]
pub struct DirBlobs {
    root: PathBuf,
}

impl DirBlobs {
    /// Storage rooted at `root` (created lazily on first write).
    pub fn new(root: impl Into<PathBuf>) -> DirBlobs {
        DirBlobs { root: root.into() }
    }

    /// Resolve a blob path, rejecting escapes from the root.
    fn resolve(&self, path: &str) -> Result<PathBuf> {
        let rel = Path::new(path);
        if rel.is_absolute() || rel.components().any(|c| c.as_os_str() == "..") {
            return Err(Error::Parse(format!(
                "blob path {path:?} escapes the store root"
            )));
        }
        Ok(self.root.join(rel))
    }

    fn walk(&self, dir: &Path, out: &mut Vec<(String, u64)>) -> Result<()> {
        let entries =
            fs::read_dir(dir).map_err(|e| Error::Io(format!("listing {}", dir.display()), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| Error::Io(format!("listing {}", dir.display()), e))?;
            let path = entry.path();
            if path.is_dir() {
                self.walk(&path, out)?;
            } else if let Ok(rel) = path.strip_prefix(&self.root) {
                let blob_path = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                let size = entry
                    .metadata()
                    .map_err(|e| Error::Io(format!("stat {}", path.display()), e))?
                    .len();
                out.push((blob_path, size));
            }
        }
        Ok(())
    }
}

impl BlobStore for DirBlobs {
    /// Crash-atomic: write to `<final>.tmp`, fsync the file, rename over
    /// the final name, fsync the parent directory. Readers either see the
    /// complete old blob or the complete new one, never a torn mix.
    fn put(&self, path: &str, data: Vec<u8>) -> Result<()> {
        assert_unlocked();
        let full = self.resolve(path)?;
        let Some(dir) = full.parent() else {
            return Err(Error::Parse(format!("blob path {path:?} has no parent")));
        };
        fs::create_dir_all(dir)
            .map_err(|e| Error::Io(format!("creating blob directory for {path}"), e))?;
        let mut tmp = full.clone().into_os_string();
        tmp.push(TMP_SUFFIX);
        let tmp = PathBuf::from(tmp);
        {
            use std::io::Write as _;
            let mut f = fs::File::create(&tmp)
                .map_err(|e| Error::Io(format!("creating temp blob for {path}"), e))?;
            f.write_all(&data)
                .map_err(|e| Error::Io(format!("writing temp blob for {path}"), e))?;
            // Order matters: the data must be durable before the rename
            // makes it visible under the final name.
            f.sync_all()
                .map_err(|e| Error::Io(format!("syncing temp blob for {path}"), e))?;
        }
        fs::rename(&tmp, &full).map_err(|e| Error::Io(format!("publishing blob {path}"), e))?;
        // Seal the rename itself: fsync the directory entry.
        fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| Error::Io(format!("syncing blob directory for {path}"), e))
    }

    fn get(&self, path: &str) -> Result<Vec<u8>> {
        assert_unlocked();
        fs::read(self.resolve(path)?).map_err(|e| Error::Io(format!("reading blob {path}"), e))
    }

    fn list(&self, prefix: &str) -> Result<Vec<(String, u64)>> {
        assert_unlocked();
        let dir = self.resolve(prefix)?;
        let mut out = Vec::new();
        if dir.is_dir() {
            self.walk(&dir, &mut out)?;
        }
        out.sort();
        Ok(out)
    }

    fn delete(&self, path: &str) -> Result<()> {
        assert_unlocked();
        match fs::remove_file(self.resolve(path)?) {
            Ok(()) => Ok(()),
            // Idempotent: a missing blob is already deleted.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Error::Io(format!("deleting blob {path}"), e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cubestore-blob-{tag}-{}", std::process::id()))
    }

    #[test]
    fn dfs_blobs_round_trip_and_count_bytes() {
        let dfs = Dfs::new();
        BlobStore::put(&dfs, "store/a", vec![1, 2, 3]).unwrap();
        assert_eq!(BlobStore::get(&dfs, "store/a").unwrap(), vec![1, 2, 3]);
        assert_eq!(dfs.bytes_written(), 3);
        assert!(BlobStore::get(&dfs, "store/missing").is_err());
        assert_eq!(
            BlobStore::list(&dfs, "store").unwrap(),
            vec![("store/a".to_string(), 3)]
        );
        BlobStore::delete(&dfs, "store/a").unwrap();
        BlobStore::delete(&dfs, "store/a").unwrap(); // idempotent
        assert!(BlobStore::list(&dfs, "store").unwrap().is_empty());
    }

    /// The message of the panic `f` raises, if it raises one.
    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        Some(err.downcast_ref::<String>().cloned().unwrap_or_default())
    }

    /// Blob IO under a held lock panics: through `Dfs`, whose own lock
    /// (taken in `mapreduce`) trips the second-lock check, and through
    /// `DirBlobs`, whose methods check before touching the disk. A guard
    /// scoped before the call passes.
    #[cfg(debug_assertions)]
    #[test]
    fn blob_io_under_a_held_lock_panics() {
        use spcube_common::sync::lock_or_recover;
        use std::sync::Mutex;

        let m = Mutex::new(());
        let dfs = Dfs::new();
        let root = temp_root("held");
        let dir = DirBlobs::new(&root);
        let msg = panic_message(|| {
            let _g = lock_or_recover(&m);
            let _ = BlobStore::get(&dfs, "a");
        })
        .expect("Dfs::get under a held lock panics");
        assert!(msg.starts_with("flat lock rule: lock at "), "{msg}");
        assert!(msg.contains("dfs.rs:") && msg.contains("blob.rs:"), "{msg}");

        let msg = panic_message(|| {
            let _g = lock_or_recover(&m);
            let _ = dir.put("a", vec![1]);
        })
        .expect("DirBlobs::put under a held lock panics");
        assert!(
            msg.starts_with("flat lock rule: blocking call at "),
            "{msg}"
        );
        assert_eq!(msg.matches("blob.rs:").count(), 2, "{msg}");
        assert!(dir.list("").unwrap().is_empty(), "nothing was written");

        {
            let _g = lock_or_recover(&m);
        }
        dir.put("a", vec![1]).unwrap();
        assert_eq!(dir.get("a").unwrap(), vec![1]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_blobs_round_trip() {
        let root = temp_root("rt");
        let blobs = DirBlobs::new(&root);
        blobs.put("store/nested/a.bin", vec![9, 8]).unwrap();
        assert_eq!(blobs.get("store/nested/a.bin").unwrap(), vec![9, 8]);
        assert!(blobs.get("store/nope").is_err());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn dir_blobs_put_leaves_no_temp_file_behind() {
        let root = temp_root("atomic");
        let blobs = DirBlobs::new(&root);
        blobs.put("s/a.bin", vec![1; 64]).unwrap();
        blobs.put("s/a.bin", vec![2; 32]).unwrap(); // atomic replace
        assert_eq!(blobs.get("s/a.bin").unwrap(), vec![2; 32]);
        // Only the final name is visible — the temp was renamed away.
        assert_eq!(blobs.list("s").unwrap(), vec![("s/a.bin".to_string(), 32)]);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn dir_blobs_list_walks_recursively_sorted_and_delete_is_idempotent() {
        let root = temp_root("list");
        let blobs = DirBlobs::new(&root);
        blobs.put("s/gen-2/b", vec![0; 2]).unwrap();
        blobs.put("s/gen-1/a", vec![0; 1]).unwrap();
        blobs.put("s/manifest", vec![0; 3]).unwrap();
        assert_eq!(
            blobs.list("s").unwrap(),
            vec![
                ("s/gen-1/a".to_string(), 1),
                ("s/gen-2/b".to_string(), 2),
                ("s/manifest".to_string(), 3),
            ]
        );
        assert!(blobs.list("s/none").unwrap().is_empty());
        blobs.delete("s/gen-1/a").unwrap();
        blobs.delete("s/gen-1/a").unwrap();
        assert_eq!(blobs.list("s/gen-1").unwrap(), Vec::new());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn dir_blobs_reject_escaping_paths() {
        let blobs = DirBlobs::new("/tmp/cubestore-escape-test");
        assert!(blobs.put("../evil", vec![1]).is_err());
        assert!(blobs.get("/etc/hostname").is_err());
        assert!(blobs.list("../up").is_err());
        assert!(blobs.delete("/etc/hostname").is_err());
    }

    #[test]
    fn stranded_temp_file_shows_up_in_listings() {
        // Model the crash window: a temp file exists, the rename never
        // happened. The listing must expose it so recovery can quarantine.
        let root = temp_root("stranded");
        fs::create_dir_all(root.join("s")).unwrap();
        fs::write(root.join("s/a.bin.tmp"), [1, 2, 3]).unwrap();
        let blobs = DirBlobs::new(&root);
        assert_eq!(
            blobs.list("s").unwrap(),
            vec![("s/a.bin.tmp".to_string(), 3)]
        );
        fs::remove_dir_all(&root).ok();
    }
}
