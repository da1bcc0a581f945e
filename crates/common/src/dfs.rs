//! A directory-backed stand-in for HDFS.
//!
//! Pregelix uses a distributed file system for four things (§5.2, §5.5):
//! loading the initial `Vertex` relation, dumping the final result, storing
//! the primary copy of the global state `GS`, and holding checkpoints.
//! [`SimDfs`] provides those four roles on top of a local directory tree:
//! every worker "machine" in the simulated cluster sees the same namespace,
//! and files survive simulated worker failures — exactly the durability
//! property recovery (§5.5) relies on.
//!
//! Writes are atomic (temp file + rename) so a checkpoint is either fully
//! present or absent; a crash mid-checkpoint can never leave a torn file that
//! recovery would trust. The exception is an injected [`fault::Fault::TornWrite`],
//! which deliberately bypasses the rename to model exactly that crash.

use crate::error::{PregelixError, Result};
use crate::fault::{self, Fault, Site};
use crate::stats::ClusterCounters;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Handle to the simulated DFS rooted at a local directory. Cheap to clone;
/// all clones share the namespace.
#[derive(Clone, Debug)]
pub struct SimDfs {
    root: Arc<PathBuf>,
    tmp_seq: Arc<AtomicU64>,
    counters: ClusterCounters,
}

impl SimDfs {
    /// Open (creating if needed) a DFS rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        Self::open_counted(root, ClusterCounters::new())
    }

    /// Open a DFS whose injected-fault events are accounted to `counters`.
    pub fn open_counted(root: impl Into<PathBuf>, counters: ClusterCounters) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(SimDfs {
            root: Arc::new(root),
            tmp_seq: Arc::new(AtomicU64::new(0)),
            counters,
        })
    }

    /// The local directory backing this DFS.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn resolve(&self, path: &str) -> Result<PathBuf> {
        // Reject path escapes: DFS paths are namespace-relative.
        if path.is_empty() || path.starts_with('/') || path.split('/').any(|c| c == "..") {
            return Err(PregelixError::plan(format!("invalid DFS path {path:?}")));
        }
        Ok(self.root.join(path))
    }

    /// Atomically write a whole file, creating parent "directories".
    pub fn write(&self, path: &str, bytes: &[u8]) -> Result<()> {
        let target = self.resolve(path)?;
        if let Some(parent) = target.parent() {
            fs::create_dir_all(parent)?;
        }
        if let Some(f) = fault::hit(Site::DfsWrite, path) {
            self.counters.add_faults_injected(1);
            if let Fault::TornWrite { keep } = f {
                // Model a crash mid-write: a prefix of the payload lands at
                // the destination itself, skipping the temp-file + rename.
                fs::write(&target, &bytes[..keep.min(bytes.len())])?;
            }
            return Err(fault::injected_error(Site::DfsWrite, path));
        }
        let tmp = self.root.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, &target)?;
        Ok(())
    }

    /// Read a whole file.
    pub fn read(&self, path: &str) -> Result<Vec<u8>> {
        if fault::hit(Site::DfsRead, path).is_some() {
            self.counters.add_faults_injected(1);
            return Err(fault::injected_error(Site::DfsRead, path));
        }
        Ok(fs::read(self.resolve(path)?)?)
    }

    /// Read the bytes of `range` of a file, cut short at its end: one split
    /// of a parallel scan. The same fault site as [`SimDfs::read`].
    pub fn read_range(&self, path: &str, range: std::ops::Range<u64>) -> Result<Vec<u8>> {
        if fault::hit(Site::DfsRead, path).is_some() {
            self.counters.add_faults_injected(1);
            return Err(fault::injected_error(Site::DfsRead, path));
        }
        let mut file = fs::File::open(self.resolve(path)?)?;
        file.seek(SeekFrom::Start(range.start))?;
        let mut out = Vec::with_capacity(range.end.saturating_sub(range.start) as usize);
        file.take(range.end.saturating_sub(range.start)).read_to_end(&mut out)?;
        Ok(out)
    }

    /// Whether a file exists at `path`.
    pub fn exists(&self, path: &str) -> bool {
        self.resolve(path).map(|p| p.is_file()).unwrap_or(false)
    }

    /// List the files directly under a directory path, returning their
    /// namespace-relative paths in sorted order. A missing directory lists as
    /// empty.
    pub fn list(&self, dir: &str) -> Result<Vec<String>> {
        let p = self.resolve(dir)?;
        let mut out = Vec::new();
        let entries = match fs::read_dir(&p) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(format!(
                    "{dir}/{}",
                    entry.file_name().to_string_lossy()
                ));
            }
        }
        out.sort();
        Ok(out)
    }

    /// List the subdirectories directly under a directory path, returning
    /// their namespace-relative paths in sorted order. A missing directory
    /// lists as empty. Complements [`SimDfs::list`], which returns only
    /// files — checkpoint and message-log garbage collection walk
    /// per-superstep sub*directories*.
    pub fn list_dirs(&self, dir: &str) -> Result<Vec<String>> {
        let p = self.resolve(dir)?;
        let mut out = Vec::new();
        let entries = match fs::read_dir(&p) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                out.push(format!(
                    "{dir}/{}",
                    entry.file_name().to_string_lossy()
                ));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Delete a single file (no-op if absent).
    pub fn delete(&self, path: &str) -> Result<()> {
        match fs::remove_file(self.resolve(path)?) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Total bytes of the file at `path`, or of every file under it if it
    /// names a directory (recursive). Missing paths size as 0 — garbage
    /// collection uses this to account retired bytes without racing
    /// existence checks.
    pub fn size(&self, path: &str) -> Result<u64> {
        fn walk(p: &Path) -> std::io::Result<u64> {
            let meta = match fs::symlink_metadata(p) {
                Ok(m) => m,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
                Err(e) => return Err(e),
            };
            if meta.is_file() {
                return Ok(meta.len());
            }
            let mut total = 0;
            if meta.is_dir() {
                for entry in fs::read_dir(p)? {
                    total += walk(&entry?.path())?;
                }
            }
            Ok(total)
        }
        Ok(walk(&self.resolve(path)?)?)
    }

    /// Recursively delete a directory subtree (no-op if absent).
    pub fn delete_dir(&self, dir: &str) -> Result<()> {
        let p = self.resolve(dir)?;
        match fs::remove_dir_all(&p) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dfs() -> (SimDfs, tempdir::TempDir) {
        let dir = tempdir::TempDir::new();
        (SimDfs::open(dir.path()).unwrap(), dir)
    }

    /// Minimal self-contained temp dir (avoids adding a tempfile dependency).
    mod tempdir {
        use std::path::{Path, PathBuf};
        use std::sync::atomic::{AtomicU64, Ordering};

        static SEQ: AtomicU64 = AtomicU64::new(0);

        pub struct TempDir(PathBuf);
        impl TempDir {
            pub fn new() -> Self {
                let p = std::env::temp_dir().join(format!(
                    "pregelix-dfs-test-{}-{}",
                    std::process::id(),
                    SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&p).unwrap();
                TempDir(p)
            }
            pub fn path(&self) -> &Path {
                &self.0
            }
        }
        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let (dfs, _d) = tmp_dfs();
        dfs.write("a/b/c.bin", b"hello").unwrap();
        assert_eq!(dfs.read("a/b/c.bin").unwrap(), b"hello");
        assert!(dfs.exists("a/b/c.bin"));
        assert!(!dfs.exists("a/b/missing"));
    }

    #[test]
    fn read_range_stops_at_the_file_end() {
        let (dfs, _d) = tmp_dfs();
        dfs.write("r/f", b"0123456789").unwrap();
        assert_eq!(dfs.read_range("r/f", 2..5).unwrap(), b"234");
        assert_eq!(dfs.read_range("r/f", 8..20).unwrap(), b"89");
        assert!(dfs.read_range("r/f", 12..20).unwrap().is_empty());
        assert!(dfs.read_range("r/missing", 0..1).is_err());
    }

    #[test]
    fn overwrite_is_atomic_replacement() {
        let (dfs, _d) = tmp_dfs();
        dfs.write("gs", b"v1").unwrap();
        dfs.write("gs", b"v2").unwrap();
        assert_eq!(dfs.read("gs").unwrap(), b"v2");
    }

    #[test]
    fn list_returns_sorted_relative_paths() {
        let (dfs, _d) = tmp_dfs();
        dfs.write("ckpt/5/p1", b"").unwrap();
        dfs.write("ckpt/5/p0", b"").unwrap();
        dfs.write("ckpt/5/p2", b"").unwrap();
        assert_eq!(
            dfs.list("ckpt/5").unwrap(),
            vec!["ckpt/5/p0", "ckpt/5/p1", "ckpt/5/p2"]
        );
        assert!(dfs.list("nothing/here").unwrap().is_empty());
    }

    #[test]
    fn delete_dir_removes_subtree() {
        let (dfs, _d) = tmp_dfs();
        dfs.write("ckpt/5/p0", b"x").unwrap();
        dfs.delete_dir("ckpt").unwrap();
        assert!(!dfs.exists("ckpt/5/p0"));
        dfs.delete_dir("ckpt").unwrap(); // idempotent
    }

    #[test]
    fn path_escapes_rejected() {
        let (dfs, _d) = tmp_dfs();
        assert!(dfs.write("../evil", b"x").is_err());
        assert!(dfs.write("/abs", b"x").is_err());
        assert!(dfs.write("a/../../b", b"x").is_err());
        assert!(dfs.write("", b"x").is_err());
    }

    #[test]
    fn injected_faults_fire_at_exact_event_counts() {
        use crate::fault::{self, Fault, FaultPlan, Site};
        let (dfs, _d) = tmp_dfs();
        let guard = fault::exclusive();
        // The "cf/" prefix keeps these scopes disjoint from every path the
        // unguarded tests in this module touch: those may run concurrently
        // while this plan is installed and must never consume a rule.
        let plan = guard.install(
            FaultPlan::new()
                .on(Site::DfsWrite, "cf/ckpt", 2, Fault::TornWrite { keep: 3 })
                .on(Site::DfsRead, "cf/gs", 1, Fault::IoError),
        );
        dfs.write("cf/ckpt/1/p0", b"payload-one").unwrap();
        let err = dfs.write("cf/ckpt/2/p0", b"payload-two").unwrap_err();
        assert!(err.is_recoverable());
        // The torn prefix landed at the destination itself — exactly the file
        // a recovery scan must reject rather than trust.
        assert_eq!(dfs.read("cf/ckpt/2/p0").unwrap(), b"pay");
        assert!(dfs.read("cf/gs").is_err());
        dfs.write("cf/gs", b"fine").unwrap(); // read rule does not affect writes
        assert_eq!(dfs.read("cf/gs").unwrap(), b"fine"); // rule spent
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn clones_share_namespace() {
        let (dfs, _d) = tmp_dfs();
        let other = dfs.clone();
        dfs.write("shared", b"1").unwrap();
        assert_eq!(other.read("shared").unwrap(), b"1");
    }
}
