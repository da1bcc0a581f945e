//! Worker-local page-structured files.
//!
//! A [`FileManager`] owns one simulated machine's local disk: a directory
//! under which page-structured files (B-tree components) and sequential run
//! files live. All page I/O is counted against the shared
//! [`ClusterCounters`] so harnesses can report disk traffic per experiment.

use parking_lot::Mutex;
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::fault::{self, Site};
use pregelix_common::stats::ClusterCounters;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a page-structured file within one worker's [`FileManager`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// Identifier of a page within a file.
pub type PageId = u64;

struct OpenFile {
    file: File,
    /// Number of pages allocated so far (page ids are dense from 0).
    pages: u64,
}

struct Inner {
    root: PathBuf,
    page_size: usize,
    next_file: AtomicU64,
    next_temp: AtomicU64,
    files: Mutex<HashMap<FileId, OpenFile>>,
    counters: ClusterCounters,
}

/// Manages one worker's local page files. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct FileManager {
    inner: Arc<Inner>,
}

impl FileManager {
    /// Create a manager rooted at `root` (created if absent) with the given
    /// page size. `counters` receives disk-traffic accounting.
    pub fn new(root: impl Into<PathBuf>, page_size: usize, counters: ClusterCounters) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FileManager {
            inner: Arc::new(Inner {
                root,
                page_size,
                next_file: AtomicU64::new(0),
                next_temp: AtomicU64::new(0),
                files: Mutex::new(HashMap::new()),
                counters,
            }),
        })
    }

    /// The page size this manager was configured with.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    /// The counter set receiving I/O accounting.
    pub fn counters(&self) -> &ClusterCounters {
        &self.inner.counters
    }

    /// The directory backing this worker's local disk.
    pub fn root(&self) -> &std::path::Path {
        &self.inner.root
    }

    /// Create a new empty page file.
    pub fn create(&self) -> Result<FileId> {
        let id = FileId(self.inner.next_file.fetch_add(1, Ordering::Relaxed));
        let path = self.page_file_path(id);
        let file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)?;
        self.inner
            .files
            .lock()
            .insert(id, OpenFile { file, pages: 0 });
        Ok(id)
    }

    /// Delete a page file, releasing its disk space. Any page guards into the
    /// file must have been dropped (enforced by the buffer cache, which purges
    /// the file's pages first).
    pub fn delete(&self, id: FileId) -> Result<()> {
        let removed = self.inner.files.lock().remove(&id);
        if removed.is_none() {
            return Err(PregelixError::storage(format!("delete of unknown file {id:?}")));
        }
        std::fs::remove_file(self.page_file_path(id))?;
        Ok(())
    }

    /// Number of pages currently allocated in `id`.
    pub fn page_count(&self, id: FileId) -> Result<u64> {
        let files = self.inner.files.lock();
        files
            .get(&id)
            .map(|f| f.pages)
            .ok_or_else(|| PregelixError::storage(format!("unknown file {id:?}")))
    }

    /// Allocate a fresh page at the end of the file, returning its id. The
    /// page contents on disk are unspecified until first written back.
    pub fn allocate_page(&self, id: FileId) -> Result<PageId> {
        let mut files = self.inner.files.lock();
        let f = files
            .get_mut(&id)
            .ok_or_else(|| PregelixError::storage(format!("unknown file {id:?}")))?;
        let page = f.pages;
        f.pages += 1;
        Ok(page)
    }

    /// Read page `page` of file `id` into `buf` (must be page-sized). Pages
    /// that were allocated but never written read back as zeroes.
    pub fn read_page(&self, id: FileId, page: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.inner.page_size);
        if fault::active() {
            let ctx = format!("pf-{}", id.0);
            if fault::hit(Site::PageRead, &ctx).is_some() {
                self.inner.counters.add_faults_injected(1);
                return Err(fault::injected_error(Site::PageRead, &ctx));
            }
        }
        let files = self.inner.files.lock();
        let f = files
            .get(&id)
            .ok_or_else(|| PregelixError::storage(format!("unknown file {id:?}")))?;
        if page >= f.pages {
            return Err(PregelixError::storage(format!(
                "read of unallocated page {page} in {id:?} ({} pages)",
                f.pages
            )));
        }
        let offset = page * self.inner.page_size as u64;
        // A sparse/short read means the page was never flushed: zero-fill.
        let mut read_total = 0;
        while read_total < buf.len() {
            let n = f.file.read_at(&mut buf[read_total..], offset + read_total as u64)?;
            if n == 0 {
                break;
            }
            read_total += n;
        }
        buf[read_total..].fill(0);
        self.inner
            .counters
            .add_disk_read(self.inner.page_size as u64);
        Ok(())
    }

    /// Write page `page` of file `id` from `buf` (must be page-sized).
    pub fn write_page(&self, id: FileId, page: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.inner.page_size);
        if fault::active() {
            let ctx = format!("pf-{}", id.0);
            if fault::hit(Site::PageWrite, &ctx).is_some() {
                self.inner.counters.add_faults_injected(1);
                return Err(fault::injected_error(Site::PageWrite, &ctx));
            }
        }
        let files = self.inner.files.lock();
        let f = files
            .get(&id)
            .ok_or_else(|| PregelixError::storage(format!("unknown file {id:?}")))?;
        if page >= f.pages {
            return Err(PregelixError::storage(format!(
                "write of unallocated page {page} in {id:?}"
            )));
        }
        f.file
            .write_all_at(buf, page * self.inner.page_size as u64)?;
        self.inner
            .counters
            .add_disk_write(self.inner.page_size as u64);
        Ok(())
    }

    /// Path for a fresh sequential temporary file (run files, materialized
    /// channels, `Msg` partitions). The caller owns deletion.
    pub fn temp_file_path(&self, label: &str) -> PathBuf {
        let n = self.inner.next_temp.fetch_add(1, Ordering::Relaxed);
        self.inner.root.join(format!("tmp-{label}-{n}.run"))
    }

    /// The temporary files under the root right now: every `tmp-` file,
    /// whatever its extension — what [`temp_file_path`](Self::temp_file_path)
    /// named, or anything derived from such a name, that nobody has deleted
    /// yet. Between jobs there are none — every temporary run is deleted by
    /// whoever held it when its task ended.
    pub fn temp_files(&self) -> Result<Vec<PathBuf>> {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(&self.inner.root)? {
            let path = entry?.path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if name.starts_with("tmp-") {
                found.push(path);
            }
        }
        found.sort();
        Ok(found)
    }

    fn page_file_path(&self, id: FileId) -> PathBuf {
        self.inner.root.join(format!("pf-{}.dat", id.0))
    }
}

/// A process-unique temporary directory, removed on drop. Used by tests,
/// examples and the cluster simulator for worker-local storage roots.
pub struct TempDir(PathBuf);

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    /// Create a fresh directory under the system temp dir.
    pub fn new(label: &str) -> Result<Self> {
        let p = std::env::temp_dir().join(format!(
            "pregelix-{label}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&p)?;
        Ok(TempDir(p))
    }

    /// The directory path.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fm(page_size: usize) -> (FileManager, TempDir) {
        let dir = TempDir::new("filemgr").unwrap();
        let fm = FileManager::new(dir.path(), page_size, ClusterCounters::new()).unwrap();
        (fm, dir)
    }

    #[test]
    fn page_write_read_roundtrip() {
        let (fm, _d) = fm(128);
        let f = fm.create().unwrap();
        let p0 = fm.allocate_page(f).unwrap();
        let p1 = fm.allocate_page(f).unwrap();
        assert_eq!((p0, p1), (0, 1));
        let page = vec![7u8; 128];
        fm.write_page(f, p1, &page).unwrap();
        let mut out = vec![0u8; 128];
        fm.read_page(f, p1, &mut out).unwrap();
        assert_eq!(out, page);
    }

    #[test]
    fn unwritten_page_reads_zeroes() {
        let (fm, _d) = fm(64);
        let f = fm.create().unwrap();
        fm.allocate_page(f).unwrap();
        let mut out = vec![9u8; 64];
        fm.read_page(f, 0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_bounds_page_rejected() {
        let (fm, _d) = fm(64);
        let f = fm.create().unwrap();
        let mut buf = vec![0u8; 64];
        assert!(fm.read_page(f, 0, &mut buf).is_err());
        assert!(fm.write_page(f, 3, &buf).is_err());
    }

    #[test]
    fn delete_frees_file() {
        let (fm, _d) = fm(64);
        let f = fm.create().unwrap();
        fm.allocate_page(f).unwrap();
        fm.delete(f).unwrap();
        let mut buf = vec![0u8; 64];
        assert!(fm.read_page(f, 0, &mut buf).is_err());
        assert!(fm.delete(f).is_err());
    }

    #[test]
    fn io_is_counted() {
        let (fm, _d) = fm(256);
        let f = fm.create().unwrap();
        fm.allocate_page(f).unwrap();
        let buf = vec![1u8; 256];
        fm.write_page(f, 0, &buf).unwrap();
        let mut out = vec![0u8; 256];
        fm.read_page(f, 0, &mut out).unwrap();
        let s = fm.counters().snapshot();
        assert_eq!(s.disk_write_bytes, 256);
        assert_eq!(s.disk_read_bytes, 256);
    }

    #[test]
    fn temp_paths_are_unique() {
        let (fm, _d) = fm(64);
        let a = fm.temp_file_path("run");
        let b = fm.temp_file_path("run");
        assert_ne!(a, b);
    }

    #[test]
    fn temp_files_are_every_tmp_name_whatever_its_extension() {
        let (fm, _d) = fm(64);
        let run = fm.temp_file_path("msg-rec-p0");
        let sealed = run.with_extension("sealed");
        for path in [&run, &sealed] {
            std::fs::write(path, b"x").unwrap();
        }
        fm.create().unwrap(); // a page file is not temporary
        std::fs::write(fm.root().join("msg-j-p0-1.run"), b"x").unwrap();
        let mut expect = vec![run, sealed];
        expect.sort();
        assert_eq!(fm.temp_files().unwrap(), expect);
    }
}
