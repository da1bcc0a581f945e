//! The Hyracks-style storage library (§4 "Access methods", §5.4).
//!
//! Everything Pregelix stores on a worker machine goes through this crate:
//!
//! * [`mod@file`] — per-worker [`file::FileManager`] owning page-structured files
//!   in a worker-local directory (the simulated machine's local disks).
//! * [`cache`] — the [`cache::BufferCache`]: a fixed budget of page frames
//!   with LRU replacement, pin counts and dirty write-back. This is the
//!   *only* path between access methods and disk, which is what makes the
//!   same physical plan run in-memory when the budget is large and
//!   out-of-core when it is small (§5.4).
//! * [`page`] — the slotted-page layout shared by B-tree leaf and interior
//!   pages.
//! * [`btree`] — a B-tree keyed by arbitrary byte strings (Pregelix keys are
//!   8-byte big-endian vids): bulk load, search, the row cursor (ordered
//!   walks and sorted seeks with writes at the cursor), in-place update,
//!   insert with splits, delete.
//! * [`runfile`] — sequential frame-structured temporary files, used for
//!   sort runs, materialized connector channels, and the `Msg` relation.
//! * [`sort`] — an external sort with bounded memory, optional
//!   aggregation-during-sort (the heart of the sort-based group-by), and a
//!   k-way merge over spilled runs.

pub mod btree;
pub mod cache;
pub mod file;
pub mod page;
pub mod runfile;
pub mod sort;

pub use btree::BTree;
pub use cache::BufferCache;
pub use file::{FileId, FileManager};
pub use runfile::{RunReader, RunWriter};
pub use sort::ExternalSorter;
