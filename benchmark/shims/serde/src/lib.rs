//! Stand-in for `serde`: the marker trait plus the no-op derive, which is
//! all `use serde::Serialize; #[derive(Serialize)]` needs to compile.

/// Marker with the real trait's name; nothing in the benchmark's dependency
/// closure bounds on it.
pub trait Serialize {}

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;
