//! Job identity: the [`JobId`] newtype that names a job's state on the DFS.
//!
//! Every checkpoint, message-log, and global-state path is keyed by the
//! job's tag (`jobs/<tag>/...`), and so are its run-file names and fault-site
//! contexts. The tag is the job's name; jobs that run at the same time on
//! one cluster need distinct names. [`JobId`] implements
//! [`std::fmt::Display`] as the tag so path formatting
//! (`format!("jobs/{job}/gs")`) goes through one choke point.

use std::fmt;

/// Identity of one job: its name, which is also its DFS-facing tag.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId {
    tag: String,
}

impl JobId {
    /// Identity for `name`.
    pub fn new(name: impl Into<String>) -> JobId {
        JobId { tag: name.into() }
    }

    /// The canonical DFS-facing spelling: the job's name.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// Identity of a derived sub-job (a pipeline stage): `<name>-<suffix>`.
    pub fn derive(&self, suffix: &str) -> JobId {
        JobId::new(format!("{}-{suffix}", self.tag))
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.tag)
    }
}

impl From<&str> for JobId {
    fn from(name: &str) -> JobId {
        JobId::new(name)
    }
}

impl From<String> for JobId {
    fn from(name: String) -> JobId {
        JobId::new(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tag_is_the_name() {
        let id = JobId::new("pagerank");
        assert_eq!(id.tag(), "pagerank");
        assert_eq!(id.to_string(), "pagerank");
        assert_eq!(format!("jobs/{id}/gs"), "jobs/pagerank/gs");
    }

    #[test]
    fn derive_appends_the_suffix() {
        let stage = JobId::new("pipe").derive("stage1");
        assert_eq!(stage.tag(), "pipe-stage1");
        assert_ne!(stage, JobId::new("pipe"));
    }

    #[test]
    fn string_conversions_agree() {
        let a: JobId = "cc".into();
        let b: JobId = String::from("cc").into();
        assert_eq!(a, b);
        assert_eq!(a, JobId::new("cc"));
    }
}
