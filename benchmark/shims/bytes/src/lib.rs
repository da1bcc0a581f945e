//! Empty on purpose: `pregelix-common` lists `bytes` as a dependency but
//! never imports it (its own `common::bytes` superseded the crate).
