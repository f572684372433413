//! `rexbench`: the repository's one benchmark. See `benchmark/README.md`.

pub mod api;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod reference;
pub mod report;
pub mod server;
pub mod stats;
pub mod trace;
pub mod workloads;
