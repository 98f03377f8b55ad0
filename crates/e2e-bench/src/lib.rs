//! `exawind-e2e`: the end-to-end + per-layer benchmark of the ExaWind-RS
//! stack. See `README.md` in this crate and `BENCHMARK.json` at the
//! repository root.

pub mod compare;
pub mod episode;
pub mod measure;
pub mod metrics;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod workload;
