//! End-to-end benchmark of ALAE: a live `alae-server` driven over
//! loopback by `alae::client::Client`, plus the in-process batch path.
//! `README.md` beside this package describes the workloads, the metrics
//! and how to read the traces; `src/main.rs` is the command line.

#![forbid(unsafe_code)]

pub mod compare;
pub mod exact;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
