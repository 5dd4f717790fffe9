//! Benchmark harness regenerating the paper's evaluation (§6).
//!
//! The DSN 2001 paper's evaluation is *analytical*: it derives message and
//! cryptographic-operation counts per protocol and argues response-time
//! consequences. Each function in [`experiments`] regenerates one of those
//! claims as a measured table (experiment ids T1–T4, F1–F8; see DESIGN.md
//! for the index and EXPERIMENTS.md for paper-vs-measured records).
//!
//! Every experiment runs on the deterministic simulator, so tables are
//! exactly reproducible; [`experiments::EXPERIMENTS`] names them, and the
//! `all_experiments` binary runs them all or the one `--only NAME` picks.
//! Wall-clock measurement of the deployed system is not here: it is
//! `benchmark/` (`bash benchmark/run.sh`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use table::Table;
