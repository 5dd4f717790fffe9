//! Index-selection distributions for load generators.
//!
//! [`pick::Selector`] draws indices uniformly or with zipfian skew, so
//! offered load can be spread evenly or concentrated on a few hot items
//! the way real workloads are. `benchmark/src/gen.rs` draws every key it
//! reads or writes from it. A library with no I/O, so the distribution
//! math is unit-testable without sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pick;
