//! # secflow-bench
//!
//! Experiment implementations behind the `harness` binary, which prints
//! the EXPERIMENTS.md rows and writes the `BENCH_*.json` blobs. See
//! DESIGN.md §4 for the experiment index E1–E8. End-to-end timing of the
//! CLI as users run it lives in `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::*;
