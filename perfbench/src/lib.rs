//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Drives the public API of the pipeline's crates from one process and
//! one thread, as a closed loop with one client, on three workloads:
//! `paper-exec` (the VM and collector), `bigfn-compile` (the compile
//! layers) and `fuzz-campaign` (many small builds and paranoid
//! collections). See `README.md` in this directory for the metrics and
//! what each one should move.

mod bigfn;
mod paper;
mod pipeline;
mod rng;
mod run;
mod spans;
mod stats;

pub use run::{run, Metric, Report, WORKLOADS};
