//! End-to-end and per-layer benchmark of the sweep paths.
//!
//! Two workloads drive the public APIs of `crp-sim` and `crp-fleet` — a
//! Table-1 grid on the serial backend and a paper-scale universe on a
//! warm local fleet — check every table against a scalar-kernel serial
//! reference bit for bit, and report each workload's metrics by name
//! with their units.  The traced run also takes one grid through an
//! in-process `crp-serve` daemon.  See `README.md` in this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grids;
pub mod layers;
pub mod output;
pub mod percentile;
pub mod run;
pub mod spans;
pub mod system;
