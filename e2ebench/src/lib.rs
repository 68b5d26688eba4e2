//! Seeded end-to-end and per-layer benchmark for the parcache simulator.
//!
//! One command runs one workload built from `--seed`, checks every
//! simulated result, and prints every metric with its unit; a separate
//! traced run (`--trace 1`) prints the per-layer metrics. See the
//! directory's README for the workloads, the metrics and which layer
//! metric should move which end-to-end metric.

pub mod alloc;
pub mod check;
pub mod layers;
pub mod run;
pub mod spans;
pub mod workload;
