//! End-to-end benchmark of `pops::flow::optimize_circuit`.
//!
//! * [`workload`] — the three workloads and their seeded inputs;
//! * [`twin`] — a traced twin of the flow loop, for per-layer spans;
//! * [`trace`] — the in-memory span recorder;
//! * [`check`] — the result checks every call must pass.
//!
//! `src/main.rs` runs one workload and prints its metrics; `README.md`
//! says why each workload and metric was chosen.

#![forbid(unsafe_code)]

pub mod check;
pub mod trace;
pub mod twin;
pub mod workload;
