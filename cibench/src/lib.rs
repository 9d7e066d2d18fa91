//! End-to-end and per-layer benchmark of the `easeml-ci serve` HTTP gate.
//!
//! One invocation runs one workload against the release server binary,
//! checks every answer, and prints its metrics: the end-to-end ones
//! untraced, or the per-layer ones in a separate traced run (see
//! `README.md` next to this crate).

pub mod client;
pub mod gen;
pub mod layers;
pub mod run;
pub mod scrape;
pub mod server;
pub mod spans;
pub mod stats;
