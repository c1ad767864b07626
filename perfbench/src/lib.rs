//! The benchmark of record for the PREDATOR workspace.
//!
//! Four closed-loop workloads ([`workloads`]), each job checked against an
//! oracle that does not run the timed code path ([`oracle`]), end-to-end
//! metrics from an untraced run and per-layer metrics from a traced run
//! ([`harness`], [`tracer`]). See `README.md` beside this crate.

pub mod gen;
pub mod harness;
pub mod oracle;
pub mod sys;
pub mod tracer;
pub mod workloads;

/// Serializes the tests that allocate tens of MiB: the resident-set test
/// needs the process's memory to stay still while it measures.
#[cfg(test)]
pub(crate) static HEAVY_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());
