//! cider-conform: differential ABI conformance engine.
//!
//! The Cider paper's core claim is that one kernel can faithfully serve
//! three ABIs at once: the translated XNU persona a foreign iOS binary
//! traps into on a Cider kernel, the same trap tables running on a
//! native single-persona XNU kernel, and the domestic Linux persona.
//! This crate checks that claim *differentially*: a seeded grammar
//! synthesizes small syscall/Mach-IPC/psynch/VFS workload programs,
//! each program executes under all three configurations (optionally
//! under a deterministic fault plan), and every observable outcome is
//! diffed — return values and errno conventions, out-of-band data,
//! VFS state, fd-table shape, current directory, and Mach port
//! topology.
//!
//! Generation is coverage-guided: cider-trace per-syscall metrics from
//! the translated run feed back into the generator, which biases the
//! next programs toward dispatch-table entries not yet exercised.
//! Divergent programs are shrunk to minimal reproducers and written to
//! a replayable regression corpus (`tests/corpus/`), together with
//! coverage witnesses — minimal programs that pin each newly reached
//! dispatch entry.
//!
//! Everything is deterministic: the same seed produces byte-identical
//! programs, observations, matrices, and corpus files. There is no
//! wall-clock, no global state, and no platform dependence anywhere in
//! the pipeline.

pub mod bisect;
pub mod corpus;
pub mod diff;
pub mod engine;
pub mod exec;
pub mod grammar;
pub mod shrink;

pub use bisect::{bisect, bisect_pairs, Bisection};
pub use corpus::CorpusEntry;
pub use diff::{compare, DiffReport, Dimension, Divergence};
pub use engine::{run_engine, EngineConfig, EngineReport, Matrix};
pub use exec::{
    execute, ConfigId, ExecOutcome, FinalState, Observation, OpObs,
};
pub use grammar::{generate, Coverage, Op, Program};
pub use shrink::shrink;
