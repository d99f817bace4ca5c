//! Deterministic observability for the Cider simulator.
//!
//! The paper's evaluation (§6.2–6.3) attributes overheads to specific
//! kernel mechanisms — the persona check on syscall entry, the larger XNU
//! sigframe, the dyld handler loops, the two `set_persona` traps inside
//! every diplomatic function. The simulator reproduces those costs on its
//! virtual clock, and this crate makes them *visible*: a ktrace/ftrace
//! style event trace and a metrics registry, both stamped with virtual
//! time, plus exporters (Chrome `trace_event` JSON, flamegraph folded
//! stacks) for offline inspection.
//!
//! The design invariant is **zero virtual cost**: recording an event
//! never advances the virtual clock, never blocks a thread, and never
//! changes scheduling, so every benchmark figure is bit-identical with
//! tracing on or off. A [`TraceSink`] is owned by one kernel and is
//! inert when disabled; instrumentation sites call it unconditionally.
//!
//! # Example
//!
//! ```
//! use cider_trace::{EventKind, TraceContext, TraceSink};
//!
//! let mut sink = TraceSink::enabled(1024);
//! let ctx = TraceContext { ts_ns: 500, pid: 1, tid: 1, foreign: true };
//! sink.record(ctx, EventKind::SyscallEnter { nr: 4, translated: Some(397) });
//! sink.record(
//!     TraceContext { ts_ns: 940, ..ctx },
//!     EventKind::SyscallExit { nr: 4, ret: 0 },
//! );
//! sink.observe("syscall/foreign/write", 440);
//! assert_eq!(sink.snapshot().unwrap().events.len(), 2);
//! ```

pub mod chrome;
pub mod event;
pub mod flame;
pub mod metrics;
pub mod ring;
pub mod sink;
pub mod span;

pub use event::{EventKind, TraceContext, TraceEvent};
pub use metrics::{CounterId, Histogram, Metrics, MetricsSnapshot};
pub use ring::TraceBuffer;
pub use sink::{TraceSink, TraceSnapshot};
pub use span::Span;
