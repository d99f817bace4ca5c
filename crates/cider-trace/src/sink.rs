//! The [`TraceSink`] handle instrumentation sites hold.
//!
//! A sink is either *disabled* — every call is a no-op on a `None`, no
//! allocation — or *enabled*, in which case events land in a
//! [`TraceBuffer`] and metrics in a [`Metrics`] registry. Each kernel
//! owns exactly one sink (`Kernel::trace`); the Cider layer, the loader
//! and the graphics stack record through `&mut Kernel`, never through a
//! handle of their own. Nothing is shared, so a traced kernel is `Send`
//! without a lock and whole devices can run on fleet worker threads.
//!
//! Nothing in this module touches the virtual clock: recording cannot
//! perturb a measurement, which is the subsystem's core invariant.

use std::borrow::Cow;

use crate::event::{EventKind, TraceContext, TraceEvent};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::ring::TraceBuffer;
use crate::span::Span;

/// Default event capacity when callers don't choose one.
pub const DEFAULT_CAPACITY: usize = 64 * 1024;

#[derive(Debug)]
struct TraceState {
    buffer: TraceBuffer,
    metrics: Metrics,
}

/// A single-owner tracing handle; inert when disabled.
#[derive(Debug, Default)]
pub struct TraceSink {
    state: Option<Box<TraceState>>,
}

/// A frozen copy of everything a sink collected.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound.
    pub dropped: u64,
    /// Counter and histogram values.
    pub metrics: MetricsSnapshot,
}

impl TraceSink {
    /// The inert sink: every operation is a no-op.
    pub fn disabled() -> TraceSink {
        TraceSink { state: None }
    }

    /// An active sink retaining up to `capacity` events.
    pub fn enabled(capacity: usize) -> TraceSink {
        TraceSink {
            state: Some(Box::new(TraceState {
                buffer: TraceBuffer::new(capacity),
                metrics: Metrics::new(),
            })),
        }
    }

    /// An active sink with the default capacity.
    pub fn enabled_default() -> TraceSink {
        TraceSink::enabled(DEFAULT_CAPACITY)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Records one event.
    pub fn record(&mut self, ctx: TraceContext, kind: EventKind) {
        if let Some(state) = &mut self.state {
            state.buffer.push(TraceEvent { ctx, kind });
        }
    }

    /// Opens a span labelled `label` at `ctx`.
    pub fn span(
        &mut self,
        label: impl Into<Cow<'static, str>>,
        ctx: TraceContext,
    ) -> Span {
        Span::open(self, label.into(), ctx)
    }

    /// Adds to a named counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(state) = &mut self.state {
            state.metrics.add(name, delta);
        }
    }

    /// Increments a named counter.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Records a histogram observation.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(state) = &mut self.state {
            state.metrics.observe(name, value);
        }
    }

    /// Reads a counter (0 when disabled or absent).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.state {
            Some(state) => state.metrics.counter(name),
            None => 0,
        }
    }

    /// Runs a closure against the live metrics registry, when enabled.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&Metrics) -> R) -> Option<R> {
        self.state.as_ref().map(|s| f(&s.metrics))
    }

    /// Snapshots everything collected so far (`None` when disabled).
    pub fn snapshot(&self) -> Option<TraceSnapshot> {
        self.state.as_ref().map(|state| TraceSnapshot {
            events: state.buffer.to_vec(),
            dropped: state.buffer.dropped(),
            metrics: state.metrics.snapshot(),
        })
    }

    /// Clears collected events and metrics, keeping the sink enabled.
    pub fn clear(&mut self) {
        if let Some(state) = &mut self.state {
            state.buffer.clear();
            state.metrics.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert_and_cheap() {
        let mut sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.record(
            TraceContext::kernel(1),
            EventKind::Mark { label: "x".into() },
        );
        sink.incr("c");
        sink.observe("h", 5);
        assert_eq!(sink.counter("c"), 0);
        assert!(sink.snapshot().is_none());
        assert!(sink.with_metrics(|_| ()).is_none());
    }

    #[test]
    fn enabled_sink_collects_events_and_metrics() {
        let mut sink = TraceSink::enabled(8);
        assert!(sink.is_enabled());
        sink.record(
            TraceContext::kernel(10),
            EventKind::Mark { label: "a".into() },
        );
        sink.incr("clock/charges");
        sink.add("clock/charges", 4);
        sink.observe("lat", 128);
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.metrics.counters["clock/charges"], 5);
        assert_eq!(snap.metrics.histograms["lat"].count(), 1);
    }

    #[test]
    fn clear_keeps_sink_enabled() {
        let mut sink = TraceSink::enabled(4);
        sink.incr("c");
        for i in 0..9 {
            sink.record(
                TraceContext::kernel(i),
                EventKind::Mark { label: "m".into() },
            );
        }
        sink.clear();
        assert!(sink.is_enabled());
        let snap = sink.snapshot().unwrap();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.metrics.counters.len(), 0);
    }
}
