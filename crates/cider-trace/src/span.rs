//! Spans: paired begin/end events that also feed latency histograms.
//!
//! The simulator is single-threaded and its clock is explicit, so a span
//! does not read a clock on drop; the instrumentation site supplies the
//! end timestamp. A [`Span`] that is dropped without [`Span::end`]
//! records nothing further — begin without end is visible in the trace,
//! which is itself a useful signal (a path that never returned).

use std::borrow::Cow;

use crate::event::{EventKind, TraceContext};
use crate::sink::TraceSink;

/// An open span. Create with [`TraceSink::span`]; close with
/// [`Span::end`], passing the virtual time at exit.
#[must_use = "a span records its duration only when ended"]
#[derive(Debug)]
pub struct Span {
    label: Cow<'static, str>,
    ctx: TraceContext,
}

impl Span {
    pub(crate) fn open(
        sink: &mut TraceSink,
        label: Cow<'static, str>,
        ctx: TraceContext,
    ) -> Span {
        sink.record(
            ctx,
            EventKind::SpanBegin {
                label: label.clone(),
            },
        );
        Span { label, ctx }
    }

    /// Virtual time at which the span opened.
    pub fn start_ns(&self) -> u64 {
        self.ctx.ts_ns
    }

    /// The span's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Closes the span at `end_ns` on `sink` (the one that opened it),
    /// emitting the end event and recording the duration in the
    /// histogram named by the label.
    pub fn end(self, sink: &mut TraceSink, end_ns: u64) {
        let dur = end_ns.saturating_sub(self.ctx.ts_ns);
        sink.record(
            TraceContext {
                ts_ns: end_ns,
                ..self.ctx
            },
            EventKind::SpanEnd {
                label: self.label.clone(),
            },
        );
        sink.observe(&self.label, dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_emits_pair_and_histogram() {
        let mut sink = TraceSink::enabled(16);
        let ctx = TraceContext {
            ts_ns: 100,
            pid: 1,
            tid: 2,
            foreign: true,
        };
        let span = sink.span("syscall/foreign/null", ctx);
        assert_eq!(span.start_ns(), 100);
        span.end(&mut sink, 1000);
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.events.len(), 2);
        assert!(matches!(snap.events[0].kind, EventKind::SpanBegin { .. }));
        assert!(matches!(snap.events[1].kind, EventKind::SpanEnd { .. }));
        assert_eq!(snap.events[1].ctx.ts_ns, 1000);
        let h = snap.metrics.histograms.get("syscall/foreign/null").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(900));
    }

    #[test]
    fn disabled_sink_spans_are_inert() {
        let mut sink = TraceSink::disabled();
        let span = sink.span("x", TraceContext::kernel(5));
        span.end(&mut sink, 9);
        assert!(sink.snapshot().is_none());
    }

    #[test]
    fn clock_going_nowhere_records_zero() {
        let mut sink = TraceSink::enabled(16);
        let span = sink.span("z", TraceContext::kernel(50));
        span.end(&mut sink, 50);
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.metrics.histograms.get("z").unwrap().max(), Some(0));
    }
}
