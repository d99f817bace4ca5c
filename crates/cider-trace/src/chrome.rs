//! Chrome `trace_event` JSON export.
//!
//! Produces the JSON Array Format understood by `chrome://tracing`,
//! Perfetto, and Speedscope: span begin/end pairs become `"B"`/`"E"`
//! events, everything else becomes an instant (`"i"`) event. Timestamps
//! are virtual microseconds (the format's unit), so the viewer's
//! timeline *is* the virtual clock.
//!
//! JSON is emitted by hand — the workspace is offline and needs no serde
//! for a format this small.

use std::fmt::Write as _;

use crate::event::{EventKind, TraceEvent};
use crate::sink::TraceSnapshot;

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Timestamp in (fractional) microseconds, the trace_event unit.
fn ts_us(ts_ns: u64) -> f64 {
    ts_ns as f64 / 1000.0
}

fn phase(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::SpanBegin { .. }
        | EventKind::SyscallEnter { .. }
        | EventKind::DiplomatEnter { .. } => "B",
        EventKind::SpanEnd { .. }
        | EventKind::SyscallExit { .. }
        | EventKind::DiplomatExit { .. } => "E",
        _ => "i",
    }
}

fn args_json(kind: &EventKind) -> String {
    let mut out = String::from("{");
    let field = |out: &mut String, k: &str, v: String| {
        if out.len() > 1 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    };
    match kind {
        EventKind::SyscallEnter { nr, translated } => {
            field(&mut out, "nr", nr.to_string());
            if let Some(t) = translated {
                field(&mut out, "translated", t.to_string());
            }
        }
        EventKind::SyscallExit { nr, ret } => {
            field(&mut out, "nr", nr.to_string());
            field(&mut out, "ret", ret.to_string());
        }
        EventKind::SignalDeliver {
            signal,
            frame_bytes,
        } => {
            field(&mut out, "signal", signal.to_string());
            field(&mut out, "frame_bytes", frame_bytes.to_string());
        }
        EventKind::SignalTranslate { from, to } => {
            field(&mut out, "from", from.to_string());
            field(&mut out, "to", to.to_string());
        }
        EventKind::PersonaSwitch { to_foreign } => {
            field(&mut out, "to_foreign", to_foreign.to_string());
        }
        EventKind::MachMsgSend { msg_id, bytes }
        | EventKind::MachMsgReceive { msg_id, bytes } => {
            field(&mut out, "msg_id", msg_id.to_string());
            field(&mut out, "bytes", bytes.to_string());
        }
        EventKind::DiplomatExit { ok, .. } => {
            field(&mut out, "ok", ok.to_string());
        }
        EventKind::VfsOp { bytes, .. } => {
            field(&mut out, "bytes", bytes.to_string());
        }
        EventKind::PageTableCopy { ptes } => {
            field(&mut out, "ptes", ptes.to_string());
        }
        EventKind::DyldMap { libraries } => {
            field(&mut out, "libraries", libraries.to_string());
        }
        EventKind::DyldHandlers { handlers } => {
            field(&mut out, "handlers", handlers.to_string());
        }
        EventKind::GpuFenceWait { fence, buggy } => {
            field(&mut out, "fence", fence.to_string());
            field(&mut out, "buggy", buggy.to_string());
        }
        EventKind::ContextSwitch { from, to } => {
            field(&mut out, "from", from.to_string());
            field(&mut out, "to", to.to_string());
        }
        EventKind::FaultInjected { seq, .. } => {
            field(&mut out, "seq", seq.to_string());
        }
        EventKind::DiplomatEnter { .. }
        | EventKind::SpanBegin { .. }
        | EventKind::SpanEnd { .. }
        | EventKind::Mark { .. }
        | EventKind::Recovery { .. } => {}
    }
    out.push('}');
    out
}

fn event_json(out: &mut String, e: &TraceEvent) {
    out.push_str("{\"name\":\"");
    escape_into(out, &e.kind.name());
    out.push_str("\",\"cat\":\"");
    out.push_str(e.kind.category());
    let _ = write!(
        out,
        "\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":{},\"tid\":{}",
        phase(&e.kind),
        ts_us(e.ctx.ts_ns),
        e.ctx.pid,
        e.ctx.tid,
    );
    if phase(&e.kind) == "i" {
        // Instant events need a scope; thread scope keeps them on the
        // emitting track.
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"args\":");
    out.push_str(&args_json(&e.kind));
    out.push('}');
}

/// Renders a snapshot as a Chrome trace_event JSON array document.
pub fn export(snapshot: &TraceSnapshot) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",");
    let _ = write!(
        out,
        "\"otherData\":{{\"dropped_events\":\"{}\"}},",
        snapshot.dropped,
    );
    out.push_str("\"traceEvents\":[");
    for (i, e) in snapshot.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        event_json(&mut out, e);
    }
    out.push_str("\n]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceContext;
    use crate::sink::TraceSink;

    fn sample() -> TraceSnapshot {
        let mut sink = TraceSink::enabled(64);
        let ctx = TraceContext {
            ts_ns: 1500,
            pid: 1,
            tid: 2,
            foreign: true,
        };
        sink.record(
            ctx,
            EventKind::SyscallEnter {
                nr: 4,
                translated: Some(397),
            },
        );
        sink.record(
            TraceContext { ts_ns: 2500, ..ctx },
            EventKind::SyscallExit { nr: 4, ret: 13 },
        );
        sink.record(
            TraceContext { ts_ns: 2600, ..ctx },
            EventKind::Mark {
                label: "odd \"label\"\n".into(),
            },
        );
        sink.snapshot().unwrap()
    }

    #[test]
    fn exports_begin_end_pairs_with_args() {
        let json = export(&sample());
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"ph\":\"E\""), "{json}");
        assert!(json.contains("\"translated\":397"), "{json}");
        assert!(json.contains("\"ret\":13"), "{json}");
        assert!(json.contains("\"ts\":1.500"), "{json}");
    }

    #[test]
    fn escapes_quotes_and_newlines() {
        let json = export(&sample());
        assert!(json.contains("odd \\\"label\\\"\\n"), "{json}");
    }

    #[test]
    fn instants_carry_scope() {
        let json = export(&sample());
        assert!(json.contains("\"s\":\"t\""), "{json}");
    }

    #[test]
    fn structure_is_balanced() {
        // Cheap well-formedness proxy without a JSON parser: balanced
        // braces/brackets outside strings.
        let json = export(&sample());
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
