//! Chrome-trace / Perfetto JSON export over the span ring and the journal.
//!
//! [`export_chrome_trace`] renders the buffered spans as `ph:"X"` complete
//! events and the journal timeline as `ph:"i"` instant events in the
//! Chrome trace-event JSON format, which <https://ui.perfetto.dev> (and
//! `chrome://tracing`) load directly. Both rings are *snapshotted*, not
//! drained — exporting the evidence must not destroy it.
//!
//! The JSON is hand-rolled (the workspace has no serde_json);
//! [`json_is_well_formed`] is the matching minimal syntax checker used by
//! CI and the fault-matrix tests to validate an export without a parser
//! dependency.

use crate::journal::{self, JournalEvent};
use crate::trace::{global_ring, Layer, Outcome, SpanEvent};

/// Append `s` to `out` escaped for the inside of a JSON string literal —
/// the one escaper every hand-rolled JSON writer in the workspace uses.
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Stable small process id per layer, so Perfetto groups spans by stack
/// layer (named via `process_name` metadata events).
fn layer_pid(layer: Layer) -> u32 {
    match layer {
        Layer::Host => 1,
        Layer::Rpc => 2,
        Layer::Dlfm => 3,
        Layer::Minidb => 4,
        Layer::Daemon => 5,
    }
}

/// Render spans + journal events as a Chrome trace-event JSON document.
pub fn chrome_trace(spans: &[SpanEvent], events: &[JournalEvent]) -> String {
    let mut out = String::with_capacity(256 + 160 * (spans.len() + events.len()));
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let push_sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
    };
    // Name the per-layer "processes" so the Perfetto track list reads as
    // the stack: host / rpc / dlfm / minidb / daemon.
    for layer in [Layer::Host, Layer::Rpc, Layer::Dlfm, Layer::Minidb, Layer::Daemon] {
        push_sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            layer_pid(layer),
            layer.as_str()
        ));
    }
    for s in spans {
        push_sep(&mut out, &mut first);
        // One thread track per trace: spans of one statement nest visually.
        let tid = s.trace_id % 1_000_000;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":\"{:016x}\",\
             \"span_id\":\"{:016x}\",\"outcome\":\"{}\"}}}}",
            s.op,
            s.layer.as_str(),
            s.start_micros,
            s.duration.as_micros().max(1),
            layer_pid(s.layer),
            tid,
            s.trace_id,
            s.span_id,
            if s.outcome == Outcome::Ok { "ok" } else { "err" },
        ));
    }
    for e in events {
        push_sep(&mut out, &mut first);
        let tid = e.trace_id % 1_000_000;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"journal\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\
             \"pid\":6,\"tid\":{},\"args\":{{\"txn\":{},\"trace_id\":\"{:016x}\",\"detail\":\"",
            e.kind.as_str(),
            e.micros,
            tid,
            e.txn,
            e.trace_id,
        ));
        json_escape(&e.detail, &mut out);
        out.push_str("\"}}");
    }
    // The journal's own pseudo-process.
    push_sep(&mut out, &mut first);
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":6,\"tid\":0,\
         \"args\":{\"name\":\"journal\"}}",
    );
    out.push_str("]}");
    out
}

/// Export the global span ring and journal as a Chrome trace JSON
/// document (non-destructive snapshots of both).
pub fn export_chrome_trace() -> String {
    chrome_trace(&global_ring().snapshot(), &journal::snapshot())
}

// ---------------------------------------------------------------------
// Multi-process merge (fleet tracing)
// ---------------------------------------------------------------------

/// A finished span received from another process (over the telemetry
/// RPC). Same shape as [`SpanEvent`] but with owned strings: `op` is a
/// `&'static str` locally and cannot cross a process boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteSpan {
    /// Trace id shared with the originating host statement.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id, 0 for roots.
    pub parent_span_id: u64,
    /// Stack layer name (`host`/`rpc`/`dlfm`/`minidb`/`daemon`).
    pub layer: String,
    /// Operation name.
    pub op: String,
    /// Whether the span finished without error.
    pub ok: bool,
    /// Start in the *origin process's* monotonic µs clock.
    pub start_micros: u64,
    /// Duration in µs.
    pub dur_micros: u64,
}

/// Render spans in the line format `parse_span_dump` reads back:
/// `<trace_id:x> <span_id:x> <parent:x> <layer> <ok|err> <start> <dur> <op>`
/// one span per line. This is what the `Spans` telemetry RPC ships — a
/// text format because `SpanEvent::op` is a `&'static str` and the
/// workspace has no serde.
pub fn span_dump(spans: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(64 * spans.len());
    for s in spans {
        out.push_str(&format!(
            "{:016x} {:016x} {:016x} {} {} {} {} {}\n",
            s.trace_id,
            s.span_id,
            s.parent_span_id,
            s.layer.as_str(),
            if s.outcome == Outcome::Ok { "ok" } else { "err" },
            s.start_micros,
            s.duration.as_micros(),
            s.op,
        ));
    }
    out
}

/// Render the global span ring in [`span_dump`] format (non-destructive).
pub fn export_span_dump() -> String {
    span_dump(&global_ring().snapshot())
}

/// Parse a [`span_dump`] document. Malformed lines are skipped, not
/// fatal: a truncated dump from a crashing daemon still yields the spans
/// that survived.
pub fn parse_span_dump(text: &str) -> Vec<RemoteSpan> {
    let mut spans = Vec::new();
    for line in text.lines() {
        let mut parts = line.splitn(8, ' ');
        let parsed = (|| {
            let trace_id = u64::from_str_radix(parts.next()?, 16).ok()?;
            let span_id = u64::from_str_radix(parts.next()?, 16).ok()?;
            let parent_span_id = u64::from_str_radix(parts.next()?, 16).ok()?;
            let layer = parts.next()?.to_string();
            let ok = match parts.next()? {
                "ok" => true,
                "err" => false,
                _ => return None,
            };
            let start_micros = parts.next()?.parse().ok()?;
            let dur_micros = parts.next()?.parse().ok()?;
            let op = parts.next()?.to_string();
            Some(RemoteSpan {
                trace_id,
                span_id,
                parent_span_id,
                layer,
                op,
                ok,
                start_micros,
                dur_micros,
            })
        })();
        if let Some(s) = parsed {
            spans.push(s);
        }
    }
    spans
}

/// One remote process's contribution to a merged fleet trace.
#[derive(Debug, Clone)]
pub struct ProcessTrace {
    /// Display name for the Perfetto process track (e.g. `dlfm[shard0]`).
    pub name: String,
    /// Estimated offset of this process's monotonic clock relative to the
    /// local one, in µs (`local_now ≈ remote_now - offset`); added to each
    /// span's `ts` so all processes share the local timeline.
    pub clock_offset_micros: i64,
    /// The process's finished spans.
    pub spans: Vec<RemoteSpan>,
}

/// Merge the local spans + journal with remote per-process span dumps
/// into ONE Chrome trace JSON document. Local spans keep the per-layer
/// pseudo-processes of [`chrome_trace`]; each remote process gets its own
/// pid (100, 101, …) named via `process_name` metadata, with timestamps
/// shifted onto the local clock by its estimated offset.
pub fn merge_chrome_trace(
    spans: &[SpanEvent],
    events: &[JournalEvent],
    remotes: &[ProcessTrace],
) -> String {
    let local = chrome_trace(spans, events);
    // Splice the remote events into the traceEvents array: drop the
    // closing "]}" and append.
    let mut out = local.strip_suffix("]}").expect("chrome_trace shape").to_string();
    for (i, proc) in remotes.iter().enumerate() {
        let pid = 100 + i as u32;
        out.push(',');
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\""
        ));
        json_escape(&proc.name, &mut out);
        out.push_str("\"}}");
        for s in &proc.spans {
            let ts = (s.start_micros as i64).saturating_add(proc.clock_offset_micros).max(0);
            let tid = s.trace_id % 1_000_000;
            out.push_str(",{\"name\":\"");
            json_escape(&s.op, &mut out);
            out.push_str("\",\"cat\":\"");
            json_escape(&s.layer, &mut out);
            out.push_str(&format!(
                "\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":\"{:016x}\",\
                 \"span_id\":\"{:016x}\",\"outcome\":\"{}\"}}}}",
                ts,
                s.dur_micros.max(1),
                pid,
                tid,
                s.trace_id,
                s.span_id,
                if s.ok { "ok" } else { "err" },
            ));
        }
    }
    out.push_str("]}");
    out
}

/// Minimal JSON well-formedness check: one value, correctly nested
/// structures, valid string/number/literal tokens, nothing trailing.
/// Enough to catch every way hand-rolled emission can go wrong (unescaped
/// quotes, unbalanced brackets, stray commas producing empty members).
pub fn json_is_well_formed(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let ok = parse_value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    ok && pos == bytes.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, b"true"),
        Some(b'f') => parse_literal(b, pos, b"false"),
        Some(b'n') => parse_literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => false,
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b.len() - *pos >= lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return false;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return false;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return false;
        }
    }
    *pos > start
}

fn parse_string(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) != Some(&b'"') {
        return false;
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return false;
                            }
                            *pos += 1;
                        }
                    }
                    _ => return false,
                }
            }
            0x00..=0x1f => return false, // control chars must be escaped
            _ => *pos += 1,
        }
    }
    false // unterminated
}

fn parse_object(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // past '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(b, pos);
        if !parse_string(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return false;
        }
        *pos += 1;
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // past '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return true;
    }
    loop {
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalEvent, JournalKind};
    use std::time::Duration;

    fn span(op: &'static str, layer: Layer, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            seq: 0,
            trace_id: 0xabcd,
            span_id: 1,
            parent_span_id: 0,
            layer,
            op,
            outcome: Outcome::Ok,
            start_micros: start,
            duration: Duration::from_micros(dur),
        }
    }

    fn event(kind: JournalKind, detail: &str) -> JournalEvent {
        JournalEvent {
            seq: 0,
            micros: 42,
            trace_id: 0xabcd,
            txn: 7,
            kind,
            detail: detail.to_string(),
        }
    }

    #[test]
    fn export_is_well_formed_and_carries_both_sources() {
        let spans = [span("stmt", Layer::Host, 10, 300), span("wal_force", Layer::Minidb, 50, 80)];
        let events = [
            event(JournalKind::Deadlock, "txn1 -> txn2 -> txn1, victim txn2"),
            event(JournalKind::FaultFire, "fault point \"rpc.call.drop\"\nfired"),
        ];
        let json = chrome_trace(&spans, &events);
        assert!(json_is_well_formed(&json), "export must be valid JSON: {json}");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"wal_force\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("victim txn2"));
        assert!(json.contains("\\\"rpc.call.drop\\\""), "quotes in details are escaped");
    }

    #[test]
    fn empty_export_is_still_valid() {
        let json = chrome_trace(&[], &[]);
        assert!(json_is_well_formed(&json), "empty export must be valid JSON: {json}");
        assert!(json.contains("traceEvents"));
    }

    #[test]
    fn json_checker_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "{\"a\":[1,2.5,-3e4,true,false,null,\"s\\n\"]}",
            "  {\"traceEvents\":[{\"ts\":1}]} ",
        ] {
            assert!(json_is_well_formed(good), "should accept: {good}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "{'a':1}",
            "{\"a\":1}x",
            "{\"a\":\"unterminated}",
            "{\"a\":01e}",
            "[\"tab\tliteral\"]",
        ] {
            assert!(!json_is_well_formed(bad), "should reject: {bad}");
        }
    }

    #[test]
    fn span_dump_roundtrips_through_parse() {
        let spans =
            [span("stmt", Layer::Host, 10, 300), span("wal_force", Layer::Minidb, 50, 80), {
                let mut s = span("lock_wait", Layer::Minidb, 70, 20);
                s.outcome = Outcome::Err;
                s.parent_span_id = 0x77;
                s
            }];
        let dump = span_dump(&spans);
        let parsed = parse_span_dump(&dump);
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].op, "stmt");
        assert_eq!(parsed[0].layer, "host");
        assert_eq!(parsed[0].trace_id, 0xabcd);
        assert!(parsed[0].ok);
        assert_eq!(parsed[1].dur_micros, 80);
        assert!(!parsed[2].ok);
        assert_eq!(parsed[2].parent_span_id, 0x77);
        // Garbage and truncated lines are skipped, not fatal.
        let messy = format!("not a span line\n{dump}deadbeef 1 2 host ok\n");
        assert_eq!(parse_span_dump(&messy).len(), 3);
    }

    #[test]
    fn merged_trace_is_well_formed_and_aligned() {
        let local = [span("stmt", Layer::Host, 1000, 500)];
        let remote = ProcessTrace {
            name: "dlfm[shard\"0\"]".into(),
            clock_offset_micros: -400,
            spans: vec![RemoteSpan {
                trace_id: 0xabcd,
                span_id: 9,
                parent_span_id: 1,
                layer: "dlfm".into(),
                op: "link_file".into(),
                ok: true,
                start_micros: 1500,
                dur_micros: 100,
            }],
        };
        let json = merge_chrome_trace(&local, &[], &[remote]);
        assert!(json_is_well_formed(&json), "merged export must be valid JSON: {json}");
        assert!(json.contains("\"pid\":100"));
        assert!(json.contains("link_file"));
        assert!(json.contains("\\\"0\\\""), "remote process names are escaped");
        // 1500 - 400 = 1100 on the local clock.
        assert!(json.contains("\"ts\":1100"));
        // A hugely negative offset clamps at 0 instead of emitting a
        // negative timestamp Perfetto rejects.
        let mut neg = ProcessTrace {
            name: "x".into(),
            clock_offset_micros: -1_000_000,
            spans: parse_span_dump(&span_dump(&local)),
        };
        neg.spans[0].start_micros = 10;
        let json = merge_chrome_trace(&[], &[], &[neg]);
        assert!(json_is_well_formed(&json));
        assert!(json.contains("\"ts\":0"));
    }

    #[test]
    fn global_export_includes_live_spans() {
        crate::journal::arm();
        {
            let _s = crate::trace::span(Layer::Daemon, "export_test_span");
        }
        crate::journal::record(JournalKind::Info, 0, || "export test event".into());
        let json = export_chrome_trace();
        assert!(json_is_well_formed(&json));
        assert!(json.contains("export_test_span"));
        assert!(json.contains("export test event"));
        crate::journal::disarm();
    }
}
