//! Chrome-trace / Perfetto JSON export over the span ring and the journal,
//! the span row that crosses a process boundary, and the bundle writer.
//!
//! [`merge_chrome_trace`] renders spans as `ph:"X"` complete events and the
//! journal timeline as `ph:"i"` instant events in the Chrome trace-event
//! JSON format, which <https://ui.perfetto.dev> (and `chrome://tracing`)
//! load directly. Every span, local or pulled from another process, is one
//! [`RemoteSpan`] row written by one emitter; [`chrome_trace`] is the merge
//! with no remote processes. The rings are *snapshotted*, not drained —
//! exporting the evidence must not destroy it.
//!
//! [`write_bundle`] writes a directory of named files: the watchdog's
//! incident bundles and the host's transaction autopsies.

use std::path::Path;

use crate::journal::{self, JournalEvent};
use crate::json::json_escape;
use crate::trace::{global_ring, Layer, Outcome, SpanEvent};

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
    merge_chrome_trace(spans, events, &[])
}

/// Export the global span ring and journal as a Chrome trace JSON
/// document (non-destructive snapshots of both).
pub fn export_chrome_trace() -> String {
    chrome_trace(&global_ring().snapshot(), &journal::snapshot())
}

/// A finished span as an owned row: what the `Spans` telemetry RPC ships
/// between processes ([`parse_span_dump`]) and what every exporter writes
/// from. A local [`SpanEvent`] converts with `From` (its `op` is a
/// `&'static str`, which cannot cross a process boundary).
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

impl From<&SpanEvent> for RemoteSpan {
    fn from(s: &SpanEvent) -> RemoteSpan {
        RemoteSpan {
            trace_id: s.trace_id,
            span_id: s.span_id,
            parent_span_id: s.parent_span_id,
            layer: s.layer.as_str().to_string(),
            op: s.op.to_string(),
            ok: s.outcome == Outcome::Ok,
            start_micros: s.start_micros,
            dur_micros: s.duration.as_micros() as u64,
        }
    }
}

/// Render spans in the line format `parse_span_dump` reads back:
/// `<trace_id:x> <span_id:x> <parent:x> <layer> <ok|err> <start> <dur> <op>`
/// one span per line. This is what the `Spans` telemetry RPC ships — a
/// text format because the workspace has no serde.
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
    text.lines().filter_map(parse_span_line).collect()
}

fn parse_span_line(line: &str) -> Option<RemoteSpan> {
    let mut parts = line.splitn(8, ' ');
    let mut hex = || u64::from_str_radix(parts.next()?, 16).ok();
    let (trace_id, span_id, parent_span_id) = (hex()?, hex()?, hex()?);
    Some(RemoteSpan {
        trace_id,
        span_id,
        parent_span_id,
        layer: parts.next()?.to_string(),
        ok: match parts.next()? {
            "ok" => true,
            "err" => false,
            _ => return None,
        },
        start_micros: parts.next()?.parse().ok()?,
        dur_micros: parts.next()?.parse().ok()?,
        op: parts.next()?.to_string(),
    })
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
/// into ONE Chrome trace JSON document. Local spans sit in per-layer
/// pseudo-processes (host / rpc / dlfm / minidb / daemon), the journal in
/// its own; each remote process gets its own pid (100, 101, …) named via
/// `process_name` metadata, with timestamps shifted onto the local clock
/// by its estimated offset.
pub fn merge_chrome_trace(
    spans: &[SpanEvent],
    events: &[JournalEvent],
    remotes: &[ProcessTrace],
) -> String {
    let mut out = String::with_capacity(256 + 160 * (spans.len() + events.len()));
    out.push_str("{\"traceEvents\":[");
    for layer in [Layer::Host, Layer::Rpc, Layer::Dlfm, Layer::Minidb, Layer::Daemon] {
        push_process(&mut out, layer_pid(layer), layer.as_str());
    }
    for s in spans {
        push_span(&mut out, &RemoteSpan::from(s), layer_pid(s.layer), 0);
    }
    for e in events {
        out.push_str(&format!(
            ",{{\"name\":\"{}\",\"cat\":\"journal\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\
             \"pid\":6,\"tid\":{},\"args\":{{\"txn\":{},\"trace_id\":\"{:016x}\",\"detail\":\"",
            e.kind.as_str(),
            e.micros,
            e.trace_id % 1_000_000,
            e.txn,
            e.trace_id,
        ));
        json_escape(&e.detail, &mut out);
        out.push_str("\"}}");
    }
    push_process(&mut out, 6, "journal");
    for (i, proc) in remotes.iter().enumerate() {
        let pid = 100 + i as u32;
        push_process(&mut out, pid, &proc.name);
        for s in &proc.spans {
            push_span(&mut out, s, pid, proc.clock_offset_micros);
        }
    }
    out.push_str("]}");
    out
}

/// Append a `process_name` metadata event naming `pid` (the first event
/// of the document carries no leading comma).
fn push_process(out: &mut String, pid: u32, name: &str) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\""
    ));
    json_escape(name, out);
    out.push_str("\"}}");
}

/// Append one span as a complete (`"X"`) event under `pid`, its start
/// shifted by `shift_micros` onto the local clock and clamped at 0
/// (Perfetto rejects a negative timestamp). One thread track per trace,
/// so the spans of one statement nest visually.
fn push_span(out: &mut String, s: &RemoteSpan, pid: u32, shift_micros: i64) {
    let ts = (s.start_micros as i64).saturating_add(shift_micros).max(0);
    out.push_str(",{\"name\":\"");
    json_escape(&s.op, out);
    out.push_str("\",\"cat\":\"");
    json_escape(&s.layer, out);
    out.push_str(&format!(
        "\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":{pid},\"tid\":{},\
         \"args\":{{\"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\",\"outcome\":\"{}\"}}}}",
        s.dur_micros.max(1),
        s.trace_id % 1_000_000,
        s.trace_id,
        s.span_id,
        if s.ok { "ok" } else { "err" },
    ));
}

/// Write one bundle: create `dir` and write each `(file name, contents)`
/// into it. Failures are logged under `target`, never fatal — a process
/// must not fall over while reporting that something is wrong. Returns
/// whether the directory could be created.
pub fn write_bundle(target: &str, dir: &Path, files: Vec<(String, String)>) -> bool {
    if let Err(e) = std::fs::create_dir_all(dir) {
        crate::warn!(target, "cannot create bundle directory {}: {e}", dir.display());
        return false;
    }
    for (name, content) in files {
        if let Err(e) = std::fs::write(dir.join(&name), content) {
            crate::warn!(target, "cannot write bundle file {name}: {e}");
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalEvent, JournalKind};
    use crate::json::json_is_well_formed;
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

    /// The `"X"` events of a trace document, each with its `ts` and `pid`
    /// taken out (they differ by process and clock shift).
    fn x_events(doc: &str) -> Vec<(String, u64)> {
        let field = |ev: &str, key: &str| -> (String, u64) {
            let at = ev.find(key).expect("field present") + key.len();
            let len = ev[at..].find(',').unwrap();
            (
                format!("{}{}", &ev[..at - key.len()], &ev[at + len + 1..]),
                ev[at..at + len].parse().unwrap(),
            )
        };
        let body = doc.strip_suffix("]}").expect("a closed document");
        let events = body.split(",{").filter(|e| e.contains("\"ph\":\"X\""));
        events
            .map(|ev| {
                let (ev, ts) = field(ev, "\"ts\":");
                (field(&ev, "\"pid\":").0, ts)
            })
            .collect()
    }

    #[test]
    fn a_span_exports_alike_locally_and_after_the_wire() {
        let spans = [span("stmt", Layer::Host, 1000, 500), {
            let mut s = span("lock_wait", Layer::Minidb, 1200, 0);
            s.outcome = Outcome::Err;
            s
        }];
        let events = [event(JournalKind::Deadlock, "victim txn2")];
        let local = chrome_trace(&spans, &events);
        assert_eq!(local, merge_chrome_trace(&spans, &events, &[]));
        assert!(json_is_well_formed(&local), "{local}");
        let wire = ProcessTrace {
            name: "dlfm[fs1]".into(),
            clock_offset_micros: 250,
            spans: parse_span_dump(&span_dump(&spans)),
        };
        let merged = merge_chrome_trace(&[], &[], &[wire]);
        assert!(json_is_well_formed(&merged), "{merged}");
        let (here, there) = (x_events(&local), x_events(&merged));
        assert_eq!(here.len(), 2);
        assert_eq!(here.len(), there.len());
        for ((l, l_ts), (r, r_ts)) in here.iter().zip(&there) {
            assert_eq!(l, r, "one row, one emitter: only pid and ts differ");
            assert_eq!(l_ts + 250, *r_ts, "the remote copy is shifted by its clock offset");
        }
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
