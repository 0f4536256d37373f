//! Structured tracing with cross-layer context propagation.
//!
//! A [`TraceCtx`] is allocated at the host-RDBMS statement boundary
//! ([`span_root`]) and flows with the work: the RPC fabric copies the
//! sender's current context into each envelope and installs it on the
//! child-agent thread, so spans opened in the DLFM agent and in minidb
//! carry the originating statement's `trace_id`.
//!
//! Finished spans are pushed into a global [`Ring`] that keeps the newest
//! events; tests and bench binaries drain it with [`drain_spans`] and
//! assert on what the system actually did.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::entropy;
use crate::ring::Ring;

/// Identity of one traced unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Shared by every span descending from one root (one host statement).
    pub trace_id: u64,
    /// Unique per span.
    pub span_id: u64,
}

impl TraceCtx {
    /// A fresh root context (new trace).
    pub fn root() -> TraceCtx {
        TraceCtx { trace_id: entropy(), span_id: entropy() }
    }

    /// A child context: same trace, new span.
    pub fn child(&self) -> TraceCtx {
        TraceCtx { trace_id: self.trace_id, span_id: entropy() }
    }
}

thread_local! {
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// The context installed on this thread, if any.
pub fn current_ctx() -> Option<TraceCtx> {
    CURRENT.with(|c| c.get())
}

/// Install (or clear) the context on this thread, returning the previous
/// one. The RPC fabric calls this on child-agent threads with the
/// envelope's context.
pub fn set_current_ctx(ctx: Option<TraceCtx>) -> Option<TraceCtx> {
    CURRENT.with(|c| c.replace(ctx))
}

/// Which layer of the stack a span ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Host RDBMS (statement boundary, 2PC coordination).
    Host,
    /// The RPC fabric between host agents and DLFM child agents.
    Rpc,
    /// The DLFM child agent (link/unlink/prepare/commit processing).
    Dlfm,
    /// The local minidb "black box" database.
    Minidb,
    /// Background daemons (copy, delete-group, GC, retrieve, upcall).
    Daemon,
}

impl Layer {
    /// Stable lowercase name (used in logs and metric labels).
    pub fn as_str(&self) -> &'static str {
        match self {
            Layer::Host => "host",
            Layer::Rpc => "rpc",
            Layer::Dlfm => "dlfm",
            Layer::Minidb => "minidb",
            Layer::Daemon => "daemon",
        }
    }
}

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Completed normally.
    Ok,
    /// Completed with an error.
    Err,
}

/// One finished span, as drained from the ring.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Global drain order (monotonic).
    pub seq: u64,
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id, 0 for roots.
    pub parent_span_id: u64,
    /// Stack layer.
    pub layer: Layer,
    /// Operation name (e.g. `LinkFile`, `wal_force`).
    pub op: &'static str,
    /// How the span ended.
    pub outcome: Outcome,
    /// Monotonic microseconds since process start when the span opened
    /// (same clock as the journal, so spans and journal events share one
    /// timeline in the Chrome-trace export).
    pub start_micros: u64,
    /// Wall-clock duration.
    pub duration: Duration,
}

/// Capacity of the global ring ([`global_ring`]).
pub const GLOBAL_RING_CAPACITY: usize = 8192;

/// The process-wide span ring.
pub fn global_ring() -> &'static Ring<SpanEvent> {
    static RING: OnceLock<Ring<SpanEvent>> = OnceLock::new();
    RING.get_or_init(|| Ring::new(GLOBAL_RING_CAPACITY))
}

/// Drain the global ring (oldest first).
pub fn drain_spans() -> Vec<SpanEvent> {
    global_ring().drain()
}

/// RAII span: opens as a child of the thread's current context (or as a
/// fresh root when none is installed), installs itself as current, and on
/// drop records a [`SpanEvent`] and restores the previous context.
pub struct SpanGuard {
    ctx: TraceCtx,
    parent_span_id: u64,
    prev: Option<TraceCtx>,
    /// Set by [`SpanGuard::detach`]: the previous context is already back
    /// in place and drop must leave the thread's context alone.
    detached: bool,
    layer: Layer,
    op: &'static str,
    start: Instant,
    start_micros: u64,
    outcome: Outcome,
}

impl SpanGuard {
    /// The context this span runs under.
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }

    /// Mark the span as failed.
    pub fn fail(&mut self) {
        self.outcome = Outcome::Err;
    }

    /// Stop being the thread's current context — the previous one is
    /// restored now — while the span itself stays open until drop. For
    /// work that outlives the code that started it (a pending RPC): spans
    /// opened in between become siblings of this one, not children.
    pub fn detach(&mut self) {
        if !self.detached {
            set_current_ctx(self.prev);
            self.detached = true;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.detach();
        global_ring().push(|seq| SpanEvent {
            seq,
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_span_id: self.parent_span_id,
            layer: self.layer,
            op: self.op,
            outcome: self.outcome,
            start_micros: self.start_micros,
            duration: self.start.elapsed(),
        });
    }
}

/// Open a span under the current context (child), or as a root when the
/// thread has none.
pub fn span(layer: Layer, op: &'static str) -> SpanGuard {
    match current_ctx() {
        Some(p) => open(p.child(), p.span_id, layer, op),
        None => open(TraceCtx::root(), 0, layer, op),
    }
}

/// Open a root span: always starts a fresh trace, regardless of the
/// thread's current context. The host statement boundary uses this.
pub fn span_root(layer: Layer, op: &'static str) -> SpanGuard {
    open(TraceCtx::root(), 0, layer, op)
}

/// Install `ctx` as the thread's context and start timing its span.
fn open(ctx: TraceCtx, parent_span_id: u64, layer: Layer, op: &'static str) -> SpanGuard {
    SpanGuard {
        ctx,
        parent_span_id,
        prev: set_current_ctx(Some(ctx)),
        detached: false,
        layer,
        op,
        start: Instant::now(),
        start_micros: crate::journal::now_micros(),
        outcome: Outcome::Ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_keeps_trace_id() {
        let root = TraceCtx::root();
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_ne!(child.span_id, root.span_id);
    }

    #[test]
    fn ring_overflow_keeps_newest() {
        let ring: Ring<SpanEvent> = Ring::new(4);
        for i in 0..10u64 {
            ring.push(|seq| SpanEvent {
                seq,
                trace_id: i,
                span_id: i,
                parent_span_id: 0,
                layer: Layer::Host,
                op: "t",
                outcome: Outcome::Ok,
                start_micros: 0,
                duration: Duration::ZERO,
            });
        }
        assert_eq!(ring.dropped(), 6, "overwrites are counted exactly");
        assert_eq!(ring.snapshot().len(), 4, "snapshot is non-destructive");
        let drained = ring.drain();
        assert_eq!(drained.len(), 4);
        let ids: Vec<u64> = drained.iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "only the newest events survive, oldest first");
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.drained(), 4);
        assert!(ring.drain().is_empty(), "drain empties the ring");
    }

    #[test]
    fn span_nesting_restores_context() {
        assert_eq!(current_ctx(), None);
        {
            let outer = span_root(Layer::Host, "outer");
            let outer_ctx = outer.ctx();
            assert_eq!(current_ctx(), Some(outer_ctx));
            {
                let inner = span(Layer::Minidb, "inner");
                assert_eq!(inner.ctx().trace_id, outer_ctx.trace_id, "child shares trace");
                assert_eq!(current_ctx(), Some(inner.ctx()));
            }
            assert_eq!(current_ctx(), Some(outer_ctx), "inner drop restores outer");
        }
        assert_eq!(current_ctx(), None, "root drop clears the thread");
        // The two spans are in the global ring, inner first (it closed
        // first), sharing one trace id.
        let spans = drain_spans();
        let ours: Vec<&SpanEvent> =
            spans.iter().filter(|e| e.op == "inner" || e.op == "outer").collect();
        assert_eq!(ours.len(), 2);
        assert_eq!(ours[0].op, "inner");
        assert_eq!(ours[1].op, "outer");
        assert_eq!(ours[0].trace_id, ours[1].trace_id);
        assert_eq!(ours[0].parent_span_id, ours[1].span_id);
    }

    #[test]
    fn detached_spans_are_siblings_and_leave_the_context_alone() {
        let outer = span_root(Layer::Host, "fanout");
        let mut a = span(Layer::Rpc, "a");
        a.detach();
        assert_eq!(current_ctx(), Some(outer.ctx()), "detach restores the parent at once");
        let mut b = span(Layer::Rpc, "b");
        b.detach();
        assert_eq!(b.parent_span_id, outer.ctx().span_id, "b is a's sibling, not its child");
        assert_eq!(a.parent_span_id, outer.ctx().span_id);
        let outer_ctx = outer.ctx();
        drop(outer);
        drop(a);
        drop(b);
        assert_ne!(current_ctx(), Some(outer_ctx), "a late drop must not reinstall a dead parent");
    }

    #[test]
    fn cross_thread_propagation_via_set_current() {
        let root = TraceCtx::root();
        let handle = std::thread::spawn(move || {
            set_current_ctx(Some(root));
            let s = span(Layer::Dlfm, "remote");
            s.ctx().trace_id
        });
        assert_eq!(handle.join().unwrap(), root.trace_id);
    }
}
