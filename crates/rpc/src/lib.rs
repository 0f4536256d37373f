//! # dlrpc — the agent connection fabric
//!
//! Models the remote-procedure-call mechanism between host-database agents
//! and DLFM agents (paper §2, §3.5). The crate splits into a **protocol
//! core** — [`fabric`] + [`serve`] on the server, [`Connector`] →
//! [`ClientConn`] on the client — and pluggable **transports**:
//!
//! * **in-process** (the default; [`fabric`]) — channels inside one
//!   process, used by tests, benches, and embedded deployments;
//! * **wire** ([`socket`] + [`wire`]) — a length-prefixed frame codec over
//!   real TCP or Unix-domain sockets, many sessions multiplexed per socket,
//!   with [`wire_connector`] dialing out and [`serve_wire`] bridging
//!   accepted sockets into an in-process fabric on the server.
//!
//! Every connection is a **session** with a fabric-assigned id. [`serve`]
//! runs one agent loop: it hands each request to the handler as a
//! [`PoolEvent`] tagged with its session, and a [`PoolEvent::Hangup`] once
//! the session's client is gone, so per-connection state lives behind the
//! handler, keyed by session id. An [`AgentModel`] only decides how the
//! queues between senders and agents are laid out:
//!
//! * **Dedicated** — the paper's process model: the **main daemon** pins
//!   one **child agent** to each session, serving that session's own
//!   queue. In-process the queue is a **rendezvous**, so a sender blocks
//!   until the agent actually issues its message receive. This is
//!   load-bearing — the distributed-deadlock scenario of §4 hinges on "T11
//!   is blocked on message send as the DLFM child is still doing the
//!   commit processing for T1 (and has not issued msg receive)". (A wire
//!   session's queue buffers, so §4's send-blocking semantics are an
//!   in-process property.)
//! * **Pooled** — a fixed set of agents pulls every session's requests
//!   from one shared bounded run queue. The bounded queue is the admission
//!   control: when it stays full past the admission timeout the sender gets
//!   [`RpcError::Overloaded`] instead of queueing unboundedly.
//!
//! Every round trip is split-phase underneath: [`ClientConn::start`] sends
//! and returns a [`PendingCall`], [`PendingCall::wait`] collects the
//! response. [`ClientConn::call`] is the two back to back; a coordinator
//! starts a request on every participant's connection before it waits on
//! any, and pays the slowest one's time instead of the sum.
//! [`ClientConn::post`] is a fire-and-forget send used to model the
//! **asynchronous commit** design the paper rejects.

#![warn(missing_docs)]

pub mod socket;
pub mod wire;

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{
    bounded, Receiver, RecvTimeoutError, SendError, SendTimeoutError, Sender,
};
use obs::trace::{self, Layer, TraceCtx};

pub use socket::{
    serve_wire, set_wire_tracing, wire_tracing, Endpoint, SocketListener, WireAddr, WireServer,
    WireStats,
};
pub use wire::{Reader, Wire, WireError};

/// How often idle agents and the main daemon look at the shutdown flag.
const AGENT_POLL: Duration = Duration::from_millis(20);

/// Sessions a dedicated fabric's main daemon may have waiting for their
/// agent before `connect` blocks.
const ACCEPT_BACKLOG: usize = 64;

/// RPC-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The peer hung up.
    Disconnected,
    /// A timed call did not complete in time.
    Timeout,
    /// The server's run queue stayed full past the admission timeout
    /// (pooled setting only): the request was rejected, not queued.
    Overloaded,
    /// A wire-transport failure: dial error, frame corruption, or a
    /// payload that did not decode.
    Wire(String),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Disconnected => f.write_str("peer disconnected"),
            RpcError::Timeout => f.write_str("rpc timeout"),
            RpcError::Overloaded => f.write_str("server overloaded (run queue full)"),
            RpcError::Wire(msg) => write!(f, "wire transport error: {msg}"),
        }
    }
}

impl std::error::Error for RpcError {}

/// How a fabric lays out the queues between its senders and its agents.
/// Both settings run the same agent loop and hand the handler the same
/// [`PoolEvent`]s; they differ only in which queue a session sends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentModel {
    /// The paper's process model (§2, §3.5): the main daemon pins one agent
    /// to each session, over that session's own queue — a rendezvous
    /// in-process, so a sender blocks until the agent issues its receive.
    /// The §4 synchronous-commit / distributed-deadlock behaviour depends
    /// on it.
    Dedicated,
    /// Session-multiplexed pool: a fixed set of agents pulls every
    /// session's requests from one shared bounded run queue. The bounded
    /// queue is the admission control: requests that cannot be enqueued
    /// within `admission_timeout` are rejected with
    /// [`RpcError::Overloaded`].
    Pooled {
        /// Agent threads in the pool.
        workers: usize,
        /// Capacity of the shared run queue.
        queue_depth: usize,
        /// How long a sender waits for queue space before being rejected.
        admission_timeout: Duration,
    },
}

impl AgentModel {
    /// A pooled model with the default admission timeout (250 ms).
    pub fn pooled(workers: usize, queue_depth: usize) -> AgentModel {
        AgentModel::Pooled { workers, queue_depth, admission_timeout: Duration::from_millis(250) }
    }
}

impl fmt::Display for AgentModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentModel::Dedicated => f.write_str("dedicated (one agent pinned per session)"),
            AgentModel::Pooled { workers, queue_depth, .. } => {
                write!(f, "pooled ({workers} workers, run queue depth {queue_depth})")
            }
        }
    }
}

/// What a connection puts on the wire.
pub(crate) enum Payload<Req> {
    /// An ordinary request.
    Request(Req),
    /// The client endpoint is gone: retire the session's state.
    Hangup,
}

/// Where a response should go. `None` means no reply is expected (posts
/// and hangups). The channel form serves in-process callers; the wire form
/// carries enough to encode a Reply frame back onto the caller's socket.
pub(crate) enum ReplyDest<Resp> {
    /// An in-process caller parked on a channel.
    Chan(Sender<Resp>),
    /// A remote caller parked behind the socket this writes to.
    Wire {
        /// The socket's write half; the answering thread writes the frame.
        writer: Arc<socket::FrameWriter>,
        /// Wire session id (client-facing, not the server-local one).
        session: u64,
        /// Correlation id of the Call being answered.
        corr: u64,
        /// Response serializer, captured where `Resp: Wire` held.
        encode: fn(&Resp, &mut Vec<u8>),
    },
}

/// A reply destination with a safety net: if a wire destination is dropped
/// unconsumed — the serving agent died, or a queued envelope was thrown
/// away at shutdown — a `Disconnected` status Reply is sent so the remote
/// caller fails cleanly instead of hanging. (An in-process caller gets the
/// same for free when its channel sender drops.)
pub(crate) struct ReplyTo<Resp>(pub(crate) Option<ReplyDest<Resp>>);

impl<Resp> Drop for ReplyTo<Resp> {
    fn drop(&mut self) {
        if let Some(ReplyDest::Wire { writer, session, corr, .. }) = self.0.take() {
            let frame = wire::Frame::new(
                wire::FrameKind::Reply,
                session,
                corr,
                vec![wire::status::DISCONNECTED],
            );
            let _ = writer.send(&frame);
        }
    }
}

/// One message in flight. `reply` is empty for posted (fire-and-forget)
/// requests. `ctx` is the sender's trace context, installed on the
/// receiving agent's thread so spans on both sides share one trace id.
/// `session` is the fabric-assigned connection id the handler keys
/// server-side session state by.
pub(crate) struct Envelope<Req, Resp> {
    pub(crate) payload: Payload<Req>,
    pub(crate) reply: ReplyTo<Resp>,
    pub(crate) ctx: Option<TraceCtx>,
    pub(crate) session: u64,
}

impl<Req, Resp> Envelope<Req, Resp> {
    fn hangup(session: u64) -> Self {
        Envelope { payload: Payload::Hangup, reply: ReplyTo(None), ctx: None, session }
    }
}

/// Fabric-wide instrumentation, shared by the connector and every
/// connection created through it. Makes the paper's §4
/// backpressure directly visible: a synchronous commit keeps the child
/// agent busy, so the next sender blocks *on message send* — that is the
/// `send_blocked` gauge.
#[derive(Debug, Default)]
pub struct RpcStats {
    /// Synchronous calls started and not yet answered (gauge).
    pub in_flight: AtomicI64,
    /// Senders currently blocked in a rendezvous send waiting for the
    /// agent to issue its receive (gauge).
    pub send_blocked: AtomicI64,
    /// Synchronous calls issued (counter).
    pub calls: AtomicU64,
    /// Fire-and-forget posts issued (counter).
    pub posts: AtomicU64,
}

impl RpcStats {
    /// Current in-flight synchronous calls.
    pub fn in_flight(&self) -> i64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Senders currently blocked on a rendezvous send.
    pub fn send_blocked(&self) -> i64 {
        self.send_blocked.load(Ordering::Relaxed)
    }

    /// Total synchronous calls issued.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total posts issued.
    pub fn posts(&self) -> u64 {
        self.posts.load(Ordering::Relaxed)
    }
}

/// Instrumentation of one local fabric's agents under either setting:
/// admission and occupancy, shared by the connector, every client
/// connection, and the agent threads.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Agent threads running (gauge): the pool's workers, or one per open
    /// session under [`AgentModel::Dedicated`].
    pub workers: AtomicU64,
    /// Agents currently executing a request (gauge).
    pub busy: AtomicI64,
    /// Requests rejected by admission control (counter; pooled only).
    pub rejects: AtomicU64,
    /// Requests an agent picked up and served (counter).
    pub served: AtomicU64,
    /// Session hangups processed (counter).
    pub hangups: AtomicU64,
}

impl PoolStats {
    /// Agent threads running.
    pub fn workers(&self) -> u64 {
        self.workers.load(Ordering::Relaxed)
    }

    /// Agents currently executing a request.
    pub fn busy(&self) -> i64 {
        self.busy.load(Ordering::Relaxed)
    }

    /// Requests rejected at admission.
    pub fn rejects(&self) -> u64 {
        self.rejects.load(Ordering::Relaxed)
    }

    /// Requests served by the agents.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Hangups processed.
    pub fn hangups(&self) -> u64 {
        self.hangups.load(Ordering::Relaxed)
    }
}

/// Decrements a gauge on drop (covers every exit path, panics included).
struct GaugeGuard<'a>(&'a AtomicI64);

impl<'a> GaugeGuard<'a> {
    fn enter(gauge: &'a AtomicI64) -> GaugeGuard<'a> {
        gauge.fetch_add(1, Ordering::Relaxed);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Admission control on a shared run queue: how long to wait for space
/// before rejecting, and where to count rejects.
struct Admission {
    timeout: Duration,
    pool: Arc<PoolStats>,
}

/// The sending end of one session on a local fabric: the session's own
/// pinned queue (dedicated), or a handle on the shared run queue with its
/// admission bound (pooled). In-process client connections and the wire
/// bridge both send through it.
pub(crate) struct SessionTx<Req, Resp> {
    tx: Sender<Envelope<Req, Resp>>,
    admission: Option<Admission>,
}

impl<Req, Resp> SessionTx<Req, Resp> {
    /// Queue one envelope: block until the pinned agent has room for it,
    /// or wait at most the admission timeout for room in the run queue. A
    /// timeout is an admission reject, counted and journaled here.
    pub(crate) fn send(
        &self,
        env: Envelope<Req, Resp>,
    ) -> Result<(), SendTimeoutError<Envelope<Req, Resp>>> {
        let Some(adm) = &self.admission else {
            return self.tx.send(env).map_err(|SendError(env)| SendTimeoutError::Disconnected(env));
        };
        self.tx.send_timeout(env, adm.timeout).inspect_err(|e| {
            if let SendTimeoutError::Timeout(_) = e {
                adm.pool.rejects.fetch_add(1, Ordering::Relaxed);
                let timeout = adm.timeout;
                obs::journal::record(obs::journal::JournalKind::PoolReject, 0, || {
                    format!("admission reject: run queue full past {timeout:?}")
                });
            }
        })
    }

    /// Tell the agents `session` is over, now.
    fn hangup(&self, session: u64) {
        let _ = self.send(Envelope::hangup(session));
    }

    /// End `session` as this sender goes away. A run queue outlives every
    /// session on it, so it needs an explicit hangup; a pinned queue closes
    /// when this sender drops, which its agent reads as the same hangup.
    pub(crate) fn close(&self, session: u64) {
        if self.admission.is_some() {
            self.hangup(session);
        }
    }
}

/// Serializer function pointers a wire connection carries, captured at
/// connector construction where `Req: Wire` and `Resp: Wire` held — so
/// `ClientConn` itself needs no `Wire` bounds.
pub(crate) struct WireVt<Req, Resp> {
    encode_req: fn(&Req, &mut Vec<u8>),
    decode_resp: fn(&[u8]) -> Result<Resp, WireError>,
}

impl<Req, Resp> Clone for WireVt<Req, Resp> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<Req, Resp> Copy for WireVt<Req, Resp> {}

pub(crate) fn encode_val<T: Wire>(v: &T, out: &mut Vec<u8>) {
    v.encode(out)
}

pub(crate) fn decode_val<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    T::decode(&mut r)
}

/// Which transport a [`ClientConn`] speaks.
enum ConnInner<Req, Resp> {
    /// In-process channels, through this session's sender.
    Local(SessionTx<Req, Resp>),
    /// A session multiplexed over a shared socket.
    Wire { mux: Arc<socket::Mux>, vt: WireVt<Req, Resp> },
}

/// Client side of one connection (held by a host-database agent).
pub struct ClientConn<Req, Resp> {
    inner: ConnInner<Req, Resp>,
    stats: Arc<RpcStats>,
    session: u64,
    /// Set once the `rpc.call.disconnect` fault fires: the endpoint then
    /// behaves like a real peer disconnect (server saw a hangup, every
    /// later use fails) instead of a one-off error on a healthy channel.
    severed: AtomicBool,
}

impl<Req, Resp> ClientConn<Req, Resp> {
    fn envelope(&self, payload: Payload<Req>, reply: ReplyTo<Resp>) -> Envelope<Req, Resp> {
        Envelope { payload, reply, ctx: trace::current_ctx(), session: self.session }
    }

    /// The fabric-assigned session id of this connection.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Does this connection cross a real socket (vs in-process channels)?
    pub fn is_wire(&self) -> bool {
        matches!(self.inner, ConnInner::Wire { .. })
    }

    /// Tear the connection down as an injected disconnect: notify the
    /// server exactly like a dropped client (so it retires the session's
    /// state — open transactions roll back, locks release) and make every
    /// later use of this endpoint fail with [`RpcError::Disconnected`].
    fn sever(&self) {
        if !self.severed.swap(true, Ordering::Relaxed) {
            match &self.inner {
                ConnInner::Local(tx) => tx.hangup(self.session),
                ConnInner::Wire { mux, .. } => mux.hangup(self.session),
            }
        }
    }

    fn is_severed(&self) -> bool {
        self.severed.load(Ordering::Relaxed)
    }

    /// Send one envelope over the local transport.
    fn send_env(
        &self,
        tx: &SessionTx<Req, Resp>,
        env: Envelope<Req, Resp>,
    ) -> Result<(), RpcError> {
        let _blocked = GaugeGuard::enter(&self.stats.send_blocked);
        tx.send(env).map_err(|e| match e {
            SendTimeoutError::Timeout(_) => RpcError::Overloaded,
            SendTimeoutError::Disconnected(_) => RpcError::Disconnected,
        })
    }

    /// Send a request and return without waiting for the response: the
    /// first half of every round trip. The agent has *received* the request
    /// when this returns (dedicated setting), it has been admitted to the
    /// run queue (pooled setting, bounded by the admission timeout — may
    /// fail with [`RpcError::Overloaded`]), or it has been written to the
    /// socket (wire transport). Starting calls on several connections and
    /// only then waiting on each overlaps their service times.
    ///
    /// The call's rpc span opens here and closes when the [`PendingCall`]
    /// is waited on or dropped. It is the context the request carries to
    /// the agent, but it stops being the *thread's* context when `start`
    /// returns, so overlapping calls are siblings under the caller's span.
    ///
    /// Fault points (`obs::fault`, no-ops unless a test arms them) on the
    /// in-process transport: `rpc.call.disconnect` severs the connection
    /// for good — the server observes a hangup (and rolls the session
    /// back) and every later use of this endpoint fails;
    /// `rpc.call.overloaded` fails the call before the send;
    /// `rpc.call.drop` loses the request on the wire (the server never
    /// sees it, the caller observes a timeout); `rpc.call.delay` stalls
    /// delivery; `rpc.call.duplicate` delivers the request twice — the
    /// caller takes the first response, which is exactly how a
    /// retried-after-lost-ack message looks to the server. The socket
    /// transport has its own packet-level points (`rpc.wire.*`, see
    /// [`socket`]) injected where the frame is written instead.
    pub fn start(&self, req: Req) -> Result<PendingCall<Resp>, RpcError>
    where
        Req: Clone,
    {
        let mut span = trace::span(Layer::Rpc, "call");
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        let in_flight = InFlight::enter(&self.stats);
        let reply = self.send_request(req).inspect_err(|_| span.fail())?;
        span.detach();
        Ok(PendingCall { reply, span, _in_flight: in_flight })
    }

    fn send_request(&self, req: Req) -> Result<Reply<Resp>, RpcError>
    where
        Req: Clone,
    {
        match &self.inner {
            ConnInner::Wire { mux, vt } => {
                if self.is_severed() {
                    return Err(RpcError::Disconnected);
                }
                let mut payload = Vec::new();
                (vt.encode_req)(&req, &mut payload);
                let parked = mux.start(wire::FrameKind::Call, self.session, payload)?;
                Ok(Reply::Wire { parked, decode: vt.decode_resp })
            }
            ConnInner::Local(tx) => {
                if self.is_severed() || obs::fault::fire("rpc.call.disconnect") {
                    self.sever();
                    return Err(RpcError::Disconnected);
                }
                if obs::fault::fire("rpc.call.overloaded") {
                    return Err(RpcError::Overloaded);
                }
                if obs::fault::fire("rpc.call.drop") {
                    return Err(RpcError::Timeout);
                }
                if obs::fault::fire("rpc.call.delay") {
                    std::thread::sleep(Duration::from_millis(2));
                }
                // The duplicate's reply needs buffer space: the agent
                // serves both deliveries, and its second ReplySlot::send
                // must never block on a caller that already returned with
                // the first response.
                let duplicate = obs::fault::fire("rpc.call.duplicate");
                let (rtx, rrx) = bounded(if duplicate { 2 } else { 1 });
                let dup_env = duplicate.then(|| {
                    self.envelope(
                        Payload::Request(req.clone()),
                        ReplyTo(Some(ReplyDest::Chan(rtx.clone()))),
                    )
                });
                let env = self.envelope(Payload::Request(req), ReplyTo(Some(ReplyDest::Chan(rtx))));
                self.send_env(tx, env)?;
                if let Some(env) = dup_env {
                    let _ = self.send_env(tx, env);
                }
                Ok(Reply::Local(rrx))
            }
        }
    }

    /// Synchronous call: blocks until the agent receives the request
    /// *and* sends the response ([`Self::start`], then wait).
    pub fn call(&self, req: Req) -> Result<Resp, RpcError>
    where
        Req: Clone,
    {
        self.start(req)?.wait(None)
    }

    /// Synchronous call with a deadline on the response. The send is
    /// [`Self::start`]'s: on the in-process transport it still blocks until
    /// the agent issues its receive (rendezvous) or the admission timeout
    /// rejects it (pooled); only the response wait is bounded by `timeout`.
    pub fn call_timeout(&self, req: Req, timeout: Duration) -> Result<Resp, RpcError>
    where
        Req: Clone,
    {
        self.start(req)?.wait(Some(timeout))
    }

    /// Fire-and-forget post: returns as soon as the agent *receives* the
    /// request (dedicated setting), it is admitted to the run queue (pooled
    /// setting), or it has been written to the socket (wire transport),
    /// without waiting for processing (the unsafe asynchronous commit mode
    /// of §4).
    pub fn post(&self, req: Req) -> Result<(), RpcError> {
        self.stats.posts.fetch_add(1, Ordering::Relaxed);
        if self.is_severed() {
            return Err(RpcError::Disconnected);
        }
        match &self.inner {
            ConnInner::Wire { mux, vt } => {
                let mut payload = Vec::new();
                (vt.encode_req)(&req, &mut payload);
                mux.post(self.session, payload)
            }
            ConnInner::Local(tx) => {
                let env = self.envelope(Payload::Request(req), ReplyTo(None));
                self.send_env(tx, env)
            }
        }
    }

    /// Liveness probe. On the socket transport this is a wire-level
    /// Ping/Pong round trip — it proves the socket, both reader threads, and
    /// the server bridge are alive without touching any agent. In-process
    /// connections are alive by construction, so this is a no-op there.
    pub fn ping(&self, timeout: Duration) -> Result<(), RpcError> {
        if self.is_severed() {
            return Err(RpcError::Disconnected);
        }
        match &self.inner {
            ConnInner::Local(_) => Ok(()),
            ConnInner::Wire { mux, .. } => mux
                .start(wire::FrameKind::Ping, self.session, Vec::new())?
                .wait(Some(timeout))
                .map(|_| ()),
        }
    }

    /// Fabric-wide instrumentation (shared with the connector).
    pub fn stats(&self) -> &Arc<RpcStats> {
        &self.stats
    }
}

impl<Req, Resp> Drop for ClientConn<Req, Resp> {
    fn drop(&mut self) {
        // The server must learn the client is gone so it can retire this
        // session's state (roll back the open transaction, release locks).
        // Wire sessions share a socket, so they send a Hangup frame; local
        // ones close their session sender. Best-effort everywhere — if the
        // transport is already dead the server-side cleanup ran (or runs)
        // through its own teardown. A severed connection already delivered
        // its hangup.
        if self.is_severed() {
            return;
        }
        match &self.inner {
            ConnInner::Local(tx) => tx.close(self.session),
            ConnInner::Wire { mux, .. } => mux.hangup(self.session),
        }
    }
}

/// Where a started call's response will arrive.
enum Reply<Resp> {
    /// The in-process reply channel.
    Local(Receiver<Resp>),
    /// A slot in the socket multiplexer, plus the response deserializer.
    Wire { parked: socket::Parked, decode: fn(&[u8]) -> Result<Resp, WireError> },
}

/// Holds the `in_flight` gauge up for as long as a call is unanswered.
struct InFlight(Arc<RpcStats>);

impl InFlight {
    fn enter(stats: &Arc<RpcStats>) -> InFlight {
        stats.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlight(stats.clone())
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Wait on a one-shot reply channel, forever or for at most `timeout`.
pub(crate) fn recv_reply<T>(rx: &Receiver<T>, timeout: Option<Duration>) -> Result<T, RpcError> {
    match timeout {
        None => rx.recv().map_err(|_| RpcError::Disconnected),
        Some(t) => rx.recv_timeout(t).map_err(|e| match e {
            RecvTimeoutError::Timeout => RpcError::Timeout,
            RecvTimeoutError::Disconnected => RpcError::Disconnected,
        }),
    }
}

/// A call that has been sent ([`ClientConn::start`]) and not yet answered.
/// Dropping it abandons the response; the agent still serves the request.
#[must_use = "a started call is only answered through wait()"]
pub struct PendingCall<Resp> {
    reply: Reply<Resp>,
    span: trace::SpanGuard,
    _in_flight: InFlight,
}

impl<Resp> PendingCall<Resp> {
    /// Block until the response arrives — at most `timeout`, when given
    /// ([`RpcError::Timeout`] past it) — or the peer goes away.
    pub fn wait(mut self, timeout: Option<Duration>) -> Result<Resp, RpcError> {
        let res = match self.reply {
            Reply::Local(rx) => recv_reply(&rx, timeout),
            Reply::Wire { parked, decode } => parked
                .wait(timeout)
                .and_then(|bytes| decode(&bytes).map_err(|e| RpcError::Wire(e.to_string()))),
        };
        if res.is_err() {
            self.span.fail();
        }
        res
    }
}

/// Where to send the response for a received request (empty for posts).
pub struct ReplySlot<Resp> {
    to: ReplyTo<Resp>,
}

impl<Resp> ReplySlot<Resp> {
    /// Send the response. A dropped client is not an error for the agent.
    pub fn send(mut self, resp: Resp) {
        match self.to.0.take() {
            None => {}
            Some(ReplyDest::Chan(tx)) => {
                let _ = tx.send(resp);
            }
            Some(ReplyDest::Wire { writer, session, corr, encode }) => {
                let mut payload = vec![wire::status::OK];
                encode(&resp, &mut payload);
                let frame = wire::Frame::new(wire::FrameKind::Reply, session, corr, payload);
                let _ = writer.send(&frame);
            }
        }
    }

    /// Was a reply requested (synchronous call) or not (post)?
    pub fn expects_reply(&self) -> bool {
        self.to.0.is_some()
    }
}

/// A dedicated session's own queue, handed to the main daemon as the
/// session opens.
struct PinnedQueue<Req, Resp> {
    session: u64,
    rx: Receiver<Envelope<Req, Resp>>,
}

/// The server end of a local fabric: the queues [`serve`]'s agents drain.
pub struct Listener<Req, Resp> {
    queues: Queues<Req, Resp>,
    pool: Arc<PoolStats>,
}

enum Queues<Req, Resp> {
    /// Dedicated: every session's own queue, announced as it opens.
    Pinned(Receiver<PinnedQueue<Req, Resp>>),
    /// Pooled: the one run queue every session shares.
    Shared { rx: Receiver<Envelope<Req, Resp>>, workers: usize },
}

impl<Req, Resp> Listener<Req, Resp> {
    /// Agent instrumentation.
    pub fn pool_stats(&self) -> &Arc<PoolStats> {
        &self.pool
    }
}

/// The client end of a local fabric: how a new session gets somewhere to
/// send.
pub(crate) struct LocalFabric<Req, Resp> {
    route: Route<Req, Resp>,
    pool: Arc<PoolStats>,
}

enum Route<Req, Resp> {
    /// Dedicated: the main daemon's accept queue.
    Pinned(Sender<PinnedQueue<Req, Resp>>),
    /// Pooled: the shared run queue.
    Shared { tx: Sender<Envelope<Req, Resp>>, admission_timeout: Duration },
}

impl<Req, Resp> Clone for LocalFabric<Req, Resp> {
    fn clone(&self) -> Self {
        let route = match &self.route {
            Route::Pinned(accept) => Route::Pinned(accept.clone()),
            Route::Shared { tx, admission_timeout } => {
                Route::Shared { tx: tx.clone(), admission_timeout: *admission_timeout }
            }
        };
        LocalFabric { route, pool: self.pool.clone() }
    }
}

impl<Req, Resp> LocalFabric<Req, Resp> {
    /// Open `session`. Dedicated: a fresh queue holding `depth` envelopes
    /// (0 = rendezvous), handed to the main daemon, which pins an agent to
    /// it. Pooled: a handle on the run queue (`depth` does not apply).
    pub(crate) fn open(
        &self,
        session: u64,
        depth: usize,
    ) -> Result<SessionTx<Req, Resp>, RpcError> {
        match &self.route {
            Route::Pinned(accept) => {
                let (tx, rx) = bounded(depth);
                accept.send(PinnedQueue { session, rx }).map_err(|_| RpcError::Disconnected)?;
                Ok(SessionTx { tx, admission: None })
            }
            Route::Shared { tx, admission_timeout } => Ok(SessionTx {
                tx: tx.clone(),
                admission: Some(Admission { timeout: *admission_timeout, pool: self.pool.clone() }),
            }),
        }
    }

    /// Work no agent has picked up yet: sessions waiting for their pinned
    /// agent, or requests waiting in the run queue.
    fn backlog(&self) -> usize {
        match &self.route {
            Route::Pinned(accept) => accept.len(),
            Route::Shared { tx, .. } => tx.len(),
        }
    }
}

/// Client end of a remote fabric: the dial address plus the (lazily
/// established, re-established on death) socket multiplexer every
/// connection from this connector shares.
pub(crate) struct RemoteState {
    addr: WireAddr,
    mux: Mutex<Option<Arc<socket::Mux>>>,
    stats: Arc<WireStats>,
    /// Connections to the peer that have died so far ([`Connector::epoch`]).
    deaths: Arc<AtomicU64>,
}

impl RemoteState {
    /// The live mux, dialing (or redialing a dead connection) as needed.
    fn mux_or_dial(&self) -> Result<Arc<socket::Mux>, RpcError> {
        let mut guard = self.mux.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(m) = guard.as_ref() {
            if !m.is_dead() {
                return Ok(m.clone());
            }
            self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        let m = socket::Mux::dial(&self.addr, self.stats.clone(), self.deaths.clone())?;
        *guard = Some(m.clone());
        Ok(m)
    }
}

/// How a connector hands out connections.
pub(crate) enum ConnectorMode<Req, Resp> {
    /// Each connect opens a session on a fabric in this process.
    Local(LocalFabric<Req, Resp>),
    /// Each connect is a fresh session multiplexed over the (shared,
    /// lazily dialed) socket to a remote server.
    Remote {
        /// Dial state shared by clones of this connector.
        state: Arc<RemoteState>,
        /// Serializers captured at construction.
        vt: WireVt<Req, Resp>,
    },
}

/// The connector endpoint host agents use to reach a DLFM.
pub struct Connector<Req, Resp> {
    pub(crate) mode: ConnectorMode<Req, Resp>,
    pub(crate) stats: Arc<RpcStats>,
    pub(crate) sessions: Arc<AtomicU64>,
}

impl<Req, Resp> Clone for Connector<Req, Resp> {
    fn clone(&self) -> Self {
        let mode = match &self.mode {
            ConnectorMode::Local(fabric) => ConnectorMode::Local(fabric.clone()),
            ConnectorMode::Remote { state, vt } => {
                ConnectorMode::Remote { state: state.clone(), vt: *vt }
            }
        };
        Connector { mode, stats: self.stats.clone(), sessions: self.sessions.clone() }
    }
}

impl<Req, Resp> Connector<Req, Resp> {
    /// Establish a new connection: a fresh session, with its own agent
    /// (dedicated) or served by any agent of the pool (pooled); over a
    /// remote connector, a fresh session on the shared socket, dialing (or
    /// redialing) it if needed.
    pub fn connect(&self) -> Result<ClientConn<Req, Resp>, RpcError> {
        let session = self.sessions.fetch_add(1, Ordering::Relaxed) + 1;
        let inner = match &self.mode {
            // In-process a dedicated session's queue is a rendezvous: sends
            // block until the agent receives.
            ConnectorMode::Local(fabric) => ConnInner::Local(fabric.open(session, 0)?),
            ConnectorMode::Remote { state, vt } => {
                ConnInner::Wire { mux: state.mux_or_dial()?, vt: *vt }
            }
        };
        Ok(ClientConn {
            inner,
            stats: self.stats.clone(),
            session,
            severed: AtomicBool::new(false),
        })
    }

    /// Fabric-wide instrumentation (shared with every connection).
    pub fn stats(&self) -> &Arc<RpcStats> {
        &self.stats
    }

    /// Agent instrumentation, when this connector fronts a local fabric.
    pub fn pool_stats(&self) -> Option<&Arc<PoolStats>> {
        match &self.mode {
            ConnectorMode::Local(fabric) => Some(&fabric.pool),
            ConnectorMode::Remote { .. } => None,
        }
    }

    /// Wire-transport instrumentation, when this connector dials a socket.
    pub fn wire_stats(&self) -> Option<&Arc<WireStats>> {
        match &self.mode {
            ConnectorMode::Remote { state, .. } => Some(&state.stats),
            ConnectorMode::Local(_) => None,
        }
    }

    /// Incarnation of the peer as seen from here: the number of socket
    /// connections to it that have died, bumped by the reader thread when
    /// it sees the stream end. Whatever a caller learned from the peer
    /// under an earlier epoch may describe a process that no longer exists.
    /// Always 0 for in-process connectors, whose peer cannot go away alone.
    /// (`Relaxed`: a bare count that publishes no other data.)
    pub fn epoch(&self) -> u64 {
        match &self.mode {
            ConnectorMode::Remote { state, .. } => state.deaths.load(Ordering::Relaxed),
            ConnectorMode::Local(_) => 0,
        }
    }

    /// Work the server has not picked up yet: sessions waiting for their
    /// pinned agent (dedicated) or requests waiting in the shared run queue
    /// (pooled). Always 0 for a remote connector (the backlog lives on the
    /// server).
    pub fn accept_backlog(&self) -> usize {
        match &self.mode {
            ConnectorMode::Local(fabric) => fabric.backlog(),
            ConnectorMode::Remote { .. } => 0,
        }
    }

    /// Render this fabric's base `rpc_*` metrics into a registry: call and
    /// post totals, in-flight and send-blocked gauges, and the accept
    /// backlog; a remote connector adds its `rpc_wire_*` family. Servers
    /// layer their own agent gauges on top.
    pub fn render_metrics(&self, r: &mut obs::Registry) {
        let stats = self.stats();
        r.counter("rpc_calls_total", "Round-trip RPC calls issued.", &[], stats.calls());
        r.counter("rpc_posts_total", "One-way RPC posts issued.", &[], stats.posts());
        r.gauge("rpc_in_flight", "RPC calls currently awaiting a reply.", &[], stats.in_flight());
        r.gauge(
            "rpc_send_blocked",
            "Senders currently blocked on the rendezvous channel (paper section 4).",
            &[],
            stats.send_blocked(),
        );
        r.gauge(
            "rpc_accept_backlog",
            "Work no agent has picked up: sessions awaiting their agent (dedicated) or queued requests (pooled).",
            &[],
            self.accept_backlog() as i64,
        );
        if let ConnectorMode::Remote { state, .. } = &self.mode {
            state.stats.render(r);
        }
    }
}

/// Create an in-process fabric (one per DLFM instance) laid out as `model`
/// says: run [`serve`] on the listener, hand the connector to clients.
pub fn fabric<Req, Resp>(model: AgentModel) -> (Listener<Req, Resp>, Connector<Req, Resp>) {
    let (route, queues) = match model {
        AgentModel::Dedicated => {
            let (tx, rx) = bounded(ACCEPT_BACKLOG);
            (Route::Pinned(tx), Queues::Pinned(rx))
        }
        AgentModel::Pooled { workers, queue_depth, admission_timeout } => {
            let (tx, rx) = bounded(queue_depth.max(1));
            (
                Route::Shared { tx, admission_timeout },
                Queues::Shared { rx, workers: workers.max(1) },
            )
        }
    };
    let pool = Arc::new(PoolStats::default());
    (
        Listener { queues, pool: pool.clone() },
        Connector {
            mode: ConnectorMode::Local(LocalFabric { route, pool }),
            stats: Arc::new(RpcStats::default()),
            sessions: Arc::new(AtomicU64::new(0)),
        },
    )
}

/// Create a connector that dials a remote fabric over a socket. The
/// connection is established lazily on the first [`Connector::connect`]
/// and redialed transparently after a disconnect (counted in
/// `rpc_wire_reconnects_total`). All sessions share one socket — the
/// multiplexer runs one reader thread total, not per session, and callers
/// write their own frames.
pub fn wire_connector<Req, Resp>(addr: WireAddr) -> Connector<Req, Resp>
where
    Req: Wire,
    Resp: Wire,
{
    Connector {
        mode: ConnectorMode::Remote {
            state: Arc::new(RemoteState {
                addr,
                mux: Mutex::new(None),
                stats: Arc::new(WireStats::default()),
                deaths: Arc::new(AtomicU64::new(0)),
            }),
            vt: WireVt { encode_req: encode_val::<Req>, decode_resp: decode_val::<Resp> },
        },
        stats: Arc::new(RpcStats::default()),
        sessions: Arc::new(AtomicU64::new(0)),
    }
}

/// What an agent hands to its handler.
pub enum PoolEvent<Req> {
    /// A request from some session.
    Request {
        /// Fabric-assigned session (connection) id.
        session: u64,
        /// The request.
        req: Req,
    },
    /// The session's client endpoint was dropped: retire its state.
    Hangup {
        /// Fabric-assigned session (connection) id.
        session: u64,
    },
}

/// The agent threads of one server and what they share.
#[derive(Clone)]
struct Agents {
    shutdown: Arc<AtomicBool>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    spawned: Arc<AtomicU64>,
    pool: Arc<PoolStats>,
}

impl Agents {
    /// Start one agent draining `rx`: pinned to `session`, or one of a
    /// pool's workers (`None`).
    fn spawn<Req, Resp, H>(
        &self,
        rx: Receiver<Envelope<Req, Resp>>,
        pinned: Option<u64>,
        handler: H,
    ) where
        Req: Send + 'static,
        Resp: Send + 'static,
        H: FnMut(PoolEvent<Req>, ReplySlot<Resp>) + Send + 'static,
    {
        self.spawned.fetch_add(1, Ordering::Relaxed);
        self.pool.workers.fetch_add(1, Ordering::Relaxed);
        let (pool, shutdown) = (self.pool.clone(), self.shutdown.clone());
        let agent = std::thread::spawn(move || {
            run_agent(&rx, pinned, handler, &pool, &shutdown);
            pool.workers.fetch_sub(1, Ordering::Relaxed);
        });
        self.threads.lock().unwrap_or_else(|e| e.into_inner()).push(agent);
    }

    /// Join the agents that have exited, so a finished agent's stack is
    /// released now rather than at shutdown.
    fn reap(&self) {
        let mut threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        let mut i = 0;
        while i < threads.len() {
            if threads[i].is_finished() {
                let _ = threads.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
    }
}

/// The one agent loop. Serves envelopes off `rx` until the queue closes
/// or, after shutdown, runs dry (a graceful drain: whatever is already
/// queued is served first). A pinned agent's session ends with it: an
/// explicit hangup, its queue closing, or shutdown all deliver one
/// [`PoolEvent::Hangup`] for that session on the way out.
fn run_agent<Req, Resp, H>(
    rx: &Receiver<Envelope<Req, Resp>>,
    pinned: Option<u64>,
    mut handler: H,
    pool: &PoolStats,
    shutdown: &AtomicBool,
) where
    H: FnMut(PoolEvent<Req>, ReplySlot<Resp>),
{
    let mut draining = false;
    loop {
        draining = draining || shutdown.load(Ordering::SeqCst);
        let env = match rx.recv_timeout(if draining { Duration::ZERO } else { AGENT_POLL }) {
            Ok(env) => env,
            Err(RecvTimeoutError::Timeout) if !draining => continue,
            Err(_) => break,
        };
        let event = match env.payload {
            Payload::Request(req) => {
                pool.served.fetch_add(1, Ordering::Relaxed);
                PoolEvent::Request { session: env.session, req }
            }
            Payload::Hangup if pinned.is_some() => break,
            Payload::Hangup => {
                pool.hangups.fetch_add(1, Ordering::Relaxed);
                PoolEvent::Hangup { session: env.session }
            }
        };
        let _busy = GaugeGuard::enter(&pool.busy);
        trace::set_current_ctx(env.ctx);
        handler(event, ReplySlot { to: env.reply });
    }
    if let Some(session) = pinned {
        pool.hangups.fetch_add(1, Ordering::Relaxed);
        trace::set_current_ctx(None);
        handler(PoolEvent::Hangup { session }, ReplySlot { to: ReplyTo(None) });
    }
}

/// Handle to a running server: the main daemon (dedicated) and the agent
/// threads.
pub struct ServerHandle {
    accept_thread: Option<JoinHandle<()>>,
    agents: Agents,
    /// Agent threads spawned so far: one per session under
    /// [`AgentModel::Dedicated`] (the paper's process model), the fixed
    /// worker count under [`AgentModel::Pooled`].
    pub agents_spawned: Arc<AtomicU64>,
}

impl ServerHandle {
    /// Ask the main daemon and all agent threads to stop, then join every
    /// one of them: after this returns no agent thread is running.
    pub fn shutdown(&mut self) {
        self.agents.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let drained: Vec<JoinHandle<()>> = {
            let mut threads = self.agents.threads.lock().unwrap_or_else(|e| e.into_inner());
            threads.drain(..).collect()
        };
        for h in drained {
            let _ = h.join();
        }
    }

    /// Agent threads not yet joined (diagnostics; exited dedicated agents
    /// are joined as the main daemon goes round, and 0 after
    /// [`Self::shutdown`]).
    pub fn live_threads(&self) -> usize {
        self.agents.threads.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve a fabric. `factory` builds one handler per agent, and every
/// agent runs the same loop, handing its handler each request and each
/// session hangup as a [`PoolEvent`]. Dedicated: a main daemon pins a
/// fresh agent to each session as it opens, and joins it once it exits.
/// Pooled: the configured workers share the run queue, so per-session
/// state must live behind the handler, keyed by the event's session id.
/// [`ServerHandle::shutdown`] drains and joins them all.
pub fn serve<Req, Resp, H, F>(listener: Listener<Req, Resp>, mut factory: F) -> ServerHandle
where
    Req: Send + 'static,
    Resp: Send + 'static,
    H: FnMut(PoolEvent<Req>, ReplySlot<Resp>) + Send + 'static,
    F: FnMut() -> H + Send + 'static,
{
    let agents = Agents {
        shutdown: Arc::new(AtomicBool::new(false)),
        threads: Arc::new(Mutex::new(Vec::new())),
        spawned: Arc::new(AtomicU64::new(0)),
        pool: listener.pool,
    };
    let accept_thread = match listener.queues {
        // `rx` drops once every worker has its clone: when the last one
        // exits, queued and blocked senders observe Disconnected.
        Queues::Shared { rx, workers } => {
            for _ in 0..workers {
                agents.spawn(rx.clone(), None, factory());
            }
            None
        }
        Queues::Pinned(accept) => {
            let agents = agents.clone();
            Some(std::thread::spawn(move || {
                while !agents.shutdown.load(Ordering::SeqCst) {
                    agents.reap();
                    match accept.recv_timeout(AGENT_POLL) {
                        Ok(q) => agents.spawn(q.rx, Some(q.session), factory()),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }))
        }
    };
    let agents_spawned = agents.spawned.clone();
    ServerHandle { accept_thread, agents, agents_spawned }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::thread;

    /// A handler that answers each request with `f` and ignores hangups —
    /// what a stateless test server needs.
    pub(crate) fn on_request<Req, Resp>(
        mut f: impl FnMut(Req, ReplySlot<Resp>) + Send,
    ) -> impl FnMut(PoolEvent<Req>, ReplySlot<Resp>) + Send {
        move |ev, slot| {
            if let PoolEvent::Request { req, .. } = ev {
                f(req, slot)
            }
        }
    }

    /// Counts live values: `fetch_sub` on drop.
    struct Live(Arc<AtomicI64>);
    impl Drop for Live {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn call_roundtrip() {
        let (listener, connector) = fabric::<i32, i32>(AgentModel::Dedicated);
        let mut handle = serve(listener, || on_request(|req: i32, slot| slot.send(req * 2)));
        let conn = connector.connect().unwrap();
        assert_eq!(conn.call(21).unwrap(), 42);
        assert_eq!(conn.call(5).unwrap(), 10);
        handle.shutdown();
    }

    #[test]
    fn each_connection_gets_its_own_agent() {
        let (listener, connector) = fabric::<i32, i32>(AgentModel::Dedicated);
        let handle = serve(listener, || {
            // Per-agent state: a counter proving requests stay on one agent.
            let mut count = 0;
            on_request(move |_req: i32, slot| {
                count += 1;
                slot.send(count)
            })
        });
        let c1 = connector.connect().unwrap();
        let c2 = connector.connect().unwrap();
        assert_eq!(c1.call(0).unwrap(), 1);
        assert_eq!(c1.call(0).unwrap(), 2);
        assert_eq!(c2.call(0).unwrap(), 1, "second connection has a fresh agent");
        // Give the accept loop a moment to register both agents.
        thread::sleep(Duration::from_millis(50));
        assert_eq!(handle.agents_spawned.load(Ordering::Relaxed), 2);
        drop(handle);
    }

    #[test]
    fn send_blocks_while_agent_is_busy() {
        // The §4 scenario: a posted (async) commit keeps the agent busy and
        // the next synchronous call blocks on message send.
        let (listener, connector) = fabric::<&'static str, &'static str>(AgentModel::Dedicated);
        let mut handle = serve(listener, || {
            on_request(|req: &'static str, slot| {
                if req == "commit" {
                    thread::sleep(Duration::from_millis(200));
                }
                slot.send("done");
            })
        });
        let conn = connector.connect().unwrap();
        conn.post("commit").unwrap();
        let started = std::time::Instant::now();
        // The agent is mid-commit and has not issued its receive, so this
        // send blocks until it finishes.
        assert_eq!(conn.call("link").unwrap(), "done");
        assert!(
            started.elapsed() >= Duration::from_millis(150),
            "call should have blocked behind the in-flight commit"
        );
        handle.shutdown();
    }

    #[test]
    fn call_timeout_fires_when_agent_stalls() {
        let (listener, connector) = fabric::<u8, u8>(AgentModel::Dedicated);
        let mut handle = serve(listener, || {
            on_request(|_req: u8, slot| {
                thread::sleep(Duration::from_millis(300));
                slot.send(0);
            })
        });
        let conn = connector.connect().unwrap();
        conn.post(0).unwrap(); // occupy the agent
        let err = conn.call_timeout(1, Duration::from_millis(50)).unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        handle.shutdown();
    }

    #[test]
    fn disconnect_reported() {
        // The server side of a live connection goes away: the client's next
        // call fails with Disconnected rather than hanging.
        let (listener, connector) = fabric::<u8, u8>(AgentModel::Dedicated);
        let mut handle = serve(listener, || on_request(|req: u8, slot| slot.send(req)));
        let conn = connector.connect().unwrap();
        assert_eq!(conn.call(1).unwrap(), 1);
        handle.shutdown();
        assert_eq!(conn.call(1).unwrap_err(), RpcError::Disconnected);
        assert_eq!(connector.connect().err(), Some(RpcError::Disconnected));
    }

    #[test]
    fn stats_count_calls_and_blocked_senders() {
        let (listener, connector) = fabric::<u8, u8>(AgentModel::Dedicated);
        let stats = connector.stats().clone();
        let mut handle = serve(listener, || {
            on_request(|req: u8, slot| {
                if req == 1 {
                    thread::sleep(Duration::from_millis(120));
                }
                slot.send(req)
            })
        });
        let conn = connector.connect().unwrap();
        conn.post(1).unwrap(); // occupy the agent for ~120ms
        let c2 = connector.connect().unwrap();
        let h = thread::spawn(move || c2.call(0).unwrap());
        // While the post is being processed, a second call through a fresh
        // connection proceeds, but a call on the busy connection blocks on
        // send; watch the gauges move.
        let conn2 = connector.connect().unwrap();
        drop(conn2);
        thread::sleep(Duration::from_millis(30));
        let blocked_seen = {
            let busy = thread::spawn(move || conn.call(2).unwrap());
            thread::sleep(Duration::from_millis(30));
            let seen = stats.send_blocked() >= 1;
            assert_eq!(busy.join().unwrap(), 2);
            seen
        };
        assert!(blocked_seen, "sender blocked on rendezvous send must show in the gauge");
        h.join().unwrap();
        assert!(stats.calls() >= 2);
        assert_eq!(stats.posts(), 1);
        assert_eq!(stats.in_flight(), 0, "gauge drains when calls complete");
        assert_eq!(stats.send_blocked(), 0);
        handle.shutdown();
    }

    #[test]
    fn trace_ctx_propagates_to_agent_thread() {
        let (listener, connector) = fabric::<u8, u64>(AgentModel::Dedicated);
        // The handler reports the trace id installed on its thread.
        let mut handle = serve(listener, || {
            on_request(|_req: u8, slot| {
                let id = obs::trace::current_ctx().map(|c| c.trace_id).unwrap_or(0);
                slot.send(id)
            })
        });
        let conn = connector.connect().unwrap();

        // Without a caller-side context the RPC span starts a fresh trace.
        let agent_side = conn.call(0).unwrap();
        assert_ne!(agent_side, 0, "rpc span should give the agent a trace id");

        // With a root span installed (the host statement boundary), the
        // agent sees that trace id.
        let root = obs::trace::span_root(Layer::Host, "stmt");
        let agent_side = conn.call(0).unwrap();
        assert_eq!(agent_side, root.ctx().trace_id);
        drop(root);
        handle.shutdown();
    }

    #[test]
    fn post_does_not_wait_for_processing() {
        let (listener, connector) = fabric::<u8, u8>(AgentModel::Dedicated);
        let mut handle = serve(listener, || {
            on_request(|_req: u8, slot| {
                thread::sleep(Duration::from_millis(150));
                slot.send(0);
            })
        });
        let conn = connector.connect().unwrap();
        let started = std::time::Instant::now();
        conn.post(1).unwrap();
        assert!(
            started.elapsed() < Duration::from_millis(100),
            "post should return once the agent receives, not when it finishes"
        );
        handle.shutdown();
    }

    #[test]
    fn dedicated_shutdown_joins_child_agents() {
        // Regression for the detached-thread leak: every child agent must
        // be joined by shutdown(), observable through a live-agent counter
        // decremented as each child thread exits.
        let live = Arc::new(AtomicI64::new(0));
        let (listener, connector) = fabric::<u8, u8>(AgentModel::Dedicated);
        let l = live.clone();
        let mut handle = serve(listener, move || {
            l.fetch_add(1, Ordering::SeqCst);
            let guard = Live(l.clone());
            on_request(move |req: u8, slot| {
                let _ = &guard;
                slot.send(req)
            })
        });
        let conns: Vec<_> = (0..4).map(|_| connector.connect().unwrap()).collect();
        for c in &conns {
            assert_eq!(c.call(7).unwrap(), 7);
        }
        assert_eq!(live.load(Ordering::SeqCst), 4);
        handle.shutdown();
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "all child agents must have exited once shutdown() returns"
        );
        assert_eq!(handle.live_threads(), 0);
    }

    #[test]
    fn exited_dedicated_agents_are_joined_before_shutdown() {
        // Regression: every agent's JoinHandle used to wait for shutdown, so
        // each connection ever served kept its finished thread's stack
        // mapped and counted in live_threads().
        let (listener, connector) = fabric::<u8, u8>(AgentModel::Dedicated);
        let mut handle = serve(listener, || on_request(|req: u8, slot| slot.send(req)));
        for i in 0..30 {
            let conn = connector.connect().unwrap();
            assert_eq!(conn.call(i).unwrap(), i);
        }
        wait_until("exited agents joined", || handle.live_threads() == 0);
        assert_eq!(handle.agents_spawned.load(Ordering::Relaxed), 30, "the count stays cumulative");
        assert_eq!(connector.pool_stats().unwrap().workers(), 0, "no agent is running");
        handle.shutdown();
    }

    #[test]
    fn a_pinned_agent_delivers_its_sessions_hangup_on_every_exit() {
        // A dropped client and shutdown each end a pinned agent, and each
        // delivers exactly one Hangup for that agent's session.
        let seen: Arc<Mutex<Vec<u64>>> = Arc::default();
        let (listener, connector) = fabric::<u8, u8>(AgentModel::Dedicated);
        let s = seen.clone();
        let mut handle = serve(listener, move || {
            let s = s.clone();
            move |ev: PoolEvent<u8>, slot: ReplySlot<u8>| match ev {
                PoolEvent::Request { req, .. } => slot.send(req),
                PoolEvent::Hangup { session } => s.lock().unwrap().push(session),
            }
        });
        let dropped = connector.connect().unwrap();
        let kept = connector.connect().unwrap();
        for c in [&dropped, &kept] {
            assert_eq!(c.call(1).unwrap(), 1);
        }
        let ids = [dropped.session(), kept.session()];
        drop(dropped);
        wait_until("the dropped session's hangup", || seen.lock().unwrap().len() == 1);
        handle.shutdown();
        assert_eq!(*seen.lock().unwrap(), ids, "one hangup per session, shutdown included");
        assert_eq!(connector.pool_stats().unwrap().hangups(), 2);
        drop(kept);
    }

    // ------------------------------------------------------------------
    // Pooled setting
    // ------------------------------------------------------------------

    fn pooled(workers: usize, queue_depth: usize, admission_ms: u64) -> AgentModel {
        AgentModel::Pooled {
            workers,
            queue_depth,
            admission_timeout: Duration::from_millis(admission_ms),
        }
    }

    #[test]
    fn pool_roundtrip_and_worker_count() {
        let (listener, connector) = fabric::<i32, i32>(pooled(3, 16, 100));
        let pool = listener.pool_stats().clone();
        let mut handle = serve(listener, || on_request(|req: i32, slot| slot.send(req * 2)));
        let conn = connector.connect().unwrap();
        assert_eq!(conn.call(21).unwrap(), 42);
        assert_eq!(pool.workers(), 3);
        assert_eq!(handle.agents_spawned.load(Ordering::Relaxed), 3);
        assert!(pool.served() >= 1);
        handle.shutdown();
    }

    #[test]
    fn pool_sessions_are_not_sticky() {
        // One worker, many connections: every session is served, and the
        // worker sees each session's own id (state can be keyed by it).
        let (listener, connector) = fabric::<u8, u64>(pooled(1, 16, 100));
        let mut handle = serve(listener, || {
            |ev: PoolEvent<u8>, slot: ReplySlot<u64>| {
                if let PoolEvent::Request { session, .. } = ev {
                    slot.send(session)
                }
            }
        });
        let c1 = connector.connect().unwrap();
        let c2 = connector.connect().unwrap();
        let s1 = c1.call(0).unwrap();
        let s2 = c2.call(0).unwrap();
        assert_ne!(s1, s2, "each connection carries its own session id");
        assert_eq!(c1.call(0).unwrap(), s1, "session id is stable per connection");
        handle.shutdown();
    }

    #[test]
    fn pool_rejects_when_saturated() {
        // Queue depth 1, one worker stuck processing: the first call
        // occupies the worker, the second fills the queue, the third must
        // be rejected with Overloaded within the admission timeout.
        let (listener, connector) = fabric::<u8, u8>(pooled(1, 1, 40));
        let pool = listener.pool_stats().clone();
        let mut handle = serve(listener, || {
            on_request(|req: u8, slot| {
                if req == 9 {
                    thread::sleep(Duration::from_millis(300));
                }
                slot.send(req);
            })
        });
        let conn = connector.connect().unwrap();
        conn.post(9).unwrap(); // occupies the single worker
        thread::sleep(Duration::from_millis(30));
        conn.post(1).unwrap(); // fills the queue (depth 1)
        let err = conn.call(2).unwrap_err();
        assert_eq!(err, RpcError::Overloaded);
        assert!(pool.rejects() >= 1, "admission rejects must be counted");
        handle.shutdown();
    }

    #[test]
    fn pool_shutdown_drains_queue_and_joins_workers() {
        let live = Arc::new(AtomicI64::new(0));
        let served = Arc::new(AtomicU64::new(0));
        let (listener, connector) = fabric::<u8, u8>(pooled(2, 64, 100));
        let (l, s) = (live.clone(), served.clone());
        let mut handle = serve(listener, move || {
            l.fetch_add(1, Ordering::SeqCst);
            let guard = Live(l.clone());
            let s = s.clone();
            on_request(move |req: u8, slot| {
                let _ = &guard;
                s.fetch_add(1, Ordering::SeqCst);
                slot.send(req);
            })
        });
        let conn = connector.connect().unwrap();
        // Queue a burst of posts, then shut down immediately: the drain
        // must serve everything already admitted before workers exit.
        for i in 0..20 {
            conn.post(i).unwrap();
        }
        handle.shutdown();
        assert_eq!(live.load(Ordering::SeqCst), 0, "all workers joined");
        assert_eq!(handle.live_threads(), 0);
        assert_eq!(served.load(Ordering::SeqCst), 20, "queued requests served before exit");
    }

    #[test]
    fn pool_hangup_reaches_handler() {
        // Under both settings a dropped client is one Hangup event for its
        // session.
        for model in [pooled(1, 16, 100), AgentModel::Dedicated] {
            let hangups = Arc::new(AtomicU64::new(0));
            let (listener, connector) = fabric::<u8, u8>(model);
            let pool = listener.pool_stats().clone();
            let h = hangups.clone();
            let mut handle = serve(listener, move || {
                let h = h.clone();
                move |ev: PoolEvent<u8>, slot: ReplySlot<u8>| match ev {
                    PoolEvent::Request { req, .. } => slot.send(req),
                    PoolEvent::Hangup { .. } => {
                        h.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
            let conn = connector.connect().unwrap();
            assert_eq!(conn.call(3).unwrap(), 3);
            drop(conn);
            wait_until("the hangup", || hangups.load(Ordering::SeqCst) > 0);
            assert_eq!(hangups.load(Ordering::SeqCst), 1, "{model}: drop delivers a hangup event");
            assert_eq!(pool.hangups(), 1);
            handle.shutdown();
        }
    }

    #[test]
    fn pool_no_rejects_below_capacity() {
        let (listener, connector) = fabric::<u8, u8>(pooled(4, 32, 200));
        let pool = listener.pool_stats().clone();
        let mut handle = serve(listener, || on_request(|req: u8, slot| slot.send(req)));
        let mut joins = Vec::new();
        for t in 0..8u8 {
            let connector = connector.clone();
            joins.push(thread::spawn(move || {
                let conn = connector.connect().unwrap();
                for i in 0..50u8 {
                    assert_eq!(conn.call(i.wrapping_add(t)).unwrap(), i.wrapping_add(t));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(pool.rejects(), 0, "no rejects below capacity");
        // The reply is sent from inside the handler, so a client can see
        // its response a hair before the worker drops its busy guard.
        wait_until("busy gauge drains", || pool.busy() == 0);
        handle.shutdown();
    }
}
