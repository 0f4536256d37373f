//! # dlrpc — the agent connection fabric
//!
//! Models the remote-procedure-call mechanism between host-database agents
//! and DLFM child agents (paper §2, §3.5). The crate splits into a
//! **protocol core** — the `Listener`/`Connector`/`ClientConn`/`ServerConn`
//! surface plus two server modes — and pluggable **transports**:
//!
//! * **in-process** (the default; [`fabric`]/[`pool_fabric`]) — channels
//!   inside one process, used by tests, benches, and embedded deployments;
//! * **wire** ([`socket`] + [`wire`]) — a length-prefixed frame codec over
//!   real TCP or Unix-domain sockets, many sessions multiplexed per socket,
//!   with [`wire_connector`] dialing out and [`serve_wire`] bridging
//!   accepted sockets into an in-process fabric on the server.
//!
//! Server modes (transport-independent):
//!
//! * **Dedicated** ([`serve`]) — the paper's process model: the DLFM **main
//!   daemon** listens for connects and spawns one **child agent** per
//!   connection; all requests on that connection are served by that agent.
//!   On the in-process transport requests are strictly **synchronous**: the
//!   request channel is a rendezvous, so a sender blocks until the child
//!   agent actually issues its message receive. This is load-bearing — the
//!   distributed-deadlock scenario of §4 hinges on "T11 is blocked on
//!   message send as the DLFM child is still doing the commit processing
//!   for T1 (and has not issued msg receive)". (The wire transport buffers
//!   per-session, so §4's send-blocking semantics are an in-process
//!   property.)
//! * **Pooled** ([`pool_fabric`] + [`serve_pool`]) — a fixed set of worker
//!   threads pulls from one shared bounded run queue; any worker serves any
//!   connection. Every connection carries a fabric-assigned **session id**
//!   on each request so per-connection state can live server-side, keyed by
//!   that id. The bounded queue is the admission control: when it stays
//!   full past the admission timeout the sender gets
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

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use obs::trace::{self, Layer, TraceCtx};

pub use socket::{
    serve_wire, set_wire_tracing, wire_tracing, Endpoint, SocketListener, WireAddr, WireServer,
    WireStats,
};
pub use wire::{Reader, Wire, WireError};

/// RPC-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The peer hung up.
    Disconnected,
    /// A timed call did not complete in time.
    Timeout,
    /// The server's run queue stayed full past the admission timeout
    /// (pooled mode only): the request was rejected, not queued.
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

/// What a connection puts on the wire.
pub(crate) enum Payload<Req> {
    /// An ordinary request.
    Request(Req),
    /// The client endpoint was dropped (pooled mode sends this so the
    /// server can retire the session's state; dedicated mode signals the
    /// same by closing the per-connection channel).
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
/// `session` is the fabric-assigned connection id (pooled workers key
/// server-side session state by it).
pub(crate) struct Envelope<Req, Resp> {
    pub(crate) payload: Payload<Req>,
    pub(crate) reply: ReplyTo<Resp>,
    pub(crate) ctx: Option<TraceCtx>,
    pub(crate) session: u64,
}

/// Fabric-wide instrumentation, shared by the connector, the listener,
/// and every connection created through them. Makes the paper's §4
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

/// Instrumentation of one agent pool ([`pool_fabric`] mode): admission
/// and occupancy, shared by the connector, every client connection, and
/// the worker threads.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Worker threads in the pool (set by [`serve_pool`]).
    pub workers: AtomicU64,
    /// Workers currently executing a request (gauge).
    pub busy: AtomicI64,
    /// Requests rejected by admission control (counter).
    pub rejects: AtomicU64,
    /// Requests a worker picked up and served (counter).
    pub served: AtomicU64,
    /// Session hangups processed (counter).
    pub hangups: AtomicU64,
}

impl PoolStats {
    /// Configured worker count.
    pub fn workers(&self) -> u64 {
        self.workers.load(Ordering::Relaxed)
    }

    /// Workers currently executing a request.
    pub fn busy(&self) -> i64 {
        self.busy.load(Ordering::Relaxed)
    }

    /// Requests rejected at admission.
    pub fn rejects(&self) -> u64 {
        self.rejects.load(Ordering::Relaxed)
    }

    /// Requests served by the pool.
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

/// Admission-control handle a pooled [`ClientConn`] carries: how long to
/// wait for run-queue space before rejecting, and where to count rejects.
struct Admission {
    timeout: Duration,
    pool: Arc<PoolStats>,
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
    /// In-process channels. In dedicated mode `tx` is this connection's
    /// private rendezvous channel; in pooled mode it is a clone of the
    /// pool's shared run queue and `admission` bounds the enqueue.
    Local { tx: Sender<Envelope<Req, Resp>>, admission: Option<Admission> },
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
                ConnInner::Local { tx, admission } => {
                    let env = Envelope::<Req, Resp> {
                        payload: Payload::Hangup,
                        reply: ReplyTo(None),
                        ctx: None,
                        session: self.session,
                    };
                    let _ = match admission {
                        None => tx.send(env).is_ok(),
                        Some(adm) => tx.send_timeout(env, adm.timeout).is_ok(),
                    };
                }
                ConnInner::Wire { mux, .. } => mux.hangup(self.session),
            }
        }
    }

    fn is_severed(&self) -> bool {
        self.severed.load(Ordering::Relaxed)
    }

    /// Send one envelope over the local transport, applying admission
    /// control in pooled mode.
    fn send_env(
        &self,
        tx: &Sender<Envelope<Req, Resp>>,
        admission: &Option<Admission>,
        env: Envelope<Req, Resp>,
    ) -> Result<(), RpcError> {
        let _blocked = GaugeGuard::enter(&self.stats.send_blocked);
        match admission {
            None => tx.send(env).map_err(|_| RpcError::Disconnected),
            Some(adm) => tx.send_timeout(env, adm.timeout).map_err(|e| match e {
                crossbeam::channel::SendTimeoutError::Timeout(_) => {
                    adm.pool.rejects.fetch_add(1, Ordering::Relaxed);
                    let timeout = adm.timeout;
                    obs::journal::record(obs::journal::JournalKind::PoolReject, 0, || {
                        format!("admission reject: run queue full past {timeout:?}")
                    });
                    RpcError::Overloaded
                }
                crossbeam::channel::SendTimeoutError::Disconnected(_) => RpcError::Disconnected,
            }),
        }
    }

    /// Send a request and return without waiting for the response: the
    /// first half of every round trip. The agent has *received* the request
    /// when this returns (dedicated mode), it has been admitted to the run
    /// queue (pooled mode, bounded by the admission timeout — may fail with
    /// [`RpcError::Overloaded`]), or it has been written to the socket
    /// (wire transport). Starting calls on several connections and only
    /// then waiting on each overlaps their service times.
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
            ConnInner::Local { tx, admission } => {
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
                self.send_env(tx, admission, env)?;
                if let Some(env) = dup_env {
                    let _ = self.send_env(tx, admission, env);
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
    /// request (dedicated mode), it is admitted to the run queue (pooled
    /// mode), or it has been written to the socket (wire transport),
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
            ConnInner::Local { tx, admission } => {
                let env = self.envelope(Payload::Request(req), ReplyTo(None));
                self.send_env(tx, admission, env)
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
            ConnInner::Local { .. } => Ok(()),
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
        // Dedicated in-process connections signal it by the channel close
        // itself; pooled ones share the run queue, so they send an explicit
        // hangup; wire sessions share a socket, so they send a Hangup
        // frame. Best-effort everywhere — if the transport is already dead
        // the server-side cleanup ran (or runs) through its own teardown.
        // A severed connection already delivered its hangup.
        if self.is_severed() {
            return;
        }
        match &self.inner {
            ConnInner::Local { tx, admission: Some(adm) } => {
                let env = Envelope {
                    payload: Payload::Hangup,
                    reply: ReplyTo(None),
                    ctx: None,
                    session: self.session,
                };
                let _ = tx.send_timeout(env, adm.timeout);
            }
            ConnInner::Local { .. } => {}
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

/// Server side of one connection (held by a DLFM child agent).
pub struct ServerConn<Req, Resp> {
    pub(crate) rx: Receiver<Envelope<Req, Resp>>,
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

impl<Req, Resp> ServerConn<Req, Resp> {
    /// Receive the next request; blocks until one arrives. Returns
    /// `Disconnected` when the client is gone.
    ///
    /// As a side effect, the sender's trace context is installed on the
    /// calling thread, so spans opened while handling the request share
    /// the originating statement's trace id.
    pub fn recv(&self) -> Result<(Req, ReplySlot<Resp>), RpcError> {
        let env = self.rx.recv().map_err(|_| RpcError::Disconnected)?;
        trace::set_current_ctx(env.ctx);
        match env.payload {
            Payload::Request(req) => Ok((req, ReplySlot { to: env.reply })),
            // Dedicated connections signal hangup by closing the channel;
            // an explicit hangup is equivalent.
            Payload::Hangup => Err(RpcError::Disconnected),
        }
    }

    /// Receive with a timeout (lets agent loops poll a shutdown flag).
    /// Installs the sender's trace context like [`ServerConn::recv`].
    pub fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Option<(Req, ReplySlot<Resp>)>, RpcError> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => {
                trace::set_current_ctx(env.ctx);
                match env.payload {
                    Payload::Request(req) => Ok(Some((req, ReplySlot { to: env.reply }))),
                    Payload::Hangup => Err(RpcError::Disconnected),
                }
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(RpcError::Disconnected),
        }
    }
}

/// The listener held by the DLFM main daemon (dedicated mode).
pub struct Listener<Req, Resp> {
    rx: Receiver<ServerConn<Req, Resp>>,
    stats: Arc<RpcStats>,
}

impl<Req, Resp> Listener<Req, Resp> {
    /// Accept the next connection; blocks. Returns `Disconnected` when the
    /// connector endpoint is gone.
    pub fn accept(&self) -> Result<ServerConn<Req, Resp>, RpcError> {
        self.rx.recv().map_err(|_| RpcError::Disconnected)
    }

    /// Accept with a timeout.
    pub fn accept_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Option<ServerConn<Req, Resp>>, RpcError> {
        match self.rx.recv_timeout(timeout) {
            Ok(c) => Ok(Some(c)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(RpcError::Disconnected),
        }
    }

    /// Fabric-wide instrumentation.
    pub fn stats(&self) -> &Arc<RpcStats> {
        &self.stats
    }

    /// Connections waiting to be accepted (gauge).
    pub fn accept_backlog(&self) -> usize {
        self.rx.len()
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
    /// Each connect creates a private rendezvous channel served by a
    /// dedicated child agent.
    Dedicated(Sender<ServerConn<Req, Resp>>),
    /// Each connect clones the pool's shared bounded run queue.
    Pooled {
        /// The shared run queue.
        tx: Sender<Envelope<Req, Resp>>,
        /// Pool instrumentation.
        pool: Arc<PoolStats>,
        /// How long senders wait for queue space before rejection.
        admission_timeout: Duration,
    },
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
            ConnectorMode::Dedicated(tx) => ConnectorMode::Dedicated(tx.clone()),
            ConnectorMode::Pooled { tx, pool, admission_timeout } => ConnectorMode::Pooled {
                tx: tx.clone(),
                pool: pool.clone(),
                admission_timeout: *admission_timeout,
            },
            ConnectorMode::Remote { state, vt } => {
                ConnectorMode::Remote { state: state.clone(), vt: *vt }
            }
        };
        Connector { mode, stats: self.stats.clone(), sessions: self.sessions.clone() }
    }
}

impl<Req, Resp> Connector<Req, Resp> {
    /// Establish a new connection. Dedicated mode: a fresh child agent will
    /// serve it. Pooled mode: a fresh session id is assigned and any pool
    /// worker may serve its requests. Remote mode: a fresh session over the
    /// shared socket, dialing (or redialing) it if needed.
    pub fn connect(&self) -> Result<ClientConn<Req, Resp>, RpcError> {
        let session = self.sessions.fetch_add(1, Ordering::Relaxed) + 1;
        match &self.mode {
            ConnectorMode::Dedicated(ctx) => {
                // Rendezvous request channel: sends block until the agent
                // receives.
                let (tx, rx) = bounded(0);
                ctx.send(ServerConn { rx }).map_err(|_| RpcError::Disconnected)?;
                Ok(ClientConn {
                    inner: ConnInner::Local { tx, admission: None },
                    stats: self.stats.clone(),
                    session,
                    severed: AtomicBool::new(false),
                })
            }
            ConnectorMode::Pooled { tx, pool, admission_timeout } => Ok(ClientConn {
                inner: ConnInner::Local {
                    tx: tx.clone(),
                    admission: Some(Admission { timeout: *admission_timeout, pool: pool.clone() }),
                },
                stats: self.stats.clone(),
                session,
                severed: AtomicBool::new(false),
            }),
            ConnectorMode::Remote { state, vt } => {
                let mux = state.mux_or_dial()?;
                Ok(ClientConn {
                    inner: ConnInner::Wire { mux, vt: *vt },
                    stats: self.stats.clone(),
                    session,
                    severed: AtomicBool::new(false),
                })
            }
        }
    }

    /// Fabric-wide instrumentation (shared with the listener and every
    /// connection).
    pub fn stats(&self) -> &Arc<RpcStats> {
        &self.stats
    }

    /// Pool instrumentation, when this connector fronts an agent pool.
    pub fn pool_stats(&self) -> Option<&Arc<PoolStats>> {
        match &self.mode {
            ConnectorMode::Pooled { pool, .. } => Some(pool),
            _ => None,
        }
    }

    /// Wire-transport instrumentation, when this connector dials a socket.
    pub fn wire_stats(&self) -> Option<&Arc<WireStats>> {
        match &self.mode {
            ConnectorMode::Remote { state, .. } => Some(&state.stats),
            _ => None,
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
            _ => 0,
        }
    }

    /// Connections waiting to be accepted (dedicated mode) or requests
    /// waiting in the shared run queue (pooled mode) — both are "work the
    /// server has not picked up yet". Always 0 for a remote connector (the
    /// backlog lives on the server).
    pub fn accept_backlog(&self) -> usize {
        match &self.mode {
            ConnectorMode::Dedicated(tx) => tx.len(),
            ConnectorMode::Pooled { tx, .. } => tx.len(),
            ConnectorMode::Remote { .. } => 0,
        }
    }

    /// Requests waiting in the shared run queue (pooled mode only).
    pub fn pool_queue_depth(&self) -> Option<usize> {
        match &self.mode {
            ConnectorMode::Pooled { tx, .. } => Some(tx.len()),
            _ => None,
        }
    }

    /// Render this fabric's base `rpc_*` metrics into a registry: call and
    /// post totals, in-flight and send-blocked gauges, and the accept
    /// backlog; a remote connector adds its `rpc_wire_*` family. Servers
    /// layer their own pool gauges on top.
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
            "Connections queued at the main daemon's accept loop.",
            &[],
            self.accept_backlog() as i64,
        );
        if let ConnectorMode::Remote { state, .. } = &self.mode {
            state.stats.render(r);
        }
    }
}

/// Create a dedicated-mode listener/connector pair (one per DLFM
/// instance): every connect is served by its own child agent.
pub fn fabric<Req, Resp>() -> (Listener<Req, Resp>, Connector<Req, Resp>) {
    let (tx, rx) = bounded(64);
    let stats = Arc::new(RpcStats::default());
    (
        Listener { rx, stats: stats.clone() },
        Connector {
            mode: ConnectorMode::Dedicated(tx),
            stats,
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

/// The run-queue endpoint [`serve_pool`] drains (pooled mode).
pub struct PoolListener<Req, Resp> {
    rx: Receiver<Envelope<Req, Resp>>,
    stats: Arc<RpcStats>,
    pool: Arc<PoolStats>,
}

impl<Req, Resp> PoolListener<Req, Resp> {
    /// Fabric-wide instrumentation.
    pub fn stats(&self) -> &Arc<RpcStats> {
        &self.stats
    }

    /// Pool instrumentation.
    pub fn pool_stats(&self) -> &Arc<PoolStats> {
        &self.pool
    }
}

/// Create a pooled-mode fabric: one shared bounded run queue of depth
/// `queue_depth`. Senders wait at most `admission_timeout` for queue space
/// before their request is rejected with [`RpcError::Overloaded`].
pub fn pool_fabric<Req, Resp>(
    queue_depth: usize,
    admission_timeout: Duration,
) -> (PoolListener<Req, Resp>, Connector<Req, Resp>) {
    let (tx, rx) = bounded(queue_depth.max(1));
    let stats = Arc::new(RpcStats::default());
    let pool = Arc::new(PoolStats::default());
    (
        PoolListener { rx, stats: stats.clone(), pool: pool.clone() },
        Connector {
            mode: ConnectorMode::Pooled { tx, pool, admission_timeout },
            stats,
            sessions: Arc::new(AtomicU64::new(0)),
        },
    )
}

/// What a pooled worker hands to its handler.
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

/// Handle to a running server (dedicated main daemon + child agents, or an
/// agent pool).
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Child-agent threads (dedicated mode) or pool workers (pooled mode);
    /// all joined on shutdown so no agent outlives the server.
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Agent threads spawned so far: one per connection in dedicated mode
    /// (the paper's process model), the fixed worker count in pooled mode.
    pub agents_spawned: Arc<AtomicU64>,
}

impl ServerHandle {
    /// Ask the main daemon and all agent threads to stop, then join every
    /// one of them: after this returns no agent thread is running.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let drained: Vec<JoinHandle<()>> = {
            let mut threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
            threads.drain(..).collect()
        };
        for h in drained {
            let _ = h.join();
        }
    }

    /// Agent threads still alive (diagnostics; 0 after [`Self::shutdown`]).
    pub fn live_threads(&self) -> usize {
        self.threads.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run a main daemon in dedicated mode: accept connections and spawn one
/// child-agent thread per connection. `factory` builds the per-connection
/// handler, which is invoked once per request. All child threads are
/// joined by [`ServerHandle::shutdown`].
pub fn serve<Req, Resp, H, F>(listener: Listener<Req, Resp>, mut factory: F) -> ServerHandle
where
    Req: Send + 'static,
    Resp: Send + 'static,
    H: FnMut(Req, ReplySlot<Resp>) + Send + 'static,
    F: FnMut() -> H + Send + 'static,
{
    let shutdown = Arc::new(AtomicBool::new(false));
    let agents = Arc::new(AtomicU64::new(0));
    let threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let sd = shutdown.clone();
    let ag = agents.clone();
    let th = threads.clone();
    let accept_thread = std::thread::spawn(move || {
        while !sd.load(Ordering::SeqCst) {
            match listener.accept_timeout(Duration::from_millis(20)) {
                Ok(Some(conn)) => {
                    ag.fetch_add(1, Ordering::Relaxed);
                    let mut handler = factory();
                    let child_sd = sd.clone();
                    let child = std::thread::spawn(move || loop {
                        if child_sd.load(Ordering::SeqCst) {
                            break;
                        }
                        match conn.recv_timeout(Duration::from_millis(20)) {
                            Ok(Some((req, slot))) => handler(req, slot),
                            Ok(None) => continue,
                            Err(_) => break,
                        }
                    });
                    th.lock().unwrap_or_else(|e| e.into_inner()).push(child);
                }
                Ok(None) => continue,
                Err(_) => break,
            }
        }
    });
    ServerHandle { shutdown, accept_thread: Some(accept_thread), threads, agents_spawned: agents }
}

/// Run an agent pool: `workers` threads pull from the shared run queue and
/// serve requests from any session. `factory` builds one handler per
/// *worker* (not per connection — per-session state must live behind the
/// handler, keyed by the session id of each [`PoolEvent`]).
///
/// Shutdown is a graceful drain: each worker first serves whatever is
/// already queued, then exits; [`ServerHandle::shutdown`] joins them all.
pub fn serve_pool<Req, Resp, H, F>(
    listener: PoolListener<Req, Resp>,
    workers: usize,
    mut factory: F,
) -> ServerHandle
where
    Req: Send + 'static,
    Resp: Send + 'static,
    H: FnMut(PoolEvent<Req>, ReplySlot<Resp>) + Send + 'static,
    F: FnMut() -> H + Send + 'static,
{
    let workers = workers.max(1);
    let shutdown = Arc::new(AtomicBool::new(false));
    let agents = Arc::new(AtomicU64::new(workers as u64));
    let threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let PoolListener { rx, stats: _, pool } = listener;
    pool.workers.store(workers as u64, Ordering::Relaxed);
    {
        let mut th = threads.lock().unwrap_or_else(|e| e.into_inner());
        for _ in 0..workers {
            let rx = rx.clone();
            let pool = pool.clone();
            let sd = shutdown.clone();
            let mut handler = factory();
            th.push(std::thread::spawn(move || {
                let mut draining = false;
                loop {
                    // On shutdown, finish what is already queued (graceful
                    // drain), then exit.
                    if !draining && sd.load(Ordering::SeqCst) {
                        draining = true;
                    }
                    let timeout = if draining { Duration::ZERO } else { Duration::from_millis(10) };
                    match rx.recv_timeout(timeout) {
                        Ok(env) => {
                            let _busy = GaugeGuard::enter(&pool.busy);
                            trace::set_current_ctx(env.ctx);
                            match env.payload {
                                Payload::Request(req) => {
                                    pool.served.fetch_add(1, Ordering::Relaxed);
                                    handler(
                                        PoolEvent::Request { session: env.session, req },
                                        ReplySlot { to: env.reply },
                                    );
                                }
                                Payload::Hangup => {
                                    pool.hangups.fetch_add(1, Ordering::Relaxed);
                                    handler(
                                        PoolEvent::Hangup { session: env.session },
                                        ReplySlot { to: ReplyTo(None) },
                                    );
                                }
                            }
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            if draining {
                                break;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }));
        }
    }
    // `rx` drops here: once every worker exits, all receivers are gone and
    // blocked/queued senders observe Disconnected instead of hanging.
    ServerHandle { shutdown, accept_thread: None, threads, agents_spawned: agents }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn call_roundtrip() {
        let (listener, connector) = fabric::<i32, i32>();
        let mut handle = serve(listener, || |req: i32, slot: ReplySlot<i32>| slot.send(req * 2));
        let conn = connector.connect().unwrap();
        assert_eq!(conn.call(21).unwrap(), 42);
        assert_eq!(conn.call(5).unwrap(), 10);
        handle.shutdown();
    }

    #[test]
    fn each_connection_gets_its_own_agent() {
        let (listener, connector) = fabric::<i32, i32>();
        let handle = serve(listener, || {
            // Per-agent state: a counter proving requests stay on one agent.
            let mut count = 0;
            move |_req: i32, slot: ReplySlot<i32>| {
                count += 1;
                slot.send(count)
            }
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
        let (listener, connector) = fabric::<&'static str, &'static str>();
        let mut handle = serve(listener, || {
            |req: &'static str, slot: ReplySlot<&'static str>| {
                if req == "commit" {
                    thread::sleep(Duration::from_millis(200));
                }
                slot.send("done");
            }
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
        let (listener, connector) = fabric::<u8, u8>();
        let mut handle = serve(listener, || {
            |_req: u8, slot: ReplySlot<u8>| {
                thread::sleep(Duration::from_millis(300));
                slot.send(0);
            }
        });
        let conn = connector.connect().unwrap();
        conn.post(0).unwrap(); // occupy the agent
        let err = conn.call_timeout(1, Duration::from_millis(50)).unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        handle.shutdown();
    }

    #[test]
    fn disconnect_reported() {
        let (listener, connector) = fabric::<u8, u8>();
        let conn = connector.connect().unwrap();
        let server = listener.accept().unwrap();
        drop(server);
        assert_eq!(conn.call(1).unwrap_err(), RpcError::Disconnected);
    }

    #[test]
    fn stats_count_calls_and_blocked_senders() {
        let (listener, connector) = fabric::<u8, u8>();
        let stats = connector.stats().clone();
        let mut handle = serve(listener, || {
            |req: u8, slot: ReplySlot<u8>| {
                if req == 1 {
                    thread::sleep(Duration::from_millis(120));
                }
                slot.send(req)
            }
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
        let (listener, connector) = fabric::<u8, u64>();
        // The handler reports the trace id installed on its thread.
        let mut handle = serve(listener, || {
            |_req: u8, slot: ReplySlot<u64>| {
                let id = obs::trace::current_ctx().map(|c| c.trace_id).unwrap_or(0);
                slot.send(id)
            }
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
        let (listener, connector) = fabric::<u8, u8>();
        let mut handle = serve(listener, || {
            |_req: u8, slot: ReplySlot<u8>| {
                thread::sleep(Duration::from_millis(150));
                slot.send(0);
            }
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
        struct Live(Arc<AtomicI64>);
        impl Drop for Live {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let live = Arc::new(AtomicI64::new(0));
        let (listener, connector) = fabric::<u8, u8>();
        let l = live.clone();
        let mut handle = serve(listener, move || {
            l.fetch_add(1, Ordering::SeqCst);
            let guard = Live(l.clone());
            move |req: u8, slot: ReplySlot<u8>| {
                let _ = &guard;
                slot.send(req)
            }
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

    // ------------------------------------------------------------------
    // Pooled mode
    // ------------------------------------------------------------------

    #[test]
    fn pool_roundtrip_and_worker_count() {
        let (listener, connector) = pool_fabric::<i32, i32>(16, Duration::from_millis(100));
        let pool = listener.pool_stats().clone();
        let mut handle = serve_pool(listener, 3, || {
            |ev: PoolEvent<i32>, slot: ReplySlot<i32>| {
                if let PoolEvent::Request { req, .. } = ev {
                    slot.send(req * 2)
                }
            }
        });
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
        let (listener, connector) = pool_fabric::<u8, u64>(16, Duration::from_millis(100));
        let mut handle = serve_pool(listener, 1, || {
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
        let (listener, connector) = pool_fabric::<u8, u8>(1, Duration::from_millis(40));
        let pool = listener.pool_stats().clone();
        let mut handle = serve_pool(listener, 1, || {
            |ev: PoolEvent<u8>, slot: ReplySlot<u8>| {
                if let PoolEvent::Request { req, .. } = ev {
                    if req == 9 {
                        thread::sleep(Duration::from_millis(300));
                    }
                    slot.send(req);
                }
            }
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
        struct Live(Arc<AtomicI64>);
        impl Drop for Live {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let live = Arc::new(AtomicI64::new(0));
        let served = Arc::new(AtomicU64::new(0));
        let (listener, connector) = pool_fabric::<u8, u8>(64, Duration::from_millis(100));
        let (l, s) = (live.clone(), served.clone());
        let mut handle = serve_pool(listener, 2, move || {
            l.fetch_add(1, Ordering::SeqCst);
            let guard = Live(l.clone());
            let s = s.clone();
            move |ev: PoolEvent<u8>, slot: ReplySlot<u8>| {
                let _ = &guard;
                if let PoolEvent::Request { req, .. } = ev {
                    s.fetch_add(1, Ordering::SeqCst);
                    slot.send(req);
                }
            }
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
        let hangups = Arc::new(AtomicU64::new(0));
        let (listener, connector) = pool_fabric::<u8, u8>(16, Duration::from_millis(100));
        let pool = listener.pool_stats().clone();
        let h = hangups.clone();
        let mut handle = serve_pool(listener, 1, move || {
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
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while hangups.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(hangups.load(Ordering::SeqCst), 1, "drop must deliver a hangup event");
        assert_eq!(pool.hangups(), 1);
        handle.shutdown();
    }

    #[test]
    fn pool_no_rejects_below_capacity() {
        let (listener, connector) = pool_fabric::<u8, u8>(32, Duration::from_millis(200));
        let pool = listener.pool_stats().clone();
        let mut handle = serve_pool(listener, 4, || {
            |ev: PoolEvent<u8>, slot: ReplySlot<u8>| {
                if let PoolEvent::Request { req, .. } = ev {
                    slot.send(req)
                }
            }
        });
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
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while pool.busy() != 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.busy(), 0, "busy gauge drains");
        handle.shutdown();
    }
}
