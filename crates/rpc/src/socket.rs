//! Socket transport: TCP and Unix-domain backends for the RPC fabric.
//!
//! One socket carries many logical connections (sessions). Each side runs
//! exactly **one reader thread per socket and no writer thread** — 10k
//! sessions do not need 10k sockets or threads:
//!
//! * the **client multiplexer** ([`Mux`]) assigns a correlation id to every
//!   Call/Ping, writes the frame from the calling thread, parks the caller
//!   on a one-shot channel, and lets the reader thread route each
//!   Reply/Pong frame back by correlation id;
//! * the **server bridge** ([`serve_wire`]) decodes frames off the socket
//!   and feeds each wire session into the in-process fabric exactly as a
//!   local session: it opens a session on the fabric (its own pinned queue
//!   under the dedicated setting, the shared run queue under the pooled
//!   one) and sends through it, so [`crate::serve`] and every agent above
//!   it are transport-agnostic. The agent that served a request writes its
//!   Reply frame itself.
//!
//! Whoever has a frame to send writes it ([`FrameWriter`]): the frame is
//! encoded outside the socket's write lock and goes out as one `write_all`
//! inside it, so frames never interleave. A write that blocks (the peer's
//! receive buffer is full) holds only that connection's lock — the same
//! back-pressure the bounded writer queue used to give. It cannot deadlock
//! because of one invariant: **the client reader thread blocks on nothing
//! but the socket** (its hand-off to a parked caller is a one-shot channel
//! with room for the reply), so the client always drains what the server
//! writes, the server's writers always finish, and the server reader gets
//! back to draining what the client writes.
//!
//! Fault points (client-side writes, armed via `obs::fault`):
//! `rpc.wire.stall` delays a frame on the wire; `rpc.wire.corrupt` flips a
//! payload byte after the checksum is computed (the peer detects it per
//! frame and fails only that call); `rpc.wire.truncate` writes a partial
//! frame and drops the socket; `rpc.wire.reset` drops the socket without
//! writing. The last two kill the connection exactly like a network
//! partition: every parked caller gets `RpcError::Disconnected` and the
//! next `connect()` redials.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, SendTimeoutError, Sender};

use crate::wire::{
    encode_frame, read_frame, status, Frame, FrameKind, Wire, WireError, HEADER_TAIL,
};
use crate::{
    Connector, ConnectorMode, Envelope, LocalFabric, Payload, ReplyDest, ReplyTo, RpcError,
    SessionTx,
};

/// How long blocking loops sleep between shutdown-flag polls.
const POLL: Duration = Duration::from_millis(5);

/// Whether outgoing Call/Post frames carry the sender's trace context in
/// the v2 header fields. On by default; benches flip it off to measure
/// the propagation overhead (`e5`/`e12` wire-trace guard arm).
static WIRE_TRACE: AtomicBool = AtomicBool::new(true);

/// Enable or disable trace-context propagation on outgoing frames.
/// Returns the previous setting. Process-global.
pub fn set_wire_tracing(on: bool) -> bool {
    WIRE_TRACE.swap(on, Ordering::Relaxed)
}

/// Is trace-context propagation on outgoing frames enabled?
pub fn wire_tracing() -> bool {
    WIRE_TRACE.load(Ordering::Relaxed)
}
/// Depth of a wire session's own queue under the dedicated setting.
/// Buffered, not a rendezvous: the paper's §4 send-blocks-until-receive
/// semantics are a property of the **in-process** backend only (see
/// DESIGN.md).
const SESSION_QUEUE: usize = 256;

// ---------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------

/// A socket address the wire transport can bind or dial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireAddr {
    /// TCP `host:port`.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for WireAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireAddr::Tcp(a) => write!(f, "tcp://{a}"),
            WireAddr::Unix(p) => write!(f, "unix://{}", p.display()),
        }
    }
}

/// A parsed connection URL: the two socket schemes plus `inproc://name`,
/// which upper layers resolve against a registry of in-process connectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// `tcp://host:port`
    Tcp(String),
    /// `unix:///path/to.sock`
    Unix(PathBuf),
    /// `inproc://name` — an in-process fabric registered under `name`.
    Inproc(String),
}

impl Endpoint {
    /// Parse a `tcp://`, `unix://`, or `inproc://` URL.
    pub fn parse(url: &str) -> Result<Endpoint, RpcError> {
        if let Some(rest) = url.strip_prefix("tcp://") {
            if rest.is_empty() {
                return Err(RpcError::Wire(format!("empty tcp address in {url:?}")));
            }
            return Ok(Endpoint::Tcp(rest.to_string()));
        }
        if let Some(rest) = url.strip_prefix("unix://") {
            if rest.is_empty() {
                return Err(RpcError::Wire(format!("empty unix path in {url:?}")));
            }
            return Ok(Endpoint::Unix(PathBuf::from(rest)));
        }
        if let Some(rest) = url.strip_prefix("inproc://") {
            if rest.is_empty() {
                return Err(RpcError::Wire(format!("empty inproc name in {url:?}")));
            }
            return Ok(Endpoint::Inproc(rest.to_string()));
        }
        Err(RpcError::Wire(format!(
            "unsupported url {url:?} (expected tcp://, unix://, or inproc://)"
        )))
    }

    /// The socket address, if this endpoint is one.
    pub fn wire_addr(&self) -> Option<WireAddr> {
        match self {
            Endpoint::Tcp(a) => Some(WireAddr::Tcp(a.clone())),
            Endpoint::Unix(p) => Some(WireAddr::Unix(p.clone())),
            Endpoint::Inproc(_) => None,
        }
    }
}

// ---------------------------------------------------------------------
// Sockets
// ---------------------------------------------------------------------

/// A connected stream socket of either family.
pub enum WireSocket {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    Unix(UnixStream),
}

impl WireSocket {
    /// Dial `addr`.
    pub fn connect(addr: &WireAddr) -> Result<WireSocket, RpcError> {
        match addr {
            WireAddr::Tcp(a) => TcpStream::connect(a)
                .map(WireSocket::Tcp)
                .map_err(|e| RpcError::Wire(format!("dial {addr}: {e}"))),
            WireAddr::Unix(p) => UnixStream::connect(p)
                .map(WireSocket::Unix)
                .map_err(|e| RpcError::Wire(format!("dial {addr}: {e}"))),
        }
    }

    fn try_clone(&self) -> std::io::Result<WireSocket> {
        match self {
            WireSocket::Tcp(s) => s.try_clone().map(WireSocket::Tcp),
            WireSocket::Unix(s) => s.try_clone().map(WireSocket::Unix),
        }
    }

    /// Shut down both directions; unblocks any thread parked in a read.
    pub fn shutdown(&self) {
        match self {
            WireSocket::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            WireSocket::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for WireSocket {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            WireSocket::Tcp(s) => s.read(buf),
            WireSocket::Unix(s) => s.read(buf),
        }
    }
}

impl Write for WireSocket {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            WireSocket::Tcp(s) => s.write(buf),
            WireSocket::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            WireSocket::Tcp(s) => s.flush(),
            WireSocket::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------
// Wire instrumentation
// ---------------------------------------------------------------------

/// Byte- and frame-level instrumentation of one wire endpoint (a client
/// connector or a server bridge).
#[derive(Debug, Default)]
pub struct WireStats {
    /// Bytes written to the socket (counter).
    pub bytes_tx: AtomicU64,
    /// Bytes read off the socket (counter).
    pub bytes_rx: AtomicU64,
    /// Frames written (counter).
    pub frames_tx: AtomicU64,
    /// Frames read (counter).
    pub frames_rx: AtomicU64,
    /// Times a dead connection was redialed (counter; client side).
    pub reconnects: AtomicU64,
    /// Frames that failed checksum or payload decode (counter).
    pub decode_errors: AtomicU64,
    /// Frames rejected because the peer speaks a different wire version.
    pub version_mismatches: AtomicU64,
    /// Session hangups delivered over the wire (counter; server side).
    pub hangups: AtomicU64,
}

impl WireStats {
    fn frame_rx(&self, frame: &Frame) {
        self.bytes_rx.fetch_add((4 + HEADER_TAIL + frame.payload.len()) as u64, Ordering::Relaxed);
        self.frames_rx.fetch_add(1, Ordering::Relaxed);
    }

    /// Times a dead connection was redialed.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Frames that failed checksum or decode.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }

    /// Render the `rpc_wire_*` metric family into a registry.
    pub fn render(&self, r: &mut obs::Registry) {
        r.counter(
            "rpc_wire_bytes_tx_total",
            "Bytes written to wire transport sockets.",
            &[],
            self.bytes_tx.load(Ordering::Relaxed),
        );
        r.counter(
            "rpc_wire_bytes_rx_total",
            "Bytes read from wire transport sockets.",
            &[],
            self.bytes_rx.load(Ordering::Relaxed),
        );
        r.counter(
            "rpc_wire_frames_total",
            "Frames crossing the wire transport, by direction.",
            &[("dir", "tx")],
            self.frames_tx.load(Ordering::Relaxed),
        );
        r.counter(
            "rpc_wire_frames_total",
            "Frames crossing the wire transport, by direction.",
            &[("dir", "rx")],
            self.frames_rx.load(Ordering::Relaxed),
        );
        r.counter(
            "rpc_wire_reconnects_total",
            "Wire connections redialed after a disconnect.",
            &[],
            self.reconnects.load(Ordering::Relaxed),
        );
        r.counter(
            "rpc_wire_decode_errors_total",
            "Frames rejected by checksum or payload decode.",
            &[],
            self.decode_errors.load(Ordering::Relaxed),
        );
        r.counter(
            "rpc_wire_version_mismatch_total",
            "Frames rejected because the peer speaks a different wire version.",
            &[],
            self.version_mismatches.load(Ordering::Relaxed),
        );
        r.counter(
            "rpc_wire_hangups_total",
            "Session hangups delivered over the wire.",
            &[],
            self.hangups.load(Ordering::Relaxed),
        );
    }
}

// ---------------------------------------------------------------------
// Frame writes
// ---------------------------------------------------------------------

/// The write half of one socket, shared by every thread with a frame to
/// send on it: callers on the client, agents (and the reader, for Pongs
/// and status replies) on the server.
pub(crate) struct FrameWriter {
    sock: Mutex<WireSocket>,
    stats: Arc<WireStats>,
    /// Client side only: the `rpc.wire.*` fault points bite here — after
    /// the checksum is computed, exactly like a misbehaving network.
    lossy: bool,
}

impl FrameWriter {
    fn new(sock: WireSocket, stats: Arc<WireStats>, lossy: bool) -> FrameWriter {
        FrameWriter { sock: Mutex::new(sock), stats, lossy }
    }

    /// Write one frame. Any failure (injected or real) shuts the socket
    /// down, so the peer and this side's reader both see the stream end.
    pub(crate) fn send(&self, frame: &Frame) -> Result<(), RpcError> {
        let mut bytes = Vec::with_capacity(4 + HEADER_TAIL + frame.payload.len());
        encode_frame(frame, &mut bytes);
        let mut cut = bytes.len();
        if self.lossy {
            if obs::fault::fire("rpc.wire.stall") {
                std::thread::sleep(Duration::from_millis(3));
            }
            if obs::fault::fire("rpc.wire.corrupt") && bytes.len() > 4 + HEADER_TAIL {
                let last = bytes.len() - 1;
                bytes[last] ^= 0x55;
            }
            if obs::fault::fire("rpc.wire.truncate") {
                cut = (bytes.len() / 2).max(1);
            } else if obs::fault::fire("rpc.wire.reset") {
                cut = 0;
            }
        }
        let mut sock = self.sock.lock().unwrap_or_else(|e| e.into_inner());
        if sock.write_all(&bytes[..cut]).is_err() || cut < bytes.len() {
            sock.shutdown();
            return Err(RpcError::Disconnected);
        }
        self.stats.bytes_tx.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.stats.frames_tx.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Answer a Call with a bare status byte (best effort).
    fn send_status(&self, session: u64, corr: u64, code: u8) {
        let _ = self.send(&Frame::new(FrameKind::Reply, session, corr, vec![code]));
    }
}

// ---------------------------------------------------------------------
// Client multiplexer
// ---------------------------------------------------------------------

type PendingMap = Arc<Mutex<HashMap<u64, Sender<Result<Vec<u8>, RpcError>>>>>;

/// Client end of one socket: many sessions share it. Callers write their
/// own frames and park ([`Parked`]) on a one-shot reply channel keyed by
/// correlation id; the reader thread routes each Reply/Pong back by that
/// id. When the socket dies, every parked caller is failed with
/// `Disconnected` — nobody hangs.
pub(crate) struct Mux {
    writer: FrameWriter,
    pending: PendingMap,
    corr: AtomicU64,
    dead: Arc<AtomicBool>,
    /// Why the connection died, when we know better than "disconnected"
    /// (e.g. a wire version mismatch). Surfaced to parked and later callers.
    death: Arc<Mutex<Option<RpcError>>>,
    sock: WireSocket,
}

impl Mux {
    /// Dial `addr` and start the reader thread.
    /// `deaths` is bumped once when this connection's reader sees it die.
    pub(crate) fn dial(
        addr: &WireAddr,
        stats: Arc<WireStats>,
        deaths: Arc<AtomicU64>,
    ) -> Result<Arc<Mux>, RpcError> {
        let sock = WireSocket::connect(addr)?;
        let sock_w = sock.try_clone().map_err(|e| RpcError::Wire(format!("clone socket: {e}")))?;
        let sock_r = sock.try_clone().map_err(|e| RpcError::Wire(format!("clone socket: {e}")))?;
        let pending: PendingMap = Arc::new(Mutex::new(HashMap::new()));
        let dead = Arc::new(AtomicBool::new(false));
        let death: Arc<Mutex<Option<RpcError>>> = Arc::new(Mutex::new(None));

        spawn_client_reader(
            sock_r,
            pending.clone(),
            dead.clone(),
            deaths,
            death.clone(),
            stats.clone(),
        );

        let writer = FrameWriter::new(sock_w, stats, true);
        Ok(Arc::new(Mux { writer, pending, corr: AtomicU64::new(0), dead, death, sock }))
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// The error callers should see for a dead connection: the recorded
    /// death reason if the reader left one, else plain `Disconnected`.
    fn death_error(&self) -> RpcError {
        self.death
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .unwrap_or(RpcError::Disconnected)
    }

    /// Stamp the caller's trace context onto an outgoing frame so the
    /// serving peer can parent its spans under ours (v2 header fields).
    fn stamp_trace(frame: Frame) -> Frame {
        if wire_tracing() {
            if let Some(c) = obs::trace::current_ctx() {
                return frame.traced(c.trace_id, c.span_id);
            }
        }
        frame
    }

    /// Send a Call (or Ping) and return the slot its Reply (or Pong) will
    /// land in, without waiting for it.
    pub(crate) fn start(
        &self,
        kind: FrameKind,
        session: u64,
        payload: Vec<u8>,
    ) -> Result<Parked, RpcError> {
        if self.is_dead() {
            return Err(self.death_error());
        }
        let corr = self.corr.fetch_add(1, Ordering::Relaxed) + 1;
        let (rtx, rrx) = bounded(1);
        self.pending.lock().unwrap_or_else(|e| e.into_inner()).insert(corr, rtx);
        if let Err(e) =
            self.writer.send(&Self::stamp_trace(Frame::new(kind, session, corr, payload)))
        {
            self.pending.lock().unwrap_or_else(|e2| e2.into_inner()).remove(&corr);
            return Err(e);
        }
        // The reader may have died between the insert and here, after it
        // drained `pending`: reclaim our entry so we never park forever.
        if self.is_dead()
            && self.pending.lock().unwrap_or_else(|e| e.into_inner()).remove(&corr).is_some()
        {
            return Err(self.death_error());
        }
        Ok(Parked { pending: self.pending.clone(), corr, reply: rrx })
    }

    /// Fire-and-forget: write a Post frame.
    pub(crate) fn post(&self, session: u64, payload: Vec<u8>) -> Result<(), RpcError> {
        if self.is_dead() {
            return Err(self.death_error());
        }
        self.writer.send(&Self::stamp_trace(Frame::new(FrameKind::Post, session, 0, payload)))
    }

    /// Tell the server this session's client is gone (best effort).
    pub(crate) fn hangup(&self, session: u64) {
        let _ = self.writer.send(&Frame::new(FrameKind::Hangup, session, 0, Vec::new()));
    }
}

/// A request on the socket whose reply has not been collected yet.
pub(crate) struct Parked {
    pending: PendingMap,
    corr: u64,
    reply: Receiver<Result<Vec<u8>, RpcError>>,
}

impl Parked {
    /// Park until the matching Reply (or Pong) arrives, the timeout fires,
    /// or the socket dies.
    pub(crate) fn wait(self, timeout: Option<Duration>) -> Result<Vec<u8>, RpcError> {
        let reply = crate::recv_reply(&self.reply, timeout);
        if matches!(reply, Err(RpcError::Timeout)) {
            self.pending.lock().unwrap_or_else(|e| e.into_inner()).remove(&self.corr);
        }
        reply?
    }
}

impl Drop for Mux {
    fn drop(&mut self) {
        // Unblocks the reader (EOF), which then exits on its own.
        self.dead.store(true, Ordering::Relaxed);
        self.sock.shutdown();
    }
}

/// Route Reply/Pong frames to parked callers; on any stream death, fail
/// every parked caller. A version-mismatched peer produces a specific
/// `RpcError::Wire` naming both versions instead of a bare `Disconnected`.
fn spawn_client_reader(
    mut sock: WireSocket,
    pending: PendingMap,
    dead: Arc<AtomicBool>,
    deaths: Arc<AtomicU64>,
    death: Arc<Mutex<Option<RpcError>>>,
    stats: Arc<WireStats>,
) {
    std::thread::spawn(move || {
        loop {
            match read_frame(&mut sock) {
                Ok(Some(frame)) => {
                    stats.frame_rx(&frame);
                    match frame.kind {
                        FrameKind::Reply | FrameKind::Pong => {
                            let waiter = pending
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .remove(&frame.corr);
                            if let Some(tx) = waiter {
                                let _ = tx.send(decode_reply(&frame, &stats));
                            }
                        }
                        // A server never sends other kinds; ignore.
                        _ => {}
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    if !matches!(e, WireError::Io(_)) {
                        stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    if let WireError::BadVersion { .. } = e {
                        stats.version_mismatches.fetch_add(1, Ordering::Relaxed);
                        let msg = e.to_string();
                        obs::warn!("rpc::wire", "dropping connection: {msg}");
                        *death.lock().unwrap_or_else(|p| p.into_inner()) =
                            Some(RpcError::Wire(msg));
                    }
                    break;
                }
            }
        }
        dead.store(true, Ordering::Relaxed);
        deaths.fetch_add(1, Ordering::Relaxed);
        sock.shutdown();
        let reason = death
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .unwrap_or(RpcError::Disconnected);
        let drained: Vec<_> = {
            let mut p = pending.lock().unwrap_or_else(|e| e.into_inner());
            p.drain().map(|(_, tx)| tx).collect()
        };
        for tx in drained {
            let _ = tx.send(Err(reason.clone()));
        }
    });
}

/// Map a Reply/Pong frame to what the parked caller should see.
fn decode_reply(frame: &Frame, stats: &WireStats) -> Result<Vec<u8>, RpcError> {
    if frame.corrupt {
        stats.decode_errors.fetch_add(1, Ordering::Relaxed);
        return Err(RpcError::Wire("reply frame failed checksum".into()));
    }
    if frame.kind == FrameKind::Pong {
        return Ok(Vec::new());
    }
    match frame.payload.first().copied() {
        Some(status::OK) => Ok(frame.payload[1..].to_vec()),
        Some(status::OVERLOADED) => Err(RpcError::Overloaded),
        Some(status::DISCONNECTED) => Err(RpcError::Disconnected),
        Some(status::DECODE) => Err(RpcError::Wire("peer failed to decode the request".into())),
        _ => Err(RpcError::Wire("malformed reply status".into())),
    }
}

// ---------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------

/// A bound server socket of either family.
pub enum SocketListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix listener plus the path to unlink on shutdown.
    Unix(UnixListener, PathBuf),
}

impl SocketListener {
    /// Bind `addr`. A pre-existing Unix socket file is removed first
    /// (stale from a crashed predecessor). TCP port 0 binds an ephemeral
    /// port; read the real one back with [`SocketListener::bound_addr`].
    pub fn bind(addr: &WireAddr) -> Result<SocketListener, RpcError> {
        match addr {
            WireAddr::Tcp(a) => {
                let l = TcpListener::bind(a)
                    .map_err(|e| RpcError::Wire(format!("bind {addr}: {e}")))?;
                Ok(SocketListener::Tcp(l))
            }
            WireAddr::Unix(p) => {
                let _ = std::fs::remove_file(p);
                if let Some(dir) = p.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                let l = UnixListener::bind(p)
                    .map_err(|e| RpcError::Wire(format!("bind {addr}: {e}")))?;
                Ok(SocketListener::Unix(l, p.clone()))
            }
        }
    }

    /// The address actually bound (resolves TCP port 0).
    pub fn bound_addr(&self) -> WireAddr {
        match self {
            SocketListener::Tcp(l) => {
                WireAddr::Tcp(l.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into()))
            }
            SocketListener::Unix(_, p) => WireAddr::Unix(p.clone()),
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            SocketListener::Tcp(l) => l.set_nonblocking(true),
            SocketListener::Unix(l, _) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> std::io::Result<WireSocket> {
        match self {
            SocketListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(WireSocket::Tcp(s))
            }
            SocketListener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(WireSocket::Unix(s))
            }
        }
    }
}

/// Handle to a running wire bridge: the accept loop plus one reader
/// thread per live socket. Dropping (or [`WireServer::shutdown`])
/// closes every socket, hangs up every wire session, and joins all
/// threads.
pub struct WireServer {
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    socks: Arc<Mutex<Vec<WireSocket>>>,
    stats: Arc<WireStats>,
    bound: WireAddr,
    unlink: Option<PathBuf>,
}

impl WireServer {
    /// The address the bridge is serving on.
    pub fn bound_addr(&self) -> &WireAddr {
        &self.bound
    }

    /// Server-side wire instrumentation, shared across all sockets.
    pub fn wire_stats(&self) -> &Arc<WireStats> {
        &self.stats
    }

    /// Stop accepting, sever every live socket, and join all threads.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        {
            let socks = self.socks.lock().unwrap_or_else(|e| e.into_inner());
            for s in socks.iter() {
                s.shutdown();
            }
        }
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let drained: Vec<JoinHandle<()>> = {
            let mut t = self.conn_threads.lock().unwrap_or_else(|e| e.into_inner());
            t.drain(..).collect()
        };
        for h in drained {
            let _ = h.join();
        }
        if let Some(p) = self.unlink.take() {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bridge a bound socket listener onto an in-process fabric: frames
/// arriving on accepted sockets become envelopes on `connector`'s fabric,
/// and agent replies flow back as Reply frames. The fabric's own
/// [`crate::serve`] must be running as usual — it cannot tell wire
/// sessions from local ones.
///
/// Panics if `connector` is itself a remote (wire) connector: a bridge
/// needs the server end of a local fabric.
pub fn serve_wire<Req, Resp>(
    listener: SocketListener,
    connector: &Connector<Req, Resp>,
) -> WireServer
where
    Req: Wire + Send + 'static,
    Resp: Wire + Send + 'static,
{
    let ConnectorMode::Local(fabric) = &connector.mode else {
        panic!("serve_wire needs a local fabric connector, not a remote one")
    };
    let fabric = fabric.clone();
    let bound = listener.bound_addr();
    let unlink = match &listener {
        SocketListener::Unix(_, p) => Some(p.clone()),
        SocketListener::Tcp(_) => None,
    };
    let shutdown = Arc::new(AtomicBool::new(false));
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let socks: Arc<Mutex<Vec<WireSocket>>> = Arc::new(Mutex::new(Vec::new()));
    let stats = Arc::new(WireStats::default());
    let rpc_stats = connector.stats.clone();
    let sessions = connector.sessions.clone();

    let sd = shutdown.clone();
    let th = conn_threads.clone();
    let sk = socks.clone();
    let st = stats.clone();
    let _ = listener.set_nonblocking();
    let accept_thread = std::thread::spawn(move || {
        while !sd.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok(sock) => {
                    let (Ok(r_sock), Ok(w_sock)) = (sock.try_clone(), sock.try_clone()) else {
                        continue;
                    };
                    sk.lock().unwrap_or_else(|e| e.into_inner()).push(sock);
                    // No fault injection on this side: the client's writes
                    // model the lossy network.
                    let writer = Arc::new(FrameWriter::new(w_sock, st.clone(), false));
                    let reader = spawn_server_reader(
                        r_sock,
                        writer,
                        fabric.clone(),
                        sessions.clone(),
                        rpc_stats.clone(),
                        st.clone(),
                    );
                    th.lock().unwrap_or_else(|e| e.into_inner()).push(reader);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(_) => break,
            }
        }
    });

    WireServer {
        shutdown,
        accept_thread: Some(accept_thread),
        conn_threads,
        socks,
        stats,
        bound,
        unlink,
    }
}

/// One live session behind a socket: its server-local fabric id and the
/// sender its requests go through.
struct WireSession<Req, Resp> {
    local: u64,
    tx: SessionTx<Req, Resp>,
}

/// Server reader: decode frames, map wire sessions to server-local fabric
/// sessions, and push envelopes into the fabric. On socket death every
/// live session is hung up so its server-side state is retired (open
/// transactions roll back) — a dropped client never leaks an agent.
fn spawn_server_reader<Req, Resp>(
    mut sock: WireSocket,
    writer: Arc<FrameWriter>,
    fabric: LocalFabric<Req, Resp>,
    session_ids: Arc<AtomicU64>,
    rpc_stats: Arc<crate::RpcStats>,
    stats: Arc<WireStats>,
) -> JoinHandle<()>
where
    Req: Wire + Send + 'static,
    Resp: Wire + Send + 'static,
{
    std::thread::spawn(move || {
        let mut sessions: HashMap<u64, WireSession<Req, Resp>> = HashMap::new();
        loop {
            let frame = match read_frame(&mut sock) {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(e) => {
                    if !matches!(e, WireError::Io(_)) {
                        stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    if let WireError::BadVersion { .. } = e {
                        stats.version_mismatches.fetch_add(1, Ordering::Relaxed);
                        obs::warn!("rpc::wire", "dropping connection: {e}");
                    }
                    break;
                }
            };
            stats.frame_rx(&frame);
            match frame.kind {
                FrameKind::Ping => {
                    let pong = Frame::new(FrameKind::Pong, frame.session, frame.corr, Vec::new());
                    let _ = writer.send(&pong);
                }
                FrameKind::Hangup => {
                    if let Some(sess) = sessions.remove(&frame.session) {
                        sess.tx.close(sess.local);
                        stats.hangups.fetch_add(1, Ordering::Relaxed);
                    }
                }
                FrameKind::Call | FrameKind::Post => {
                    let is_call = frame.kind == FrameKind::Call;
                    if is_call {
                        rpc_stats.calls.fetch_add(1, Ordering::Relaxed);
                    } else {
                        rpc_stats.posts.fetch_add(1, Ordering::Relaxed);
                    }
                    if frame.corrupt {
                        stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                        if is_call {
                            writer.send_status(frame.session, frame.corr, status::DECODE);
                        }
                        continue;
                    }
                    let req = match crate::decode_val::<Req>(&frame.payload) {
                        Ok(r) => r,
                        Err(_) => {
                            stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                            if is_call {
                                writer.send_status(frame.session, frame.corr, status::DECODE);
                            }
                            continue;
                        }
                    };
                    let reply = if is_call {
                        ReplyTo(Some(ReplyDest::Wire {
                            writer: writer.clone(),
                            session: frame.session,
                            corr: frame.corr,
                            encode: crate::encode_val::<Resp>,
                        }))
                    } else {
                        ReplyTo(None)
                    };
                    let ctx = frame
                        .trace()
                        .map(|(trace_id, span_id)| obs::trace::TraceCtx { trace_id, span_id });
                    deliver(
                        &fabric,
                        &mut sessions,
                        &session_ids,
                        frame.session,
                        req,
                        reply,
                        ctx,
                        &writer,
                    );
                }
                // Clients never send these; ignore.
                FrameKind::Reply | FrameKind::Pong => {}
            }
        }
        // Socket gone: hang up everything this socket was carrying.
        for (_, sess) in sessions.drain() {
            sess.tx.close(sess.local);
            stats.hangups.fetch_add(1, Ordering::Relaxed);
        }
        sock.shutdown();
    })
}

/// Deliver one decoded request into the fabric, opening the session on
/// first sight. `ctx` is the trace context the client stamped on the
/// frame; the fabric installs it on the handling agent thread so remote
/// spans parent under the caller's span.
#[allow(clippy::too_many_arguments)]
fn deliver<Req, Resp>(
    fabric: &LocalFabric<Req, Resp>,
    sessions: &mut HashMap<u64, WireSession<Req, Resp>>,
    session_ids: &Arc<AtomicU64>,
    wire_session: u64,
    req: Req,
    reply: ReplyTo<Resp>,
    ctx: Option<obs::trace::TraceCtx>,
    writer: &FrameWriter,
) {
    let corr = reply_corr(&reply);
    let sess = match sessions.entry(wire_session) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => {
            let local = session_ids.fetch_add(1, Ordering::Relaxed) + 1;
            match fabric.open(local, SESSION_QUEUE) {
                Ok(tx) => e.insert(WireSession { local, tx }),
                Err(_) => {
                    // The fabric's server is gone.
                    fail_reply(reply, wire_session, corr, writer, status::DISCONNECTED);
                    return;
                }
            }
        }
    };
    let env = Envelope { payload: Payload::Request(req), reply, ctx, session: sess.local };
    match sess.tx.send(env) {
        Ok(()) => {}
        Err(SendTimeoutError::Timeout(env)) => {
            fail_reply(env.reply, wire_session, corr, writer, status::OVERLOADED);
        }
        Err(SendTimeoutError::Disconnected(env)) => {
            // The agent already exited; fail the call rather than hang it.
            fail_reply(env.reply, wire_session, corr, writer, status::DISCONNECTED);
            sessions.remove(&wire_session);
        }
    }
}

fn reply_corr<Resp>(reply: &ReplyTo<Resp>) -> u64 {
    match &reply.0 {
        Some(ReplyDest::Wire { corr, .. }) => *corr,
        _ => 0,
    }
}

/// Consume a reply destination with an error status instead of letting its
/// drop path send the generic Disconnected.
fn fail_reply<Resp>(
    mut reply: ReplyTo<Resp>,
    session: u64,
    corr: u64,
    writer: &FrameWriter,
    code: u8,
) {
    if reply.0.take().is_some() && code != 0 {
        writer.send_status(session, corr, code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::on_request;
    use crate::wire::{put_u32, Reader};
    use crate::{fabric, serve, wire_connector, AgentModel};
    use std::sync::atomic::AtomicI64;

    impl Wire for i32 {
        fn encode(&self, out: &mut Vec<u8>) {
            put_u32(out, *self as u32)
        }
        fn decode(r: &mut Reader<'_>) -> Result<i32, WireError> {
            Ok(r.u32()? as i32)
        }
    }

    /// `obs::fault` is process-global: a one-shot trigger armed by one
    /// test can be consumed by another test's frame write. Every test
    /// that moves wire traffic takes this lock.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn unique_unix_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dlrpc-{tag}-{}-{n}.sock", std::process::id()))
    }

    /// Stand up a dedicated echo server bridged onto `addr`; returns what a
    /// test needs plus the guards keeping it alive.
    fn echo_server(addr: &WireAddr) -> (WireAddr, crate::ServerHandle, WireServer) {
        let (listener, connector) = fabric::<i32, i32>(AgentModel::Dedicated);
        let handle = serve(listener, || on_request(|req: i32, slot| slot.send(req * 2)));
        let sock = SocketListener::bind(addr).unwrap();
        let bound = sock.bound_addr();
        let bridge = serve_wire(sock, &connector);
        (bound, handle, bridge)
    }

    #[test]
    fn tcp_call_roundtrip() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (addr, _srv, _bridge) = echo_server(&WireAddr::Tcp("127.0.0.1:0".into()));
        let remote = wire_connector::<i32, i32>(addr);
        let conn = remote.connect().unwrap();
        assert_eq!(conn.call(21).unwrap(), 42);
        assert_eq!(conn.call_timeout(5, Duration::from_secs(5)).unwrap(), 10);
        assert!(conn.is_wire());
        conn.ping(Duration::from_secs(2)).unwrap();
    }

    #[test]
    fn unix_call_roundtrip_many_sessions_one_socket() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let path = unique_unix_path("echo");
        let (addr, _srv, bridge) = echo_server(&WireAddr::Unix(path.clone()));
        let remote = wire_connector::<i32, i32>(addr);
        // Many sessions, one socket: each connection gets its own dedicated
        // agent server-side, all multiplexed over a single socket pair.
        let conns: Vec<_> = (0..32).map(|_| remote.connect().unwrap()).collect();
        let mut joins = Vec::new();
        for (i, conn) in conns.into_iter().enumerate() {
            joins.push(std::thread::spawn(move || {
                for k in 0..20 {
                    let v = (i * 100 + k) as i32;
                    assert_eq!(conn.call(v).unwrap(), v * 2);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let stats = remote.wire_stats().unwrap();
        assert!(stats.frames_tx.load(Ordering::Relaxed) >= 640);
        assert!(bridge.wire_stats().frames_rx.load(Ordering::Relaxed) >= 640);
        drop(bridge);
        assert!(!path.exists(), "unix socket file unlinked on shutdown");
    }

    #[test]
    fn wire_client_drop_releases_dedicated_agent() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        struct Live(Arc<AtomicI64>);
        impl Drop for Live {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let live = Arc::new(AtomicI64::new(0));
        let (listener, connector) = fabric::<i32, i32>(AgentModel::Dedicated);
        let l = live.clone();
        let _srv = serve(listener, move || {
            l.fetch_add(1, Ordering::SeqCst);
            let guard = Live(l.clone());
            on_request(move |req: i32, slot| {
                let _ = &guard;
                slot.send(req)
            })
        });
        let sock = SocketListener::bind(&WireAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let bound = sock.bound_addr();
        let bridge = serve_wire(sock, &connector);
        let remote = wire_connector::<i32, i32>(bound);
        let conn = remote.connect().unwrap();
        assert_eq!(conn.call(7).unwrap(), 7);
        assert_eq!(live.load(Ordering::SeqCst), 1);
        // Dropping the wire client sends a Hangup frame; the bridge closes
        // the session's own queue and its pinned agent exits.
        drop(conn);
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while live.load(Ordering::SeqCst) != 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(live.load(Ordering::SeqCst), 0, "agent must exit after wire hangup");
        assert!(bridge.wire_stats().hangups.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn wire_pooled_roundtrip_and_socket_death_hangs_up_sessions() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let model = AgentModel::Pooled {
            workers: 2,
            queue_depth: 64,
            admission_timeout: Duration::from_millis(200),
        };
        let (listener, connector) = fabric::<i32, i32>(model);
        let pool = listener.pool_stats().clone();
        let _srv = serve(listener, || on_request(|req: i32, slot| slot.send(req + 1)));
        let sock = SocketListener::bind(&WireAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let bound = sock.bound_addr();
        let _bridge = serve_wire(sock, &connector);
        let remote = wire_connector::<i32, i32>(bound);
        {
            let c1 = remote.connect().unwrap();
            let c2 = remote.connect().unwrap();
            assert_eq!(c1.call(1).unwrap(), 2);
            assert_eq!(c2.call(10).unwrap(), 11);
            // Dropping the *connector's* mux (all conns + remote) severs the
            // socket; the server reader hangs up both live sessions.
            drop(c1);
            drop(c2);
        }
        drop(remote);
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while pool.hangups() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(pool.hangups() >= 2, "server must retire sessions when the socket dies");
    }

    #[test]
    fn garbage_to_server_does_not_kill_the_listener() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (addr, _srv, bridge) = echo_server(&WireAddr::Tcp("127.0.0.1:0".into()));
        let WireAddr::Tcp(tcp) = &addr else { unreachable!() };
        // A rogue peer spews garbage: the bridge must drop that socket and
        // keep serving everyone else.
        {
            let mut rogue = TcpStream::connect(tcp).unwrap();
            rogue.write_all(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n").unwrap();
            let mut buf = [0u8; 64];
            let _ = rogue.read(&mut buf); // server closes on us
        }
        let remote = wire_connector::<i32, i32>(addr);
        let conn = remote.connect().unwrap();
        assert_eq!(conn.call(4).unwrap(), 8, "healthy clients unaffected by a rogue peer");
        assert!(bridge.wire_stats().decode_errors.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn oversized_frame_to_server_is_rejected() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (addr, _srv, _bridge) = echo_server(&WireAddr::Tcp("127.0.0.1:0".into()));
        let WireAddr::Tcp(tcp) = &addr else { unreachable!() };
        let mut rogue = TcpStream::connect(tcp).unwrap();
        let mut bytes = Vec::new();
        put_u32(&mut bytes, crate::wire::MAX_FRAME + 7);
        bytes.extend_from_slice(&[0u8; 128]);
        rogue.write_all(&bytes).unwrap();
        let mut buf = [0u8; 16];
        // The server must close the connection (read returns 0/err), not
        // allocate the claimed 16MiB+ or hang.
        rogue.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert!(matches!(rogue.read(&mut buf), Ok(0) | Err(_)));
    }

    #[test]
    fn garbage_from_server_fails_calls_cleanly() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        // A fake "server" that answers every connection with garbage bytes:
        // parked callers must get a clean error, never a hang or a panic.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tcp = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming().take(2) {
                let mut s = stream.unwrap();
                let mut buf = [0u8; 256];
                let _ = s.read(&mut buf); // swallow the Call frame
                let _ = s.write_all(b"\xff\xfe\xfd\xfc not a frame at all");
                // Keep the socket open a moment so the client parses the
                // garbage rather than seeing an instant EOF.
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let remote = wire_connector::<i32, i32>(WireAddr::Tcp(tcp));
        let conn = remote.connect().unwrap();
        let err = conn.call_timeout(1, Duration::from_secs(5)).unwrap_err();
        assert!(
            matches!(err, RpcError::Disconnected | RpcError::Wire(_)),
            "garbage reply must surface as a clean error, got {err:?}"
        );
        let stats = remote.wire_stats().unwrap();
        assert!(stats.decode_errors() >= 1);
    }

    #[test]
    fn mid_frame_disconnect_fails_parked_caller() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        // Fake server sends *half* a frame then drops the socket: the
        // parked caller must observe Disconnected promptly.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tcp = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 256];
            let _ = s.read(&mut buf);
            // A frame that claims 100 bytes but delivers only the header.
            let mut partial = Vec::new();
            put_u32(&mut partial, 100);
            partial.extend_from_slice(&crate::wire::MAGIC.to_le_bytes());
            partial.push(crate::wire::VERSION);
            let _ = s.write_all(&partial);
            // drop(s): mid-frame EOF
        });
        let remote = wire_connector::<i32, i32>(WireAddr::Tcp(tcp));
        let conn = remote.connect().unwrap();
        let started = std::time::Instant::now();
        let err = conn.call_timeout(1, Duration::from_secs(10)).unwrap_err();
        assert_eq!(err, RpcError::Disconnected);
        assert!(started.elapsed() < Duration::from_secs(5), "must fail fast, not time out");
    }

    #[test]
    fn reconnect_after_server_restart() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let path = unique_unix_path("reconnect");
        let addr = WireAddr::Unix(path.clone());
        let (listener, connector) = fabric::<i32, i32>(AgentModel::Dedicated);
        let _srv = serve(listener, || on_request(|req: i32, slot| slot.send(req * 2)));
        let mut bridge = serve_wire(SocketListener::bind(&addr).unwrap(), &connector);
        let remote = wire_connector::<i32, i32>(addr.clone());
        let conn = remote.connect().unwrap();
        assert_eq!(conn.call(1).unwrap(), 2);
        assert_eq!(remote.epoch(), 0);
        // Server bridge goes away: in-flight endpoint dies...
        bridge.shutdown();
        assert!(conn.call(2).is_err());
        // ...and the reader thread says so, whether or not anyone calls.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while remote.epoch() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(remote.epoch(), 1, "one connection died: the peer's next incarnation");
        assert_eq!(connector.epoch(), 0, "an in-process peer cannot go away alone");
        // ...and comes back; a fresh connect() redials transparently.
        let _bridge2 = serve_wire(SocketListener::bind(&addr).unwrap(), &connector);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut ok = false;
        while std::time::Instant::now() < deadline {
            if let Ok(c) = remote.connect() {
                if c.call(3) == Ok(6) {
                    ok = true;
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(ok, "reconnect must succeed once the server is back");
        assert!(remote.wire_stats().unwrap().reconnects() >= 1);
    }

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("tcp://127.0.0.1:99").unwrap(),
            Endpoint::Tcp("127.0.0.1:99".into())
        );
        assert_eq!(
            Endpoint::parse("unix:///tmp/x.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(Endpoint::parse("inproc://dlfm1").unwrap(), Endpoint::Inproc("dlfm1".into()));
        assert!(Endpoint::parse("http://nope").is_err());
        assert!(Endpoint::parse("tcp://").is_err());
        assert!(matches!(Endpoint::parse("bogus"), Err(RpcError::Wire(_))));
    }

    #[test]
    fn wire_fault_reset_and_truncate_sever_cleanly() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (addr, _srv, _bridge) = echo_server(&WireAddr::Tcp("127.0.0.1:0".into()));
        let remote = wire_connector::<i32, i32>(addr);
        let conn = remote.connect().unwrap();
        assert_eq!(conn.call(1).unwrap(), 2);
        // Arm a one-shot reset: the next frame never hits the wire and the
        // socket drops; the caller gets a clean error.
        let g =
            obs::fault::install_guarded(1, &[("rpc.wire.reset", obs::fault::Trigger::Times(1))]);
        let err = conn.call_timeout(2, Duration::from_secs(5)).unwrap_err();
        assert!(matches!(err, RpcError::Disconnected | RpcError::Timeout), "got {err:?}");
        drop(g);
        // The connector redials on the next connect.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut ok = false;
        while std::time::Instant::now() < deadline {
            if let Ok(c) = remote.connect() {
                if c.call(5) == Ok(10) {
                    ok = true;
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(ok, "redial after injected reset");

        // Corruption: the frame arrives, fails its checksum, and exactly
        // that call fails; the session and socket survive.
        let conn = remote.connect().unwrap();
        // Let the previous session's queued Hangup frame drain first so the
        // one-shot trigger bites our Call frame, not bookkeeping traffic.
        std::thread::sleep(Duration::from_millis(50));
        let g =
            obs::fault::install_guarded(1, &[("rpc.wire.corrupt", obs::fault::Trigger::Times(1))]);
        let err = conn.call_timeout(3, Duration::from_secs(5)).unwrap_err();
        drop(g);
        assert!(matches!(err, RpcError::Wire(_)), "corrupt frame must fail the call, got {err:?}");
        assert_eq!(conn.call(4).unwrap(), 8, "stream survives a corrupt frame");
    }

    #[test]
    fn trace_ctx_rides_the_wire_to_the_agent_thread() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let seen: Arc<Mutex<Vec<Option<obs::TraceCtx>>>> = Arc::new(Mutex::new(Vec::new()));
        let (listener, connector) = fabric::<i32, i32>(AgentModel::Dedicated);
        let s = seen.clone();
        let _srv = serve(listener, move || {
            let s = s.clone();
            on_request(move |req: i32, slot| {
                s.lock().unwrap().push(obs::current_ctx());
                slot.send(req)
            })
        });
        let sock = SocketListener::bind(&WireAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let bound = sock.bound_addr();
        let _bridge = serve_wire(sock, &connector);
        let remote = wire_connector::<i32, i32>(bound);
        let conn = remote.connect().unwrap();

        // 1: caller outside any host span — conn.call's own Rpc span roots
        // a fresh trace, and that context crosses the wire.
        assert_eq!(conn.call(1).unwrap(), 1);

        // 2: traced caller — the remote agent joins the caller's trace.
        let root = obs::span_root(obs::Layer::Host, "wire_test_stmt");
        let root_ctx = root.ctx();
        assert_eq!(conn.call(2).unwrap(), 2);

        // 3: propagation disabled — same caller span, nothing crosses.
        let prev = set_wire_tracing(false);
        assert_eq!(conn.call(3).unwrap(), 3);
        set_wire_tracing(prev);
        drop(root);

        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 3);
        let fresh = seen[0].expect("a wire call always carries its Rpc span's context");
        assert_ne!(fresh.trace_id, root_ctx.trace_id, "no host span: a fresh trace is rooted");
        let ctx = seen[1].expect("traced call must install a context on the agent thread");
        assert_eq!(ctx.trace_id, root_ctx.trace_id, "remote spans share the host trace id");
        assert_ne!(ctx.span_id, 0);
        assert!(seen[2].is_none(), "disabled propagation must not leak a context");
    }

    #[test]
    fn version_mismatched_peer_fails_calls_with_both_versions_named() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        // A fake server that answers with a well-formed frame from wire
        // version 1 (24-byte header tail, no trace fields).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tcp = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 256];
            let _ = s.read(&mut buf); // swallow the Call frame
            let payload = [status::OK, 0, 0, 0, 0];
            let mut tail = Vec::new();
            tail.extend_from_slice(&crate::wire::MAGIC.to_le_bytes());
            tail.push(1); // old wire version
            tail.push(3); // FrameKind::Reply
            tail.extend_from_slice(&1u64.to_le_bytes()); // session
            tail.extend_from_slice(&1u64.to_le_bytes()); // corr
            tail.extend_from_slice(&crate::wire::checksum(&payload).to_le_bytes());
            tail.extend_from_slice(&payload);
            let mut bytes = Vec::new();
            put_u32(&mut bytes, tail.len() as u32);
            bytes.extend_from_slice(&tail);
            let _ = s.write_all(&bytes);
            // Keep the socket open so the client parses the frame rather
            // than seeing an instant EOF.
            std::thread::sleep(Duration::from_millis(200));
        });
        let remote = wire_connector::<i32, i32>(WireAddr::Tcp(tcp));
        let conn = remote.connect().unwrap();
        let err = conn.call_timeout(1, Duration::from_secs(5)).unwrap_err();
        let RpcError::Wire(msg) = &err else { panic!("want RpcError::Wire, got {err:?}") };
        assert!(msg.contains("v1") && msg.contains("v2"), "must name both versions: {msg}");
        // Subsequent calls on the dead connection report the same reason,
        // not a bare Disconnected.
        let err2 = conn.call_timeout(2, Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err2, RpcError::Wire(m) if m.contains("version mismatch")));
        assert!(remote.wire_stats().unwrap().version_mismatches.load(Ordering::Relaxed) >= 1);
    }
}
