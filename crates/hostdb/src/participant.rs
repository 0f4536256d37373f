//! The host's one seam to its DLFMs. The host is the two-phase-commit
//! coordinator and each DLFM a resource manager behind a few verbs
//! (paper §3.3); this module is every use of those verbs.
//!
//! It owns the connections — attached servers, the idle pool, and the
//! [`Conns`] a session, a resolver pass or a migration holds — and it is
//! the only code that reads a [`DlfmResponse`]: each reply becomes a typed
//! answer or a [`HostError`] here, so every caller meets the same failure
//! rules. Requests to several servers go out through one split-phase
//! [`Conns::scatter`].

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::time::Duration;

use dlfm::api::LinkRow;
use dlfm::{DlfmError, DlfmRequest, DlfmResponse, GroupSpec, TelemetryKind};
use dlrpc::{ClientConn, Connector};
use parking_lot::Mutex;

use crate::engine::HostDb;
use crate::error::{HostError, HostResult};
use crate::url::DatalinkUrl;

/// Connection type to a DLFM.
pub(crate) type DlfmConn = ClientConn<DlfmRequest, DlfmResponse>;

/// Process-global registry behind `inproc://name` URLs: in-process DLFM
/// connectors published by whoever hosts the server in this process.
fn inproc_registry() -> &'static Mutex<HashMap<String, Connector<DlfmRequest, DlfmResponse>>> {
    static REGISTRY: std::sync::OnceLock<
        Mutex<HashMap<String, Connector<DlfmRequest, DlfmResponse>>>,
    > = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Publish an in-process DLFM connector under `name`, so
/// [`HostDb::attach_dlfm_url`] can resolve `inproc://name`. Re-publishing
/// a name replaces the previous connector.
pub fn register_inproc(name: &str, connector: Connector<DlfmRequest, DlfmResponse>) {
    inproc_registry().lock().insert(name.to_string(), connector);
}

impl HostDb {
    /// Register a DLFM (file server) under a name used in datalink URLs.
    pub fn attach_dlfm(&self, server: &str, connector: Connector<DlfmRequest, DlfmResponse>) {
        self.inner.dlfms.write().insert(server.to_string(), connector);
        self.inner.tokens.clear();
    }

    /// Register a DLFM by connection URL: `tcp://host:port` and
    /// `unix:///path.sock` dial the wire transport (redialing on broken
    /// sockets), `inproc://name` resolves a connector previously published
    /// with [`register_inproc`]. This is how a host process attaches to a
    /// DLFM it does not host in its own address space.
    pub fn attach_dlfm_url(&self, server: &str, url: &str) -> HostResult<()> {
        let connector = match dlrpc::Endpoint::parse(url)? {
            dlrpc::Endpoint::Inproc(name) => inproc_registry()
                .lock()
                .get(&name)
                .cloned()
                .ok_or_else(|| HostError::Rpc(format!("no in-process DLFM named {name:?}")))?,
            ep => {
                let addr = ep.wire_addr().expect("tcp/unix endpoints have a wire address");
                dlrpc::wire_connector::<DlfmRequest, DlfmResponse>(addr)
            }
        };
        self.attach_dlfm(server, connector);
        Ok(())
    }

    pub(crate) fn connector_for(
        &self,
        server: &str,
    ) -> HostResult<Connector<DlfmRequest, DlfmResponse>> {
        self.inner
            .dlfms
            .read()
            .get(server)
            .cloned()
            .ok_or_else(|| HostError::Usage(format!("no DLFM attached for server {server}")))
    }

    /// Wire-transport instrumentation of `server`'s connector, when it is
    /// socket-backed (`None` for in-process connectors).
    pub fn wire_stats(&self, server: &str) -> Option<std::sync::Arc<dlrpc::WireStats>> {
        self.inner.dlfms.read().get(server).and_then(|c| c.wire_stats().cloned())
    }

    /// Names of all attached DLFM servers.
    pub fn servers(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.dlfms.read().keys().cloned().collect();
        v.sort();
        v
    }

    fn fresh_conn(&self, server: &str) -> HostResult<DlfmConn> {
        let conn = self.connector_for(server)?.connect()?;
        match conn.call(DlfmRequest::Connect { dbid: self.inner.config.dbid })? {
            DlfmResponse::Ok => Ok(conn),
            other => Err(HostError::Rpc(format!("connect failed: {other:?}"))),
        }
    }

    /// Check a connection to `server` out of the pool, opening a fresh one
    /// only when no idle connection is available. Wire-backed connections
    /// are ping-probed first: the peer may have died since checkin, and a
    /// retired conn here lets `fresh_conn` redial the socket instead of
    /// handing the caller a dead multiplexer.
    fn checkout_conn(&self, server: &str) -> HostResult<DlfmConn> {
        while let Some(conn) = self.inner.conn_pool.lock().get_mut(server).and_then(Vec::pop) {
            if conn.is_wire() && conn.ping(Duration::from_millis(200)).is_err() {
                self.inner.metrics.conn_retired.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.inner.metrics.conn_pool_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(conn);
        }
        self.inner.metrics.conn_pool_misses.fetch_add(1, Ordering::Relaxed);
        self.fresh_conn(server)
    }

    /// Return a connection for reuse. Health-checked with a quick Ping so
    /// a broken connection is retired here instead of poisoning the next
    /// checkout; also retired when the pool is at capacity.
    fn checkin_conn(&self, server: &str, conn: DlfmConn) {
        // Wire-backed connections probe with a transport-level Ping frame
        // (answered by the peer's reader thread, no agent round trip);
        // in-process ones must go through the agent to prove it is alive.
        let probe = Duration::from_millis(200);
        let healthy = self.inner.config.conn_pool_size > 0
            && if conn.is_wire() {
                conn.ping(probe).is_ok()
            } else {
                matches!(conn.call_timeout(DlfmRequest::Ping, probe), Ok(DlfmResponse::Ok))
            };
        if healthy {
            let mut pool = self.inner.conn_pool.lock();
            let idle = pool.entry(server.to_string()).or_default();
            if idle.len() < self.inner.config.conn_pool_size {
                idle.push(conn);
                return;
            }
        }
        self.inner.metrics.conn_retired.fetch_add(1, Ordering::Relaxed);
    }

    /// Idle pooled connections across all servers (gauge).
    pub fn conn_pool_idle(&self) -> usize {
        self.inner.conn_pool.lock().values().map(Vec::len).sum()
    }

    /// Record (and log) an RPC failure on a path that must not abort the
    /// caller — phase-2 commit, abort, backout, indoubt resolution.
    pub(crate) fn note_rpc_error(&self, context: &str, server: &str, err: &dyn std::fmt::Display) {
        self.inner.metrics.host_rpc_errors.fetch_add(1, Ordering::Relaxed);
        obs::warn!("hostdb::rpc", "{context} failed on {server}: {err}");
    }

    /// Pull one telemetry document from an attached DLFM over its normal
    /// RPC transport (pooled connection; a fresh dial when the pool is
    /// empty). A failure surfaces as an error — callers render the shard
    /// as DOWN rather than crashing.
    pub fn fetch_telemetry(&self, server: &str, kind: TelemetryKind) -> HostResult<String> {
        let result = Conns::new(self).call(server, DlfmRequest::FetchTelemetry { kind });
        match result {
            Ok(DlfmResponse::Telemetry(text)) => Ok(text),
            other => {
                self.inner.metrics.telemetry_scrape_errors.fetch_add(1, Ordering::Relaxed);
                Err(other.map_or_else(|e| e, refused))
            }
        }
    }
}

/// One datalink operation performed in the current transaction, tracked so
/// savepoint rollback can send the matching `in_backout` request (§3.2).
#[derive(Debug, Clone)]
pub(crate) struct DlOp {
    /// For a link, the (table, column) it is recorded under in
    /// `sys_datalinks`; `None` for an unlink.
    pub link: Option<(String, String)>,
    pub url: DatalinkUrl,
    /// The shard the operation was routed to (the URL's server name when
    /// hash routing is disabled); backout must target the same shard.
    pub shard: String,
    pub rec_id: i64,
    pub grp_id: i64,
}

impl DlOp {
    /// The DLFM request that performs this operation for `xid` — or, with
    /// `in_backout`, undoes it (§3.2).
    fn request(&self, xid: i64, in_backout: bool) -> DlfmRequest {
        let (rec_id, grp_id, filename) = (self.rec_id, self.grp_id, self.url.path.clone());
        if self.link.is_some() {
            DlfmRequest::LinkFile { xid, rec_id, grp_id, filename, in_backout }
        } else {
            DlfmRequest::UnlinkFile { xid, rec_id, grp_id, filename, in_backout }
        }
    }
}

/// A participant's phase-1 answer: `Ok(read_only)` when it prepared —
/// a read-only one needs no phase 2 — or why there is no yes.
pub(crate) type Vote = HostResult<bool>;

/// How a participant answered a message that expects a bare `Ok`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ack {
    /// It did.
    Done,
    /// A DLFM error, or a reply of the wrong kind; the connection is fine.
    Refused,
    /// Lost in transit (or no connection): the connection is retired.
    Lost,
}

/// One shard's answer to its batch of a statement round: how many
/// operations it performed, counted from the first; why the next one was
/// not; and the vote that closed the batch, if one did.
pub(crate) type Batched = (usize, Option<HostError>, Option<Vote>);

/// A DLFM-side error as the statement's error; a severe (retryable-class)
/// one has already cost the DLFM its sub-transaction.
fn dlfm_error(error: DlfmError) -> HostError {
    let txn_rolled_back = matches!(&error, DlfmError::Db { retryable: true, .. });
    HostError::Dlfm { error, txn_rolled_back }
}

/// A reply that is not the one its request expects: a DLFM error (which
/// cost no sub-transaction), or a reply no such request gets.
fn refused(reply: DlfmResponse) -> HostError {
    match reply {
        DlfmResponse::Err(error) => HostError::Dlfm { error, txn_rolled_back: false },
        other => HostError::Rpc(format!("unexpected {other:?}")),
    }
}

/// A reply that should have been a bare `Ok`.
fn ok(reply: DlfmResponse) -> HostResult<()> {
    match reply {
        DlfmResponse::Ok => Ok(()),
        other => Err(refused(other)),
    }
}

/// The DLFM connections one caller holds — a session, a resolver pass, a
/// migration — at most one per server, checked out of the host's pool on
/// first use and checked back in when dropped.
pub(crate) struct Conns {
    host: HostDb,
    open: HashMap<String, DlfmConn>,
}

impl Drop for Conns {
    fn drop(&mut self) {
        // Each is health-checked at checkin; broken ones are retired.
        for (server, conn) in self.open.drain() {
            self.host.checkin_conn(&server, conn);
        }
    }
}

impl Conns {
    pub(crate) fn new(host: &HostDb) -> Conns {
        Conns { host: host.clone(), open: HashMap::new() }
    }

    fn conn(&mut self, server: &str) -> HostResult<&DlfmConn> {
        if !self.open.contains_key(server) {
            // Reuse an idle pooled connection when one exists; under the
            // DLFM's dedicated agent model a fresh one costs an agent thread
            // pinned to it.
            let conn = self.host.checkout_conn(server)?;
            self.open.insert(server.to_string(), conn);
        }
        Ok(&self.open[server])
    }

    /// One request and its reply. A transport failure keeps the
    /// connection: inside a transaction, later uses must fail too instead
    /// of continuing on a fresh DLFM session (a pooled holder's checkin
    /// retires it).
    fn call(&mut self, server: &str, req: DlfmRequest) -> HostResult<DlfmResponse> {
        Ok(self.conn(server)?.call(req)?)
    }

    /// Send each server its request, and only then gather every reply: all
    /// requests are on their way before the first reply is awaited, so N
    /// participants cost the slowest one's service time, not the sum (one
    /// participant is the same code). With `post` the request is posted
    /// instead — the §4 asynchronous-commit ablation — and reported as
    /// `Ok`: there is no ack to await.
    fn scatter<'a>(
        &mut self,
        sends: impl IntoIterator<Item = (&'a String, DlfmRequest)>,
        post: bool,
    ) -> impl Iterator<Item = (&'a String, HostResult<DlfmResponse>)> {
        let sent: Vec<_> = sends
            .into_iter()
            .map(|(server, req)| {
                let sent = self.conn(server).and_then(|conn| {
                    if post {
                        conn.post(req)?;
                        Ok(None)
                    } else {
                        Ok(Some(conn.start(req)?))
                    }
                });
                (server, sent)
            })
            .collect();
        sent.into_iter().map(|(server, sent)| {
            let reply = sent.and_then(|pending| match pending {
                Some(call) => Ok(call.wait(None)?),
                None => Ok(DlfmResponse::Ok),
            });
            (server, reply)
        })
    }

    /// The statement round: each shard's operations as one `Batch`, sent
    /// to every shard at once — or, `in_backout`, the requests that undo
    /// them. With `closing` each batch ends with the shard's `Prepare`:
    /// the unsolicited vote. A failed batch keeps its connection (see
    /// [`Self::call`]), except that a closing batch lost in transit is a
    /// vote lost in transit. A backout that fails is noted.
    pub(crate) fn round<'m>(
        &mut self,
        xid: i64,
        batches: &'m BTreeMap<&String, Vec<&DlOp>>,
        in_backout: bool,
        closing: bool,
    ) -> Vec<(&'m String, Batched)> {
        let sends = batches.iter().map(|(shard, ops)| {
            let mut members = Vec::with_capacity(ops.len() + 1);
            members.extend(ops.iter().map(|op| op.request(xid, in_backout)));
            if closing {
                members.push(DlfmRequest::Prepare { xid });
            }
            (*shard, DlfmRequest::Batch(members))
        });
        self.scatter(sends, false)
            .map(|(shard, reply)| {
                let batched = self.read_batch(shard, batches[shard].len(), reply, closing);
                if let (true, Some(e)) = (in_backout, &batched.1) {
                    self.host.note_rpc_error("backout", shard, e);
                }
                (shard, batched)
            })
            .collect()
    }

    /// What a shard's reply to a batch of `ops` operations (plus, when
    /// `closing`, the Prepare) says.
    fn read_batch(
        &mut self,
        shard: &String,
        ops: usize,
        reply: HostResult<DlfmResponse>,
        closing: bool,
    ) -> Batched {
        let mut entries = match reply {
            Ok(DlfmResponse::Batch(entries)) => entries.into_iter(),
            // A refused batch fails its first member.
            Ok(other) => vec![other].into_iter(),
            Err(e) if closing => return (0, None, Some(self.read_vote(shard, Err(e)))),
            Err(e) => return (0, Some(e), None),
        };
        for done in 0..ops {
            let failure = match entries.next() {
                Some(DlfmResponse::Ok) => continue,
                Some(DlfmResponse::Err(e)) => dlfm_error(e),
                other => HostError::Rpc(format!("unexpected batch entry {other:?}")),
            };
            return (done, Some(failure), None);
        }
        let no_vote = || HostError::Rpc("batch reply has no vote".into());
        let vote = closing.then(|| self.read_vote(shard, entries.next().ok_or_else(no_vote)));
        (ops, None, vote)
    }

    fn read_vote(&mut self, server: &String, reply: HostResult<DlfmResponse>) -> Vote {
        match reply {
            Ok(DlfmResponse::Prepared { read_only }) => Ok(read_only),
            Ok(DlfmResponse::Err(e)) => {
                Err(HostError::PrepareFailed { server: server.clone(), reason: e.to_string() })
            }
            Ok(other) => Err(HostError::Rpc(format!("unexpected prepare response {other:?}"))),
            // Lost in transit: the vote is unknown, so it counts as a "no".
            // The connection is retired, so the Abort that follows goes over
            // a fresh one (a prepare that did land is covered by presumed
            // abort: no commit record exists).
            Err(e) => {
                self.open.remove(server);
                Err(e)
            }
        }
    }

    /// Phase 1 as a round of its own: every server prepares at once.
    pub(crate) fn prepare(&mut self, xid: i64, servers: &BTreeSet<String>) -> Vec<(String, Vote)> {
        let sends = servers.iter().map(|s| (s, DlfmRequest::Prepare { xid }));
        self.scatter(sends, false)
            .map(|(server, reply)| (server.clone(), self.read_vote(server, reply)))
            .collect()
    }

    /// Send each server a message that expects a bare `Ok` (see
    /// [`Self::scatter`]). Anything else is noted under `context`, and a
    /// message lost in transit retires its connection: the next use
    /// redials.
    fn acks<'a>(
        &mut self,
        context: &str,
        sends: impl IntoIterator<Item = (&'a String, DlfmRequest)>,
        post: bool,
    ) -> Vec<(&'a String, Ack)> {
        self.scatter(sends, post)
            .map(|(server, reply)| {
                let (ack, e) = match reply {
                    Ok(DlfmResponse::Ok) => return (server, Ack::Done),
                    Ok(other) => (Ack::Refused, refused(other)),
                    Err(e) => {
                        self.open.remove(server);
                        (Ack::Lost, e)
                    }
                };
                self.host.note_rpc_error(context, server, &e);
                (server, ack)
            })
            .collect()
    }

    /// Phase 2: every participant commits at once; posted with `post`.
    pub(crate) fn commit<'a>(
        &mut self,
        xid: i64,
        servers: &'a [String],
        post: bool,
    ) -> Vec<(&'a String, Ack)> {
        self.acks("phase-2 commit", servers.iter().map(|s| (s, DlfmRequest::Commit { xid })), post)
    }

    /// Every server aborts at once — prepared participants included.
    pub(crate) fn abort(&mut self, xid: i64, servers: &BTreeSet<String>) {
        self.acks("abort", servers.iter().map(|s| (s, DlfmRequest::Abort { xid })), false);
    }

    /// The resolver's decision for one in-doubt transaction on `server`.
    pub(crate) fn resolve(&mut self, server: &String, xid: i64, commit: bool) -> Ack {
        let req = if commit { DlfmRequest::Commit { xid } } else { DlfmRequest::Abort { xid } };
        self.acks("indoubt resolution", [(server, req)], false)[0].1
    }

    /// The transactions in doubt at `server`.
    pub(crate) fn list_indoubt(&mut self, server: &str) -> HostResult<Vec<i64>> {
        match self.call(server, DlfmRequest::ListIndoubt)? {
            DlfmResponse::Indoubt(xids) => Ok(xids),
            other => Err(refused(other)),
        }
    }

    /// Mark a file group deleted within transaction `xid` (DROP TABLE).
    pub(crate) fn delete_group(
        &mut self,
        server: &str,
        xid: i64,
        grp_id: i64,
        rec_id: i64,
    ) -> HostResult<()> {
        match self.call(server, DlfmRequest::DeleteGroup { xid, grp_id, rec_id })? {
            DlfmResponse::Err(e) => Err(dlfm_error(e)),
            other => ok(other),
        }
    }

    /// A read token for a fully-controlled linked file.
    pub(crate) fn issue_token(&mut self, server: &str, filename: &str) -> HostResult<String> {
        match self.call(server, DlfmRequest::IssueToken { filename: filename.to_string() })? {
            DlfmResponse::Token(token) => Ok(token),
            other => Err(refused(other)),
        }
    }

    /// Register a file group (idempotent at the DLFM).
    pub(crate) fn register_group(&mut self, server: &str, spec: GroupSpec) -> HostResult<()> {
        ok(self.call(server, DlfmRequest::RegisterGroup(spec))?)
    }

    /// The linked entries under `prefix` (deleted with them, `remove`).
    pub(crate) fn export_links(
        &mut self,
        server: &str,
        prefix: &str,
        remove: bool,
    ) -> HostResult<Vec<LinkRow>> {
        let req = DlfmRequest::ExportLinks { prefix: prefix.to_string(), remove };
        match self.call(server, req)? {
            DlfmResponse::Links(rows) => Ok(rows),
            other => Err(refused(other)),
        }
    }

    /// Recreate exported entries (idempotent at the DLFM).
    pub(crate) fn import_links(&mut self, server: &str, entries: Vec<LinkRow>) -> HostResult<()> {
        match self.call(server, DlfmRequest::ImportLinks { entries })? {
            DlfmResponse::Count(_) => Ok(()),
            other => Err(refused(other)),
        }
    }

    /// A Backup or Restore step (`BeginBackup`, `EndBackup`, `RestoreTo`).
    pub(crate) fn utility(&mut self, server: &str, req: DlfmRequest) -> HostResult<()> {
        ok(self.call(server, req)?)
    }

    /// The Reconcile utility at `server`: the files of host references it
    /// could not back, and the links it dropped because the host no longer
    /// has them.
    pub(crate) fn reconcile(
        &mut self,
        server: &str,
        entries: Vec<(String, i64)>,
    ) -> HostResult<(Vec<String>, Vec<String>)> {
        match self.call(server, DlfmRequest::Reconcile { entries })? {
            DlfmResponse::ReconcileReport { broken_host_refs, orphans_unlinked } => {
                Ok((broken_host_refs.into_iter().map(|(f, _)| f).collect(), orphans_unlinked))
            }
            other => Err(refused(other)),
        }
    }
}
