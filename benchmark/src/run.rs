//! The closed-loop clients: each issues its next transaction only when
//! the previous one returned, checks every result it gets back, and keeps
//! raw latencies with completion times so the caller can cut windows and
//! slices afterwards.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hostdb::HostSession;
use minidb::Value;

use crate::gen::{file_content, Action, Gen, Plan, Stmt};
use crate::stand::{Stand, APP_USER, SQL_INSERT};

const SQL_UPDATE: &str = "UPDATE media SET clip = ? WHERE id = ?";
const SQL_DELETE: &str = "DELETE FROM media WHERE id = ?";
const SQL_SELECT: &str = "SELECT clip FROM media WHERE id = ?";

/// One committed transaction.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, µs since the run's epoch.
    pub end_us: u64,
    pub latency_us: u32,
    pub is_read: bool,
}

/// One benchmark-side span: a call into a layer's public function.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub dur_us: u32,
    /// Transaction the span belongs to (per-client sequence number).
    pub txn: u32,
    /// 1-based index of the parent span in the same client's list, 0 for
    /// a transaction's root span.
    pub parent: u32,
}

/// A client's state across phases: its place in the op stream, the rows
/// it has actually committed, and everything it measured.
pub struct Client {
    pub index: usize,
    pub gen: Gen,
    /// slot → version of the file its committed row links.
    pub model: HashMap<i64, u32>,
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, verbatim.
    pub errors: Vec<String>,
}

impl Client {
    pub fn new(stand: &Stand, seed: u64, index: usize) -> Client {
        let layout = &stand.layout;
        Client {
            index,
            gen: Gen::new(stand.spec, layout, seed, index),
            model: (0..layout.preload).map(|i| (layout.slot_id(index, i), 0)).collect(),
            samples: Vec::new(),
            spans: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }
}

/// When a phase ends.
pub enum Until {
    /// The caller's closure returns (it sleeps through the window).
    Stopped,
    /// This many transactions were attempted in total across clients.
    Txns(u64),
}

/// Run every client until `until`; `during` runs on the calling thread
/// meanwhile (it sleeps through the window and reads CPU time at its
/// edges). With `traced`, clients record a span around every call into
/// `hostdb` and the DLFF.
pub fn run_phase<R>(
    stand: &Stand,
    clients: &mut [Client],
    epoch: Instant,
    until: Until,
    traced: bool,
    during: impl FnOnce() -> R,
) -> R {
    let stop = AtomicBool::new(false);
    let budget = match until {
        Until::Stopped => None,
        Until::Txns(n) => Some(AtomicU64::new(n)),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (stop, budget) = (&stop, budget.as_ref());
                scope.spawn(move || client_loop(stand, client, epoch, stop, budget, traced))
            })
            .collect();
        let out = during();
        if budget.is_none() {
            stop.store(true, Ordering::SeqCst);
        }
        for h in handles {
            h.join().expect("client thread must not panic");
        }
        out
    })
}

fn client_loop(
    stand: &Stand,
    client: &mut Client,
    epoch: Instant,
    stop: &AtomicBool,
    budget: Option<&AtomicU64>,
    traced: bool,
) {
    let mut session = stand.host.session();
    loop {
        match budget {
            None if stop.load(Ordering::Relaxed) => break,
            Some(left) => {
                let took =
                    left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
                if took.is_err() {
                    break;
                }
            }
            None => {}
        }
        let plan = client.gen.next_plan();
        // The application creates a file, then links it; creation is not
        // part of the transaction it times.
        if let Plan::Write { stmts, n } = &plan {
            for s in &stmts[..*n] {
                if s.action != Action::Delete {
                    let path = stand.layout.path(s.slot, s.version);
                    stand
                        .fs
                        .create(&path, APP_USER, &file_content(s.slot, s.version))
                        .expect("every link uses a fresh file name");
                }
            }
        }
        client.attempted += 1;
        let mut tracer = traced.then_some(Tracer {
            spans: &mut client.spans,
            epoch,
            txn: client.attempted as u32,
        });
        let start = Instant::now();
        let result = match &plan {
            Plan::Read { slot, .. } => {
                let expect = client.model.get(slot).copied();
                run_read(stand, &mut session, *slot, expect, &mut tracer)
            }
            Plan::Write { stmts, n } => run_write(stand, &mut session, &stmts[..*n], &mut tracer),
        };
        let latency = start.elapsed();
        match result {
            Ok(()) => {
                if let Plan::Write { stmts, n } = &plan {
                    for s in &stmts[..*n] {
                        match s.action {
                            Action::Delete => client.model.remove(&s.slot),
                            _ => client.model.insert(s.slot, s.version),
                        };
                    }
                }
                client.samples.push(Sample {
                    end_us: epoch.elapsed().as_micros() as u64,
                    latency_us: latency.as_micros().min(u128::from(u32::MAX)) as u32,
                    is_read: matches!(plan, Plan::Read { .. }),
                });
            }
            Err(e) => {
                client.failed += 1;
                if client.errors.len() < 5 {
                    client.errors.push(format!("client {} {plan:?}: {e}", client.index));
                }
            }
        }
    }
}

struct Tracer<'a> {
    spans: &'a mut Vec<Span>,
    epoch: Instant,
    txn: u32,
}

/// Run `f`, recording a span named `name` under `parent` when tracing.
fn spanned<T>(
    tracer: &mut Option<Tracer<'_>>,
    name: &'static str,
    parent: u32,
    f: impl FnOnce() -> T,
) -> T {
    let Some(t) = tracer else { return f() };
    let start = Instant::now();
    let out = f();
    let dur = start.elapsed();
    t.spans.push(Span {
        name,
        start_us: start.duration_since(t.epoch).as_micros() as u64,
        dur_us: dur.as_micros() as u32,
        txn: t.txn,
        parent,
    });
    out
}

/// Reserve the transaction's root span so children can name it as parent;
/// `close_root` fills in its duration.
fn open_root(tracer: &mut Option<Tracer<'_>>, name: &'static str) -> (u32, Instant) {
    let now = Instant::now();
    let Some(t) = tracer else { return (0, now) };
    t.spans.push(Span {
        name,
        start_us: now.duration_since(t.epoch).as_micros() as u64,
        dur_us: 0,
        txn: t.txn,
        parent: 0,
    });
    (t.spans.len() as u32, now)
}

fn close_root(tracer: &mut Option<Tracer<'_>>, root: (u32, Instant)) {
    if let Some(t) = tracer {
        t.spans[root.0 as usize - 1].dur_us = root.1.elapsed().as_micros() as u32;
    }
}

fn run_read(
    stand: &Stand,
    session: &mut HostSession,
    slot: i64,
    expect_version: Option<u32>,
    tracer: &mut Option<Tracer<'_>>,
) -> Result<(), String> {
    let root = open_root(tracer, "txn_read");
    let result = (|| {
        let version = expect_version.ok_or("read of a slot with no committed row")?;
        let rows = spanned(tracer, "stmt_select", root.0, || {
            session.query(SQL_SELECT, &[Value::Int(slot)])
        });
        let rows = rows.map_err(|e| e.to_string())?;
        let url = match rows.first().and_then(|r| r.first()) {
            Some(Value::Str(url)) => url.clone(),
            other => return Err(format!("select of row {slot} returned {other:?}")),
        };
        if url != stand.layout.url(slot, version) {
            return Err(format!("row {slot} links {url}, expected version {version}"));
        }
        let token = spanned(tracer, "read_token", root.0, || session.read_token(&url));
        let token = token.map_err(|e| e.to_string())?;
        let path = stand.layout.path(slot, version);
        let dlff = stand.shards[stand.layout.group_of(slot)].dlff();
        let bytes =
            spanned(tracer, "dlff_read", root.0, || dlff.read(&path, APP_USER, Some(&token)));
        let bytes = bytes.map_err(|e| e.to_string())?;
        if bytes != file_content(slot, version) {
            return Err(format!("file {path} has the wrong content"));
        }
        Ok(())
    })();
    close_root(tracer, root);
    result
}

fn run_write(
    stand: &Stand,
    session: &mut HostSession,
    stmts: &[Stmt],
    tracer: &mut Option<Tracer<'_>>,
) -> Result<(), String> {
    let root = open_root(tracer, "txn_write");
    let explicit = stmts.len() > 1;
    let result = (|| {
        if explicit {
            spanned(tracer, "begin", root.0, || session.begin()).map_err(|e| e.to_string())?;
        }
        for s in stmts {
            let (name, sql, params) = match s.action {
                Action::Insert => (
                    "stmt_insert",
                    SQL_INSERT,
                    vec![
                        Value::Int(s.slot),
                        Value::str(format!("clip {}", s.slot)),
                        Value::str(stand.layout.url(s.slot, s.version)),
                    ],
                ),
                Action::Update => (
                    "stmt_update",
                    SQL_UPDATE,
                    vec![Value::str(stand.layout.url(s.slot, s.version)), Value::Int(s.slot)],
                ),
                Action::Delete => ("stmt_delete", SQL_DELETE, vec![Value::Int(s.slot)]),
            };
            let done = spanned(tracer, name, root.0, || session.exec_params(sql, &params));
            let affected = done.map_err(|e| e.to_string())?.count();
            if affected != 1 {
                return Err(format!("{:?} of row {} affected {affected} rows", s.action, s.slot));
            }
        }
        if explicit {
            spanned(tracer, "commit", root.0, || session.commit()).map_err(|e| e.to_string())?;
        }
        Ok(())
    })();
    if result.is_err() && explicit {
        session.rollback();
    }
    close_root(tracer, root);
    result
}

/// Process CPU time (user + system) so far, from `/proc/self/stat`.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in clock ticks of 1/100 s.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Peak resident set size in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
