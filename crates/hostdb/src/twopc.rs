//! The presumed-abort two-phase-commit coordinator (paper §3.3), written
//! against the participant verbs of [`crate::participant`].
//!
//! Phase 2 exists once ([`phase2`]): a session's commit and the resolver's
//! re-drive of an unfinished decision run the same function. The resolver
//! then settles what the DLFMs still hold in doubt by presumed abort.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::coordlog::CoordRecord;
use crate::engine::{HostDb, HostSession, HostTxn};
use crate::error::{HostError, HostResult};
use crate::participant::{Ack, Conns};

/// Phase 2 of a decided commit: tell every participant at once — posted
/// instead under the §4 asynchronous-commit ablation — and append the
/// `End` record only if every one acknowledged, so the resolver keeps
/// re-driving the rest. Returns how many did not acknowledge.
///
/// An ack is not durability: a DLFM commits phase 2 lazily. One that loses
/// the commit in a crash lists the transaction in doubt again, and the
/// resolver commits it from the `Commit` record, which `End` does not hide.
fn phase2(host: &HostDb, conns: &mut Conns, xid: i64, participants: &[String]) -> usize {
    let post = !host.synchronous_commit();
    let mut unacked = 0;
    for (_, ack) in conns.commit(xid, participants, post) {
        if ack == Ack::Lost {
            host.inner.metrics.phase2_transport_errors.fetch_add(1, Ordering::Relaxed);
        }
        // A DLFM-side failure leaves the participant prepared until the
        // resolver re-drives it.
        unacked += usize::from(ack != Ack::Done);
    }
    if unacked == 0 {
        host.inner.coord_log.append(CoordRecord::End { xid });
    }
    unacked
}

impl HostSession {
    /// Commit: presumed-abort two-phase commit across every DLFM this
    /// transaction touched, with the host's own commit in the middle.
    pub fn commit(&mut self) -> HostResult<()> {
        // Child of the statement span under autocommit (of the piece's
        // under `load`); a fresh root when the application commits an
        // explicit transaction.
        let mut span = obs::span(obs::Layer::Host, "commit");
        let mut txn = self
            .txn
            .take()
            .ok_or_else(|| HostError::Usage("no transaction open".into()))
            .inspect_err(|_| span.fail())?;
        txn.trace_ids.insert(span.ctx().trace_id);
        let result = self.commit_txn(&mut txn).inspect_err(|_| span.fail());
        self.end(&txn, result.is_err());
        result
    }

    fn commit_txn(&mut self, txn: &mut HostTxn) -> HostResult<()> {
        let xid = txn.xid;

        // Phase 1: every touched DLFM prepares (and forces) concurrently.
        // An autocommit statement (or a load piece) already collected the
        // votes: its round ended with the Prepare on every shard (`flush`).
        // An explicit transaction asks now — only the application knows
        // which statement was the last.
        let votes = match txn.votes.take() {
            Some(votes) => {
                self.host.inner.metrics.unsolicited_votes.fetch_add(1, Ordering::Relaxed);
                votes
            }
            None => self.conns.prepare(xid, &txn.touched),
        };
        let mut participants = Vec::new();
        let mut failure = None;
        for (server, vote) in votes {
            match vote {
                Ok(true) => {}
                Ok(false) => participants.push(server),
                // A "no" — a vote lost in transit included — aborts every
                // participant: skipping the abort would leave them with an
                // open forward transaction holding locks.
                Err(err) => {
                    failure.get_or_insert((server, err));
                }
            }
        }
        if let Some((server, err)) = failure {
            self.host.inner.metrics.prepare_failures.fetch_add(1, Ordering::Relaxed);
            self.global_abort(txn, &format!("prepare on {server} failed: {err}"));
            return Err(err);
        }

        if participants.is_empty() {
            // Local-only transaction.
            self.session.commit()?;
            self.host.inner.metrics.commits.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }

        // Decision: force the commit record, then commit locally. One
        // coordinator-log force may cover many concurrent decisions (group
        // commit); `false` means a simulated host crash raced the force,
        // so the decision cannot be claimed durable.
        if !self
            .host
            .inner
            .coord_log
            .append_forced(CoordRecord::Commit { xid, servers: participants.clone() })
        {
            self.global_abort(txn, &"commit record lost to a host crash before its force");
            return Err(HostError::Db(minidb::DbError::Offline));
        }
        self.session.commit()?;

        // Phase 2: synchronous by default — the paper found the commit
        // request *must* be synchronous or distributed deadlocks form (§4):
        // the reply means the participant's locks and file takeovers are
        // done, though not yet forced to its log.
        // The commit decision is already durable, so NOTHING past this
        // point may surface an error to the application: the transaction
        // IS committed. A participant that did not acknowledge is left to
        // the resolver, which re-drives phase 2.
        phase2(&self.host, &mut self.conns, xid, &participants);
        self.host.inner.metrics.commits.fetch_add(1, Ordering::Relaxed);
        self.host.inner.metrics.twopc_commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Roll back the open transaction everywhere.
    pub fn rollback(&mut self) {
        if let Some(txn) = self.txn.take() {
            self.abort_everywhere(&txn);
            self.end(&txn, true);
        }
    }

    /// The transaction is over, either way. The shard-map pin ends only
    /// now: a migration must not move rows its phase 2 may still be
    /// writing.
    fn end(&self, txn: &HostTxn, aborted: bool) {
        self.host.inner.open_xids.lock().remove(&txn.xid);
        self.host.inner.shards.end_txn(txn.epoch);
        self.host.maybe_autopsy(txn.xid, txn.start_micros, &txn.trace_ids, aborted);
    }

    /// The coordinator's own decision to abort (a failed phase 1, a lost
    /// commit record): abort everywhere, with the reason on the log.
    fn global_abort(&mut self, txn: &HostTxn, reason: &dyn std::fmt::Display) {
        obs::warn!("hostdb::twopc", "aborting xid {} globally: {reason}", txn.xid);
        self.abort_everywhere(txn);
    }

    /// Tell every touched DLFM to abort — even already-prepared
    /// participants — and roll back locally (paper §3.3). Counted once.
    fn abort_everywhere(&mut self, txn: &HostTxn) {
        self.conns.abort(txn.xid, &txn.touched);
        self.session.rollback();
        self.host.inner.metrics.rollbacks.fetch_add(1, Ordering::Relaxed);
    }
}

impl HostDb {
    /// Resolve indoubt sub-transactions on every attached DLFM: re-drive
    /// phase 2 of unfinished commit decisions, then settle what each DLFM
    /// still lists in doubt — commit where a commit record exists (ended
    /// or not: a DLFM may have lost its lazy phase-2 commit), abort the
    /// rest (presumed abort). Returns the acknowledged resolutions.
    ///
    /// A single unreachable server must not starve resolution on the
    /// others: per-server failures are noted (counted in
    /// `resolver_partial_failures`) and the pass continues; a server whose
    /// connection failed in transit is left for the next pass.
    ///
    /// A transaction still open on this host is skipped: its session owns
    /// the outcome. Its decision may sit in the coordinator log's volatile
    /// tail mid-force (re-driving it could commit what a crash then aborts)
    /// or not be written yet (aborting its prepared participants would let
    /// the commit ack a link that is not there).
    pub fn resolve_indoubts(&self) -> HostResult<usize> {
        let _span = obs::span_root(obs::Layer::Host, "resolve");
        let mut conns = Conns::new(self);
        let mut resolved = 0usize;
        let mut failed = 0usize;
        for (xid, servers) in self.inner.coord_log.unfinished_commits() {
            if self.txn_open(xid) {
                continue;
            }
            obs::info!(
                "hostdb::resolver",
                "re-driving unfinished commit for xid {xid} on {} server(s)",
                servers.len()
            );
            let unacked = phase2(self, &mut conns, xid, &servers);
            resolved += servers.len() - unacked;
            failed += unacked;
        }
        for server in self.servers() {
            let xids = match conns.list_indoubt(&server) {
                Ok(xids) => {
                    // A DLFM's in-doubt xids are the ids a crashed host
                    // has no other record of: resume the sequence past them.
                    if let Some(&max) = xids.iter().max() {
                        self.advance_xid_past(max);
                    }
                    xids
                }
                Err(e) => {
                    self.note_rpc_error("indoubt listing", &server, &e);
                    failed += 1;
                    continue;
                }
            };
            for xid in xids.into_iter().filter(|&xid| !self.txn_open(xid)) {
                let commit = self.inner.coord_log.committed(xid);
                obs::info!(
                    "hostdb::resolver",
                    "resolving indoubt xid {xid} on {server}: {}",
                    if commit { "commit" } else { "presumed abort" }
                );
                match conns.resolve(&server, xid, commit) {
                    Ack::Done => {
                        resolved += 1;
                        self.inner.metrics.indoubts_resolved.fetch_add(1, Ordering::Relaxed);
                    }
                    Ack::Refused => failed += 1,
                    Ack::Lost => {
                        failed += 1;
                        break;
                    }
                }
            }
        }
        if failed > 0 {
            self.inner
                .metrics
                .resolver_partial_failures
                .fetch_add(failed as u64, Ordering::Relaxed);
            obs::warn!(
                "hostdb::resolver",
                "resolution pass continued past {failed} failed call(s)"
            );
        }
        Ok(resolved)
    }

    fn txn_open(&self, xid: i64) -> bool {
        self.inner.open_xids.lock().contains(&xid)
    }

    /// Spawn the indoubt-resolver daemon: polls the DLFMs and resolves
    /// indoubt transactions when they come back up (paper §3.3).
    pub fn spawn_resolver(
        &self,
        interval: std::time::Duration,
        shutdown: Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<()> {
        let host = self.clone();
        std::thread::spawn(move || {
            let slice = std::time::Duration::from_millis(5).min(interval);
            'daemon: loop {
                // Park in small slices so shutdown is prompt even when the
                // resolver interval is long.
                let deadline = std::time::Instant::now() + interval;
                while std::time::Instant::now() < deadline {
                    if shutdown.load(Ordering::SeqCst) {
                        break 'daemon;
                    }
                    std::thread::sleep(slice);
                }
                let _ = host.resolve_indoubts();
            }
        })
    }
}
