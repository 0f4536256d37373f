//! The host's operator surfaces: Prometheus metrics, the status page
//! (rendered by the `dlfmtop` example), the fleet telemetry plane — every
//! attached DLFM's metrics, status and spans pulled over the telemetry RPC
//! ([`HostDb::fetch_telemetry`]), clock-aligned and merged with the host's
//! own — and the autopsy bundle of a slow or aborted transaction.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::Ordering;

use dlfm::TelemetryKind;

use crate::engine::HostDb;
use crate::error::{HostError, HostResult};

impl HostDb {
    /// Host metrics in Prometheus text format: operation counters, the 2PC
    /// coordinator log (forces vs decisions, group-commit batch sizes), and
    /// the host-local storage engine's commit path.
    pub fn metrics_text(&self) -> String {
        let mut r = obs::Registry::new();
        self.inner.metrics.render(&mut r);
        r.gauge(
            "hostdb_conn_pool_idle",
            "Idle DLFM connections available for reuse.",
            &[],
            self.conn_pool_idle() as i64,
        );
        r.gauge(
            "hostdb_shard_epoch",
            "Current shard-map epoch (bumped on every placement change).",
            &[],
            self.inner.shards.epoch() as i64,
        );
        r.gauge(
            "hostdb_shard_count",
            "Shards in the hash ring (0 = routing disabled).",
            &[],
            self.inner.shards.shards().len() as i64,
        );
        self.inner.tokens.render_metrics(&mut r);
        self.inner.coord_log.render_metrics(&mut r);
        // The host-local storage engine renders the full minidb family
        // (the same block DLFM's local database exports).
        self.inner.db.render_metrics(&mut r);
        // One rpc_* block per attached DLFM, labelled with its name so no
        // two repeat a series. Socket-backed connectors add the rpc_wire_*
        // family (the reconnect-storm watch rule reads it from this
        // provider, every shard's series alike).
        for (server, connector) in self.inner.dlfms.read().iter() {
            r.scoped(&[("server", server)], |r| connector.render_metrics(r));
        }
        obs::render_metrics(&mut r);
        r.render()
    }

    /// Human-readable live status of the coordinator side: attached DLFM
    /// servers, the connection pool, transactions whose phase 2 is still
    /// outstanding, and the host-local lock table (rendered by the
    /// `dlfmtop` example).
    pub fn status_text(&self) -> String {
        let m = &self.inner.metrics;
        let mut out = String::new();
        out.push_str("=== host status ===\n");
        let servers = self.servers();
        out.push_str(&format!(
            "dlfm servers attached: {} ({})\n",
            servers.len(),
            servers.join(", ")
        ));
        out.push_str(&format!(
            "conn pool: {} idle (hits {}, misses {}, retired {})\n",
            self.conn_pool_idle(),
            m.conn_pool_hits(),
            m.conn_pool_misses(),
            m.conn_retired(),
        ));
        out.push_str(&self.inner.tokens.status_line());
        out.push_str(&format!(
            "transactions: {} committed, {} rolled back, {} via 2PC, {} in-doubt resolved\n",
            m.commits(),
            m.rollbacks(),
            m.twopc_commits(),
            m.indoubts_resolved(),
        ));
        out.push_str(&format!(
            "datalink ops: {} links + {} unlinks in {} statement rounds, {} votes rode on a round\n",
            m.links(),
            m.unlinks(),
            m.dl_rounds(),
            m.unsolicited_votes(),
        ));
        let shards = &self.inner.shards;
        let ring = shards.shards();
        if ring.is_empty() {
            out.push_str("shard map: disabled (URL server names route directly)\n");
        } else {
            out.push_str(&format!(
                "shard map: {} shards (epoch {}): {}\n",
                ring.len(),
                shards.epoch(),
                ring.join(", ")
            ));
            out.push_str(&format!(
                "  routes {} ({} waited on migration), migrations {} ({} rows moved)\n",
                m.shard_routes(),
                m.shard_route_waits(),
                m.shard_migrations(),
                m.shard_migrated_rows(),
            ));
            for (prefix, owner, migrating) in shards.overrides() {
                out.push_str(&format!(
                    "  prefix {prefix} -> {owner}{}\n",
                    if migrating { " (migrating)" } else { "" }
                ));
            }
            let inflight = shards.inflight();
            if !inflight.is_empty() {
                let pins: Vec<String> =
                    inflight.iter().map(|(e, n)| format!("epoch {e} x{n}")).collect();
                out.push_str(&format!("  in-flight pins: {}\n", pins.join(", ")));
            }
        }
        let unfinished = self.inner.coord_log.unfinished_commits();
        if unfinished.is_empty() {
            out.push_str("phase-2 outstanding: none\n");
        } else {
            out.push_str(&format!("phase-2 outstanding: {}\n", unfinished.len()));
            for (xid, servers) in unfinished {
                out.push_str(&format!(
                    "  xid#{xid} committed, awaiting end record (servers: {})\n",
                    servers.join(", ")
                ));
            }
        }
        out.push_str(&format!(
            "coordinator log: {} records, {} decisions, {} forces\n",
            self.inner.coord_log.last_lsn(),
            self.inner.coord_log.decisions_total(),
            self.inner.coord_log.forces_total(),
        ));
        out.push_str(&self.inner.db.lock_table_summary());
        out
    }

    /// Scrape one telemetry document from every attached DLFM. Unreachable
    /// shards yield `None` — fleet views (dlfmtop) render them as DOWN
    /// instead of erroring mid-refresh.
    pub fn fleet_telemetry(&self, kind: TelemetryKind) -> Vec<(String, Option<String>)> {
        let scrape = |server: String| {
            let text = self.fetch_telemetry(&server, kind).ok();
            (server, text)
        };
        self.servers().into_iter().map(scrape).collect()
    }

    /// Estimate the offset of `server`'s observability clock relative to
    /// the local one: read the remote clock over the wire and assume the
    /// reading was taken halfway through the round trip. Each process
    /// timestamps spans with µs since its *own* start, so without this the
    /// merged fleet trace would scatter processes across the timeline.
    pub fn clock_offset_micros(&self, server: &str) -> HostResult<i64> {
        let t0 = obs::journal::now_micros();
        let text = self.fetch_telemetry(server, TelemetryKind::Clock)?;
        let t1 = obs::journal::now_micros();
        let remote: u64 = text
            .trim()
            .parse()
            .map_err(|_| HostError::Rpc(format!("bad clock reading {text:?} from {server}")))?;
        let local_mid = t0 + (t1 - t0) / 2;
        Ok(local_mid as i64 - remote as i64)
    }

    /// Remote per-process span dumps from every attached DLFM, shifted
    /// onto the local clock. Unreachable daemons are skipped (warned, not
    /// fatal); `filter` keeps only spans of the given trace ids.
    fn remote_traces(&self, filter: Option<&BTreeSet<u64>>) -> Vec<obs::ProcessTrace> {
        let mut out = Vec::new();
        for server in self.servers() {
            let scraped = (|| -> HostResult<obs::ProcessTrace> {
                let clock_offset_micros = self.clock_offset_micros(&server)?;
                let dump = self.fetch_telemetry(&server, TelemetryKind::Spans)?;
                let mut spans = obs::parse_span_dump(&dump);
                if let Some(ids) = filter {
                    spans.retain(|s| ids.contains(&s.trace_id));
                }
                Ok(obs::ProcessTrace {
                    name: format!("dlfm[{server}]"),
                    clock_offset_micros,
                    spans,
                })
            })();
            match scraped {
                Ok(t) => out.push(t),
                Err(e) => {
                    obs::warn!("hostdb::fleet", "telemetry scrape of {server} failed: {e}")
                }
            }
        }
        out
    }

    /// Every attached daemon's clock-aligned spans (full ring).
    pub fn fleet_remote_traces(&self) -> Vec<obs::ProcessTrace> {
        self.remote_traces(None)
    }

    /// ONE merged Perfetto/Chrome trace for the whole deployment: the
    /// local span ring and journal, plus every attached daemon's spans
    /// pulled over the telemetry RPC and shifted onto the local timeline.
    /// Daemons that are down are simply absent from the document.
    pub fn fleet_trace(&self) -> String {
        let remotes = self.remote_traces(None);
        obs::merge_chrome_trace(
            &obs::trace::global_ring().snapshot(),
            &obs::journal::snapshot(),
            &remotes,
        )
    }

    /// Build a fleet watchdog: the host's own metrics under provider
    /// `host`, plus one provider per attached DLFM scraped over the
    /// telemetry RPC (an unreachable shard contributes no series that
    /// tick, so rules simply don't see it). Callers append rules — e.g.
    /// [`obs::Rule::skew_quantile`] over `dlfm_commit_micros` to catch one
    /// shard's commit p99 running away from the ring median — then spawn
    /// it. Attach every DLFM *before* building: the provider set is fixed
    /// here.
    pub fn fleet_watchdog(&self, config: obs::WatchConfig) -> obs::Watchdog {
        let host = self.clone();
        let mut w = obs::Watchdog::new(config).provider("host", move || host.metrics_text());
        let host = self.clone();
        w = w.section("host_status", move || host.status_text());
        for server in self.servers() {
            let host = self.clone();
            let name = server.clone();
            w = w.provider(&server, move || {
                host.fetch_telemetry(&name, TelemetryKind::Metrics).unwrap_or_default()
            });
        }
        w
    }

    // ------------------------------------------------------------------
    // Transaction autopsy
    // ------------------------------------------------------------------

    /// Called at the end of every transaction: write an autopsy bundle if
    /// it was slow (or aborted, when configured) — the assembled
    /// cross-process span tree plus the journal slice, so the question
    /// "why was THIS transaction slow" is answerable after the fact
    /// without reproducing it.
    pub(crate) fn maybe_autopsy(
        &self,
        xid: i64,
        start_micros: u64,
        trace_ids: &BTreeSet<u64>,
        aborted: bool,
    ) {
        let Some(root) = &self.inner.config.autopsy_dir else { return };
        let elapsed = obs::journal::now_micros().saturating_sub(start_micros);
        let slow = elapsed >= self.inner.config.autopsy_slow.as_micros() as u64;
        if !slow && !aborted {
            return;
        }
        if self.inner.metrics.autopsies() >= self.inner.config.autopsy_max {
            return;
        }
        let seq = self.inner.metrics.autopsies.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("autopsy-{seq:04}-xid{xid}"));

        // Local spans of this transaction's traces, and the matching
        // remote spans from every reachable daemon (clock-aligned).
        let local: Vec<obs::SpanEvent> = obs::trace::global_ring()
            .snapshot()
            .into_iter()
            .filter(|s| trace_ids.contains(&s.trace_id))
            .collect();
        let remotes = self.remote_traces(Some(trace_ids));
        let journal: Vec<obs::JournalEvent> = obs::journal::snapshot()
            .into_iter()
            .filter(|e| trace_ids.contains(&e.trace_id) || e.txn == xid)
            .collect();

        let outcome = if aborted { "aborted" } else { "slow-commit" };
        let mut report = format!(
            "transaction autopsy\nxid: {xid}\noutcome: {outcome}\nelapsed_micros: {elapsed}\n"
        );
        report.push_str(&format!(
            "slow_threshold_micros: {}\ntraces: {}\n",
            self.inner.config.autopsy_slow.as_micros(),
            trace_ids.iter().map(|t| format!("{t:016x}")).collect::<Vec<_>>().join(" "),
        ));
        let down: Vec<String> = self
            .servers()
            .into_iter()
            .filter(|s| !remotes.iter().any(|r| r.name == format!("dlfm[{s}]")))
            .collect();
        report.push_str(&format!(
            "processes: host + {} remote ({} unreachable{})\n\nspan tree:\n{}",
            remotes.len(),
            down.len(),
            if down.is_empty() { String::new() } else { format!(": {}", down.join(" ")) },
            render_span_tree(&local, &remotes),
        ));

        let mut journal_text = String::new();
        for e in &journal {
            obs::journal::render_line(e, &mut journal_text);
        }

        let files = vec![
            ("report.txt".into(), report),
            ("trace.json".into(), obs::merge_chrome_trace(&local, &journal, &remotes)),
            ("journal.txt".into(), journal_text),
        ];
        if obs::write_bundle("hostdb::autopsy", &dir, files) {
            obs::warn!(
                "hostdb::autopsy",
                "{outcome} transaction xid {xid} ({elapsed}us): bundle at {}",
                dir.display()
            );
        }
    }
}

/// Render local + remote spans of one transaction as an indented tree.
/// Cross-process edges come for free: the wire frame carries the parent
/// span id, so a remote agent span's parent IS the host-side rpc span and
/// the stitched tree reads top to bottom through the whole deployment.
fn render_span_tree(local: &[obs::SpanEvent], remotes: &[obs::ProcessTrace]) -> String {
    // The host's spans as rows: one node type for every process.
    let spans = local.iter().map(obs::RemoteSpan::from).collect();
    let host = obs::ProcessTrace { name: "host".into(), clock_offset_micros: 0, spans };
    // (process, start on the local clock, span)
    type Node<'a> = (&'a str, i64, &'a obs::RemoteSpan);
    let nodes: Vec<Node> = std::iter::once(&host)
        .chain(remotes)
        .flat_map(|p| {
            let shift =
                |s: &obs::RemoteSpan| (s.start_micros as i64).saturating_add(p.clock_offset_micros);
            p.spans.iter().map(move |s| (p.name.as_str(), shift(s), s))
        })
        .collect();
    let by_id: HashMap<u64, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.2.span_id, i)).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, (_, _, s)) in nodes.iter().enumerate() {
        match by_id.get(&s.parent_span_id) {
            Some(&p) if s.parent_span_id != 0 && p != i => children[p].push(i),
            _ => roots.push(i),
        }
    }
    for xs in children.iter_mut().chain([&mut roots]) {
        xs.sort_by_key(|&i| (nodes[i].1, nodes[i].2.span_id));
    }
    fn render(out: &mut String, nodes: &[Node], children: &[Vec<usize>], i: usize, depth: usize) {
        let (process, _, s) = nodes[i];
        out.push_str(&format!(
            "{:indent$}[{process}/{}] {} {} {}us\n",
            "",
            s.layer,
            s.op,
            if s.ok { "ok" } else { "err" },
            s.dur_micros,
            indent = depth * 2,
        ));
        for &c in &children[i] {
            render(out, nodes, children, c, depth + 1);
        }
    }
    let mut out = String::new();
    for r in roots {
        render(&mut out, &nodes, &children, r, 0);
    }
    if out.is_empty() {
        out.push_str("(no spans retained — ring may have wrapped)\n");
    }
    out
}
