//! Continuous telemetry: a health watchdog over metrics time-series.
//!
//! Everything else in `obs` is *point-in-time*: a metrics scrape, a status
//! page, a journal dump. This module watches those surfaces **over time**:
//!
//! * a background **sampler** thread scrapes named snapshot providers
//!   (anything that renders Prometheus text — `DlfmServer::metrics_text`,
//!   `HostDb::metrics_text`, a raw `minidb` database) at a configurable
//!   interval into a bounded in-memory [`TimePoint`] ring;
//! * per-interval **rates and deltas** are derived from consecutive
//!   samples, including per-interval histogram quantiles reconstructed
//!   from cumulative `_bucket{le="..."}` series (lock-wait p99, force
//!   batch sizes) — the numbers `dlfmtop --watch` renders;
//! * declarative **health rules** ([`Rule`]) — threshold, rate-of-change,
//!   stall ("WAL forces flat while commits are queued"), and interval
//!   quantile — are evaluated against the ring on every sample;
//! * on breach the watchdog journals a structured alert
//!   ([`crate::journal::JournalKind::Alert`]), bumps
//!   `obs_watch_alerts_total`, and writes a self-contained **incident
//!   bundle**: the time-series window, every registered status section,
//!   a flight-recorder dump, and a Perfetto trace — a complete postmortem
//!   with zero operator action.
//!
//! The watchdog knows nothing about the layers it watches: providers and
//! status sections are plain `Fn() -> String` closures, and rules address
//! metrics by their exposition name (optionally qualified by provider, as
//! `provider:name{labels}`). Process self-metrics (RSS, thread count,
//! uptime) are exported by [`render_metrics`] so rules can catch memory
//! growth.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::{json_escape, json_num};
use crate::registry::{parse_samples, Registry};
use crate::warn;

// ---------------------------------------------------------------------------
// Global counters (rendered into every layer's metrics_text).

crate::counters! {
    /// What every watchdog in this process has done.
    struct WatchTotals {
        /// Health-rule alerts fired.
        alerts: counter "obs_watch_alerts_total"
            "Health-rule alerts fired by the telemetry watchdog.",
        /// Samples taken.
        samples: counter "obs_watch_samples_total"
            "Metrics samples taken by the telemetry watchdog.",
        /// Incident bundles written.
        bundles: counter "obs_watch_bundles_total"
            "Incident bundles written by the telemetry watchdog.",
    }
}

static WATCH: LazyLock<WatchTotals> = LazyLock::new(WatchTotals::default);

/// Render the observability substrate's own families into a registry:
/// spans lost to the trace ring, journal events recorded and lost, the
/// process-wide watchdog counters, and process self-metrics (RSS, thread
/// count, uptime — measured from the first use of the shared
/// observability clock, effectively process start).
pub fn render_metrics(r: &mut Registry) {
    r.counter(
        "obs_spans_dropped_total",
        "Span events overwritten in the trace ring before being read.",
        &[],
        crate::trace::global_ring().dropped(),
    );
    r.counter(
        "obs_journal_events_total",
        "Structured events recorded by the flight-recorder journal.",
        &[],
        crate::journal::recorded(),
    );
    r.counter(
        "obs_journal_events_dropped_total",
        "Journal events overwritten in the flight-recorder ring before being read.",
        &[],
        crate::journal::dropped(),
    );
    let p = proc_self();
    r.gauge(
        "process_resident_memory_bytes",
        "Resident set size from /proc/self/status (0 when unavailable).",
        &[],
        p.rss_bytes as i64,
    );
    r.gauge(
        "process_threads",
        "Thread count from /proc/self/status (0 when unavailable).",
        &[],
        p.threads as i64,
    );
    r.gauge(
        "process_uptime_seconds",
        "Seconds since the observability clock epoch (process start).",
        &[],
        (crate::journal::now_micros() / 1_000_000) as i64,
    );
    WATCH.render(r);
}

// ---------------------------------------------------------------------------
// Process self-metrics.

/// Point-in-time process statistics from `/proc/self`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSelf {
    /// Resident set size in bytes (0 when `/proc` is unavailable).
    pub rss_bytes: u64,
    /// Thread count (0 when `/proc` is unavailable).
    pub threads: u64,
}

/// Read RSS and thread count from `/proc/self/status`. Returns zeros on
/// platforms without procfs rather than failing — watchdog rules treat 0
/// as "unknown", and thresholds on growth simply never fire.
pub fn proc_self() -> ProcSelf {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return ProcSelf::default();
    };
    let mut out = ProcSelf::default();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            // "VmRSS:     1234 kB"
            if let Some(kb) = rest.split_whitespace().next().and_then(|v| v.parse::<u64>().ok()) {
                out.rss_bytes = kb * 1024;
            }
        } else if let Some(rest) = line.strip_prefix("Threads:") {
            if let Some(n) = rest.split_whitespace().next().and_then(|v| v.parse::<u64>().ok()) {
                out.threads = n;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rules.

/// Comparison operator in a health rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Breach when the observed value is strictly greater than the bound.
    Gt,
    /// Breach when the observed value is at least the bound.
    Ge,
    /// Breach when the observed value is strictly less than the bound.
    Lt,
    /// Breach when the observed value is at most the bound.
    Le,
}

impl Cmp {
    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Cmp::Gt => value > bound,
            Cmp::Ge => value >= bound,
            Cmp::Lt => value < bound,
            Cmp::Le => value <= bound,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        }
    }
}

/// What a [`Rule`] checks each sampling interval.
#[derive(Debug, Clone)]
pub enum RuleKind {
    /// The current value of a metric (gauge or counter level) crosses a
    /// bound.
    Threshold {
        /// Metric selector (see [`Rule`] docs for the matching grammar).
        metric: String,
        /// Comparison against `bound`.
        cmp: Cmp,
        /// The bound.
        bound: f64,
    },
    /// The per-second rate of change of a (counter) metric over the last
    /// interval crosses a bound.
    Rate {
        /// Metric selector.
        metric: String,
        /// Comparison against `per_sec`.
        cmp: Cmp,
        /// Rate bound, in metric units per second.
        per_sec: f64,
    },
    /// A progress metric made **no progress** over the interval while a
    /// companion condition held — e.g. "WAL forces flat while commit
    /// senders are queued".
    Stall {
        /// The metric that should be making progress (a counter).
        flat: String,
        /// The companion metric whose condition arms the stall check.
        while_metric: String,
        /// Comparison of `while_metric` against `bound`.
        cmp: Cmp,
        /// Bound for the companion condition.
        bound: f64,
    },
    /// A per-interval histogram quantile, reconstructed from the deltas of
    /// cumulative `<hist>_bucket{le="..."}` series, crosses a bound.
    Quantile {
        /// Histogram family name (without the `_bucket` suffix).
        hist: String,
        /// Quantile in (0, 1], e.g. 0.99.
        q: f64,
        /// Comparison against `bound`.
        cmp: Cmp,
        /// Bound, in the histogram's recorded unit (workspace: micros).
        bound: f64,
    },
    /// One provider's reading of a series is an outlier against the same
    /// series from the **other** providers — the fleet rule: every shard
    /// exports the same metric under its own provider name, and one
    /// shard's commit p99 far above the ring median means that shard is
    /// sick even though no absolute bound was crossed. Needs at least
    /// three providers reporting the series (with two there is no
    /// majority to define "normal").
    Skew {
        /// Bare series selector (no provider prefix), compared across
        /// providers. With `q`, the histogram family name instead.
        metric: String,
        /// `None` compares current values; `Some(q)` compares each
        /// provider's per-interval quantile of histogram `metric`.
        q: Option<f64>,
        /// Breach when the outlier exceeds `factor` × the ring median …
        factor: f64,
        /// … and this absolute floor (so an idle fleet where the median
        /// is ~0 does not alert on noise).
        min: f64,
    },
}

/// One declarative health rule.
///
/// Metric selectors address the sampler's keys, which have the shape
/// `provider:name{labels}`. A selector containing `:` must match the full
/// key exactly; otherwise it matches any provider's series whose
/// `name{labels}` or bare `name` equals the selector. When several series
/// match, the rule breaches if **any** of them does.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Rule name (used in alerts, journal entries, and bundle names).
    pub name: String,
    /// What to check.
    pub kind: RuleKind,
    /// Consecutive breaching intervals required before the alert fires.
    pub intervals: usize,
}

impl Rule {
    /// A threshold rule (fires after one breaching sample).
    pub fn threshold(name: &str, metric: &str, cmp: Cmp, bound: f64) -> Rule {
        Rule {
            name: name.into(),
            kind: RuleKind::Threshold { metric: metric.into(), cmp, bound },
            intervals: 1,
        }
    }

    /// A rate-of-change rule requiring `intervals` consecutive breaches.
    pub fn rate(name: &str, metric: &str, cmp: Cmp, per_sec: f64, intervals: usize) -> Rule {
        Rule {
            name: name.into(),
            kind: RuleKind::Rate { metric: metric.into(), cmp, per_sec },
            intervals,
        }
    }

    /// A stall rule: `flat` made no progress for `intervals` consecutive
    /// intervals while `while_metric cmp bound` held in each of them.
    pub fn stall(
        name: &str,
        flat: &str,
        while_metric: &str,
        cmp: Cmp,
        bound: f64,
        intervals: usize,
    ) -> Rule {
        Rule {
            name: name.into(),
            kind: RuleKind::Stall {
                flat: flat.into(),
                while_metric: while_metric.into(),
                cmp,
                bound,
            },
            intervals,
        }
    }

    /// A per-interval histogram-quantile rule.
    pub fn quantile(
        name: &str,
        hist: &str,
        q: f64,
        cmp: Cmp,
        bound: f64,
        intervals: usize,
    ) -> Rule {
        Rule {
            name: name.into(),
            kind: RuleKind::Quantile { hist: hist.into(), q, cmp, bound },
            intervals,
        }
    }

    /// A cross-provider skew rule on current values: fires when one
    /// provider's reading exceeds `factor` × the median across providers
    /// and the absolute floor `min`.
    pub fn skew(name: &str, metric: &str, factor: f64, min: f64, intervals: usize) -> Rule {
        Rule {
            name: name.into(),
            kind: RuleKind::Skew { metric: metric.into(), q: None, factor, min },
            intervals,
        }
    }

    /// A cross-provider skew rule on per-interval histogram quantiles:
    /// fires when one provider's interval p`q` of `hist` exceeds
    /// `factor` × the median across providers and the floor `min`.
    pub fn skew_quantile(
        name: &str,
        hist: &str,
        q: f64,
        factor: f64,
        min: f64,
        intervals: usize,
    ) -> Rule {
        Rule {
            name: name.into(),
            kind: RuleKind::Skew { metric: hist.into(), q: Some(q), factor, min },
            intervals,
        }
    }
}

/// Does a rule's metric selector match a sampled key (`provider:rest`)?
fn selector_matches(selector: &str, key: &str) -> bool {
    if selector.contains(':') {
        return selector == key;
    }
    let Some((_provider, rest)) = key.split_once(':') else { return false };
    if selector == rest {
        return true;
    }
    // Bare family name, label-agnostic.
    let name = rest.split('{').next().unwrap_or(rest);
    selector == name
}

// ---------------------------------------------------------------------------
// Configuration.

/// Watchdog configuration. Providers, sections, and the spawn itself live
/// on [`Watchdog`]; this is the clonable part that can sit in a server
/// config struct.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Sampling interval.
    pub interval: Duration,
    /// Samples retained in the in-memory ring.
    pub capacity: usize,
    /// Directory incident bundles are written under (`None` disables
    /// bundle writing; alerts are still journaled and counted).
    pub bundle_dir: Option<PathBuf>,
    /// Health rules evaluated on every sample.
    pub rules: Vec<Rule>,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            interval: Duration::from_secs(1),
            capacity: 600,
            bundle_dir: None,
            rules: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Time series.

/// One sample: every provider's parsed metrics at one instant, keyed
/// `provider:name{labels}`.
#[derive(Debug, Clone)]
pub struct TimePoint {
    /// Microseconds since the observability clock epoch.
    pub micros: u64,
    /// Sampled values.
    pub values: BTreeMap<String, f64>,
}

/// Per-interval quantile from the deltas of cumulative bucket series.
///
/// `keys` yields `(le_bound, delta)` pairs for one histogram family,
/// where `delta` is the growth of the cumulative `le`-bucket over the
/// interval. Returns the smallest bound whose cumulative delta covers the
/// requested rank, or `None` when nothing was recorded this interval.
fn quantile_of_deltas(mut buckets: Vec<(f64, f64)>, q: f64) -> Option<f64> {
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let total = buckets.iter().map(|(_, d)| *d).fold(0.0f64, f64::max);
    if total <= 0.0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * total).max(1.0);
    let mut best_finite = 0.0f64;
    for (le, delta) in &buckets {
        if le.is_finite() {
            best_finite = *le;
        }
        if *delta + 1e-9 >= rank {
            return Some(if le.is_finite() { *le } else { best_finite });
        }
    }
    Some(best_finite)
}

/// Parse the `le="..."` bound out of a rendered label block.
fn parse_le(labels: &str) -> Option<f64> {
    let start = labels.find("le=\"")? + 4;
    let end = labels[start..].find('"')? + start;
    let raw = &labels[start..end];
    if raw == "+Inf" {
        Some(f64::INFINITY)
    } else {
        raw.parse().ok()
    }
}

/// Collect `(group, le, delta)` bucket deltas for a histogram family
/// matching `hist` between two points. Groups are the key with the `le`
/// label erased, so labeled families (e.g. per-op histograms) are handled
/// per label-set.
fn bucket_deltas(
    hist: &str,
    prev: &TimePoint,
    cur: &TimePoint,
) -> BTreeMap<String, Vec<(f64, f64)>> {
    let (sel_provider, sel_name) = match hist.split_once(':') {
        Some((p, n)) => (Some(p), n),
        None => (None, hist),
    };
    let want = format!("{sel_name}_bucket");
    let mut groups: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for (key, cur_v) in &cur.values {
        let Some((provider, rest)) = key.split_once(':') else { continue };
        if sel_provider.is_some_and(|p| p != provider) {
            continue;
        }
        let name = rest.split('{').next().unwrap_or(rest);
        if name != want {
            continue;
        }
        let labels = &rest[name.len()..];
        let Some(le) = parse_le(labels) else { continue };
        let Some(prev_v) = prev.values.get(key) else { continue };
        let delta = cur_v - prev_v;
        // Group id: the key minus the le label, so per-label families
        // stay separate.
        let group = format!("{provider}:{name}");
        let extra: String = labels
            .trim_start_matches('{')
            .trim_end_matches('}')
            .split(',')
            .filter(|kv| !kv.starts_with("le="))
            .collect::<Vec<_>>()
            .join(",");
        let group = if extra.is_empty() { group } else { format!("{group}{{{extra}}}") };
        groups.entry(group).or_default().push((le, delta));
    }
    groups
}

// ---------------------------------------------------------------------------
// The watchdog.

type TextFn = Box<dyn Fn() -> String + Send + Sync>;

struct RuleState {
    consecutive: usize,
    latched: bool,
}

struct State {
    ring: VecDeque<TimePoint>,
    rules: Vec<RuleState>,
    last_bundle: Option<Instant>,
    bundles_written: u64,
}

struct Inner {
    config: WatchConfig,
    providers: Vec<(String, TextFn)>,
    sections: Vec<(String, TextFn)>,
    state: Mutex<State>,
    alerts: AtomicU64,
    samples: AtomicU64,
    stop: Mutex<bool>,
    cv: Condvar,
}

/// Builder for a watchdog: register snapshot providers and status
/// sections, then [`spawn`](Watchdog::spawn) the sampler thread (or
/// [`manual`](Watchdog::manual) for deterministically driven tests).
pub struct Watchdog {
    config: WatchConfig,
    providers: Vec<(String, TextFn)>,
    sections: Vec<(String, TextFn)>,
}

impl Watchdog {
    /// Start building a watchdog with the given configuration.
    pub fn new(config: WatchConfig) -> Watchdog {
        Watchdog { config, providers: Vec::new(), sections: Vec::new() }
    }

    /// Register a metrics snapshot provider. `name` becomes the key
    /// prefix (`name:metric{labels}`) every sampled series carries.
    pub fn provider(
        mut self,
        name: &str,
        f: impl Fn() -> String + Send + Sync + 'static,
    ) -> Watchdog {
        self.providers.push((name.to_string(), Box::new(f)));
        self
    }

    /// Register a status section rendered into incident bundles as
    /// `<name>.txt` (status pages, forensic summaries).
    pub fn section(
        mut self,
        name: &str,
        f: impl Fn() -> String + Send + Sync + 'static,
    ) -> Watchdog {
        self.sections.push((name.to_string(), Box::new(f)));
        self
    }

    /// Append one health rule.
    pub fn rule(mut self, rule: Rule) -> Watchdog {
        self.config.rules.push(rule);
        self
    }

    fn into_inner(self) -> Arc<Inner> {
        let rules = self.config.rules.iter().map(|_| RuleState { consecutive: 0, latched: false });
        Arc::new(Inner {
            state: Mutex::new(State {
                ring: VecDeque::new(),
                rules: rules.collect(),
                last_bundle: None,
                bundles_written: 0,
            }),
            providers: self.providers,
            sections: self.sections,
            config: self.config,
            alerts: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            stop: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    /// Spawn the background sampler thread and return its handle. The
    /// first sample is taken immediately.
    pub fn spawn(self) -> WatchdogHandle {
        let inner = self.into_inner();
        let thread_inner = inner.clone();
        let thread = std::thread::Builder::new()
            .name("obs-watch".into())
            .spawn(move || loop {
                sample_once(&thread_inner);
                let interval = thread_inner.config.interval;
                let deadline = Instant::now() + interval;
                let mut stopped = thread_inner.stop.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if *stopped {
                        return;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (g, _) = thread_inner
                        .cv
                        .wait_timeout(stopped, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    stopped = g;
                }
            })
            .expect("spawning the watchdog sampler thread cannot fail");
        WatchdogHandle { inner, thread: Some(thread) }
    }

    /// Build the watchdog **without** a sampler thread; tests drive it
    /// deterministically with [`WatchdogHandle::sample_now`].
    pub fn manual(self) -> WatchdogHandle {
        WatchdogHandle { inner: self.into_inner(), thread: None }
    }
}

/// Handle to a running (or manually driven) watchdog. Dropping the handle
/// stops the sampler thread.
pub struct WatchdogHandle {
    inner: Arc<Inner>,
    thread: Option<JoinHandle<()>>,
}

impl WatchdogHandle {
    /// Stop the sampler thread and join it (idempotent).
    pub fn stop(&mut self) {
        *self.inner.stop.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.inner.cv.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Take one sample right now (manual mode and tests; safe alongside
    /// the sampler thread).
    pub fn sample_now(&self) {
        sample_once(&self.inner);
    }

    /// Alerts fired by this watchdog.
    pub fn alerts(&self) -> u64 {
        self.inner.alerts.load(Ordering::Relaxed)
    }

    /// Samples taken by this watchdog.
    pub fn samples(&self) -> u64 {
        self.inner.samples.load(Ordering::Relaxed)
    }

    /// Incident bundles written by this watchdog.
    pub fn bundles(&self) -> u64 {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner()).bundles_written
    }

    /// Snapshot of the buffered time-series window, oldest first.
    pub fn points(&self) -> Vec<TimePoint> {
        let state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        state.ring.iter().cloned().collect()
    }

    /// Per-second rate of a metric over the last interval. The selector
    /// follows the [`Rule`] grammar; the first matching series wins.
    pub fn rate(&self, selector: &str) -> Option<f64> {
        let state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let (prev, cur) = last_two(&state.ring)?;
        let dt = interval_secs(prev, cur)?;
        for (key, cur_v) in &cur.values {
            if selector_matches(selector, key) {
                if let Some(prev_v) = prev.values.get(key) {
                    return Some((cur_v - prev_v) / dt);
                }
            }
        }
        None
    }

    /// Per-interval quantile of a histogram family over the last
    /// interval (worst matching label-set/provider when several match).
    pub fn interval_quantile(&self, hist: &str, q: f64) -> Option<f64> {
        let state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let (prev, cur) = last_two(&state.ring)?;
        bucket_deltas(hist, prev, cur)
            .into_values()
            .filter_map(|b| quantile_of_deltas(b, q))
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Render the last interval's rates and deltas as an aligned text
    /// table — what `dlfmtop --watch` refreshes. Counters that did not
    /// move are omitted; per-interval histogram quantiles are appended.
    pub fn rates_text(&self) -> String {
        let state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        let Some((prev, cur)) = last_two(&state.ring) else {
            out.push_str("watch: waiting for a second sample\n");
            return out;
        };
        let Some(dt) = interval_secs(prev, cur) else {
            out.push_str("watch: zero-length interval\n");
            return out;
        };
        out.push_str(&format!(
            "== watch: interval {:.3}s, {} series, sample #{} ==\n",
            dt,
            cur.values.len(),
            state.ring.len(),
        ));
        for (key, cur_v) in &cur.values {
            // Bucket series are summarized as quantiles below.
            if key.contains("_bucket{") {
                continue;
            }
            let Some(prev_v) = prev.values.get(key) else { continue };
            let delta = cur_v - prev_v;
            if delta == 0.0 {
                continue;
            }
            out.push_str(&format!(
                "{key:<58} {cur_v:>14.0}  Δ{delta:>+10.0}  {:>10.1}/s\n",
                delta / dt
            ));
        }
        // Per-interval histogram quantiles, one line per active family.
        let mut families: Vec<String> = cur
            .values
            .keys()
            .filter_map(|k| {
                let (provider, rest) = k.split_once(':')?;
                let name = rest.split('{').next()?;
                name.strip_suffix("_bucket").map(|base| format!("{provider}:{base}"))
            })
            .collect();
        families.sort();
        families.dedup();
        for fam in families {
            let deltas = bucket_deltas(&fam, prev, cur);
            for (group, buckets) in deltas {
                let total: f64 = buckets.iter().map(|(_, d)| *d).fold(0.0, f64::max);
                if total <= 0.0 {
                    continue;
                }
                let p50 = quantile_of_deltas(buckets.clone(), 0.50).unwrap_or(0.0);
                let p99 = quantile_of_deltas(buckets, 0.99).unwrap_or(0.0);
                out.push_str(&format!(
                    "{group:<58} interval p50<={p50:<10.0} p99<={p99:<10.0} n={total:.0}\n"
                ));
            }
        }
        out
    }
}

impl Drop for WatchdogHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn last_two(ring: &VecDeque<TimePoint>) -> Option<(&TimePoint, &TimePoint)> {
    Some((ring.get(ring.len().checked_sub(2)?)?, ring.back()?))
}

fn interval_secs(prev: &TimePoint, cur: &TimePoint) -> Option<f64> {
    let dt = cur.micros.saturating_sub(prev.micros) as f64 / 1_000_000.0;
    (dt > 0.0).then_some(dt)
}

struct Alert {
    rule: String,
    detail: String,
}

/// Scrape every provider, push the sample, evaluate the rules, and handle
/// any alerts (journal + counters + incident bundle).
fn sample_once(inner: &Inner) {
    let mut values = BTreeMap::new();
    for (name, f) in &inner.providers {
        for s in parse_samples(&f()) {
            values.insert(format!("{name}:{}{}", s.name, s.labels), s.value);
        }
    }
    let point = TimePoint { micros: crate::journal::now_micros(), values };

    let (alerts, window) = {
        let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        state.ring.push_back(point);
        while state.ring.len() > inner.config.capacity.max(1) {
            state.ring.pop_front();
        }
        let alerts = evaluate(&mut state, &inner.config);
        // Clone the window only when something fired (bundles need it).
        let window: Vec<TimePoint> =
            if alerts.is_empty() { Vec::new() } else { state.ring.iter().cloned().collect() };
        (alerts, window)
    };
    inner.samples.fetch_add(1, Ordering::Relaxed);
    WATCH.samples.fetch_add(1, Ordering::Relaxed);

    for alert in alerts {
        inner.alerts.fetch_add(1, Ordering::Relaxed);
        WATCH.alerts.fetch_add(1, Ordering::Relaxed);
        warn!("obs::watch", "health alert [{}]: {}", alert.rule, alert.detail);
        let detail = alert.detail.clone();
        let rule = alert.rule.clone();
        crate::journal::record(crate::journal::JournalKind::Alert, 0, move || {
            format!("rule {rule}: {detail}")
        });
        write_bundle(inner, &alert, &window);
    }
}

/// Evaluate every rule against the ring; returns the alerts that fired
/// this tick. Rules latch while they keep breaching and re-arm once the
/// condition clears, so one continuous episode produces one alert.
fn evaluate(state: &mut State, config: &WatchConfig) -> Vec<Alert> {
    let mut out = Vec::new();
    let Some(cur) = state.ring.back() else { return out };
    let prev = state.ring.len().checked_sub(2).and_then(|i| state.ring.get(i));
    for (rule, st) in config.rules.iter().zip(&mut state.rules) {
        let breach = check_rule(rule, prev, cur);
        match breach {
            Some(detail) => {
                st.consecutive += 1;
                if st.consecutive >= rule.intervals.max(1) && !st.latched {
                    st.latched = true;
                    out.push(Alert { rule: rule.name.clone(), detail });
                }
            }
            None => {
                st.consecutive = 0;
                st.latched = false;
            }
        }
    }
    out
}

fn check_rule(rule: &Rule, prev: Option<&TimePoint>, cur: &TimePoint) -> Option<String> {
    match &rule.kind {
        RuleKind::Threshold { metric, cmp, bound } => {
            for (key, v) in &cur.values {
                if selector_matches(metric, key) && cmp.holds(*v, *bound) {
                    return Some(format!("{key} = {v} {} {bound}", cmp.symbol()));
                }
            }
            None
        }
        RuleKind::Rate { metric, cmp, per_sec } => {
            let prev = prev?;
            let dt = interval_secs(prev, cur)?;
            for (key, cur_v) in &cur.values {
                if !selector_matches(metric, key) {
                    continue;
                }
                let Some(prev_v) = prev.values.get(key) else { continue };
                let rate = (cur_v - prev_v) / dt;
                if cmp.holds(rate, *per_sec) {
                    return Some(format!(
                        "{key} rate {rate:.1}/s {} {per_sec}/s over {dt:.3}s",
                        cmp.symbol()
                    ));
                }
            }
            None
        }
        RuleKind::Stall { flat, while_metric, cmp, bound } => {
            let prev = prev?;
            // Progress check: every matching series must be flat, and at
            // least one must exist.
            let mut saw_flat = false;
            for (key, cur_v) in &cur.values {
                if !selector_matches(flat, key) {
                    continue;
                }
                let Some(prev_v) = prev.values.get(key) else { continue };
                if (cur_v - prev_v).abs() > 1e-9 {
                    return None; // progress was made
                }
                saw_flat = true;
            }
            if !saw_flat {
                return None;
            }
            for (key, v) in &cur.values {
                if selector_matches(while_metric, key) && cmp.holds(*v, *bound) {
                    return Some(format!("{flat} flat while {key} = {v} {} {bound}", cmp.symbol()));
                }
            }
            None
        }
        RuleKind::Quantile { hist, q, cmp, bound } => {
            let prev = prev?;
            for (group, buckets) in bucket_deltas(hist, prev, cur) {
                let Some(value) = quantile_of_deltas(buckets, *q) else { continue };
                if cmp.holds(value, *bound) {
                    return Some(format!(
                        "{group} interval p{:.0} <= {value} {} {bound}",
                        q * 100.0,
                        cmp.symbol()
                    ));
                }
            }
            None
        }
        RuleKind::Skew { metric, q, factor, min } => {
            // One observation per provider: its worst matching series.
            let mut per_provider: BTreeMap<String, f64> = BTreeMap::new();
            match q {
                None => {
                    for (key, v) in &cur.values {
                        if !selector_matches(metric, key) {
                            continue;
                        }
                        let Some((provider, _)) = key.split_once(':') else { continue };
                        let slot = per_provider.entry(provider.to_string()).or_insert(f64::MIN);
                        *slot = slot.max(*v);
                    }
                }
                Some(q) => {
                    let prev = prev?;
                    for (group, buckets) in bucket_deltas(metric, prev, cur) {
                        let Some(v) = quantile_of_deltas(buckets, *q) else { continue };
                        let Some((provider, _)) = group.split_once(':') else { continue };
                        let slot = per_provider.entry(provider.to_string()).or_insert(f64::MIN);
                        *slot = slot.max(v);
                    }
                }
            }
            if per_provider.len() < 3 {
                return None;
            }
            let mut sorted: Vec<f64> = per_provider.values().copied().collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let mid = sorted.len() / 2;
            let median = if sorted.len() % 2 == 1 {
                sorted[mid]
            } else {
                (sorted[mid - 1] + sorted[mid]) / 2.0
            };
            let (worst, v) = per_provider
                .iter()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))?;
            if *v > factor * median && *v > *min {
                let what = match q {
                    Some(q) => format!("interval p{:.0} of {metric}", q * 100.0),
                    None => metric.clone(),
                };
                return Some(format!(
                    "{worst}: {what} = {v:.0} > {factor}x ring median {median:.0} \
                     ({} providers)",
                    per_provider.len()
                ));
            }
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Incident bundles.

/// Render a time-series window as a self-contained JSON document.
pub fn timeseries_json(points: &[TimePoint], interval: Duration) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"interval_micros\": {},\n  \"points\": [\n",
        interval.as_micros()
    ));
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!("    {{\"micros\": {}, \"values\": {{", p.micros));
        for (j, (k, v)) in p.values.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push('"');
            json_escape(k, &mut out);
            out.push_str(&format!("\": {}", json_num(*v)));
        }
        out.push_str(if i + 1 < points.len() { "}},\n" } else { "}}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '-' })
        .collect()
}

/// At most this many bundles per watchdog (an alert storm must not fill the
/// disk), at least this far apart.
const MAX_BUNDLES: u64 = 8;
const BUNDLE_COOLDOWN: Duration = Duration::from_secs(10);

/// Write a self-contained incident bundle for one alert through
/// [`crate::export::write_bundle`]: the time-series window, every
/// registered status section, a flight-recorder dump, and a Perfetto trace.
fn write_bundle(inner: &Inner, alert: &Alert, window: &[TimePoint]) {
    let Some(root) = &inner.config.bundle_dir else { return };
    {
        let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let cooling = state.last_bundle.is_some_and(|last| last.elapsed() < BUNDLE_COOLDOWN);
        if state.bundles_written >= MAX_BUNDLES || cooling {
            return;
        }
        state.bundles_written += 1;
        state.last_bundle = Some(Instant::now());
    }
    let seq = WATCH.bundles.fetch_add(1, Ordering::Relaxed);
    let dir = root.join(format!("incident-{seq:04}-{}", sanitize(&alert.rule)));
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let alert_text = format!(
        "rule: {}\ndetail: {}\nunix_time: {unix_secs}\nuptime_micros: {}\n",
        alert.rule,
        alert.detail,
        crate::journal::now_micros(),
    );
    let mut files: Vec<(String, String)> = vec![
        ("alert.txt".into(), alert_text),
        ("timeseries.json".into(), timeseries_json(window, inner.config.interval)),
        ("journal.txt".into(), crate::journal::dump_string()),
        ("trace.json".into(), crate::export::export_chrome_trace()),
    ];
    for (name, f) in &inner.sections {
        files.push((format!("{}.txt", sanitize(name)), f()));
    }
    if !crate::export::write_bundle("obs::watch", &dir, files) {
        return;
    }
    warn!("obs::watch", "incident bundle written to {}", dir.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// A scriptable provider: each call renders the current counter
    /// values as exposition text.
    #[derive(Clone, Default)]
    struct Script(Arc<StdMutex<BTreeMap<String, f64>>>);

    impl Script {
        fn set(&self, name: &str, v: f64) {
            self.0.lock().unwrap().insert(name.to_string(), v);
        }

        fn provider(&self) -> impl Fn() -> String + Send + Sync + 'static {
            let inner = self.0.clone();
            move || {
                let mut out = String::new();
                for (k, v) in inner.lock().unwrap().iter() {
                    out.push_str(&format!("{k} {v}\n"));
                }
                out
            }
        }
    }

    fn manual_watch(script: &Script, rules: Vec<Rule>) -> WatchdogHandle {
        let config =
            WatchConfig { interval: Duration::from_millis(10), rules, ..Default::default() };
        Watchdog::new(config).provider("t", script.provider()).manual()
    }

    #[test]
    fn selector_grammar() {
        assert!(selector_matches("foo_total", "dlfm:foo_total"));
        assert!(selector_matches("foo_total", "host:foo_total"));
        assert!(selector_matches("dlfm:foo_total", "dlfm:foo_total"));
        assert!(!selector_matches("dlfm:foo_total", "host:foo_total"));
        assert!(selector_matches("foo_total", "dlfm:foo_total{op=\"link\"}"));
        assert!(selector_matches("foo_total{op=\"link\"}", "dlfm:foo_total{op=\"link\"}"));
        assert!(!selector_matches("foo_total{op=\"link\"}", "dlfm:foo_total{op=\"unlink\"}"));
        assert!(!selector_matches("foo", "dlfm:foo_total"));
    }

    #[test]
    fn threshold_fires_once_and_rearms() {
        let s = Script::default();
        s.set("depth", 1.0);
        let w = manual_watch(&s, vec![Rule::threshold("deep", "depth", Cmp::Gt, 5.0)]);
        w.sample_now();
        assert_eq!(w.alerts(), 0);
        s.set("depth", 9.0);
        w.sample_now();
        assert_eq!(w.alerts(), 1, "breach fires");
        w.sample_now();
        assert_eq!(w.alerts(), 1, "latched while still breaching");
        s.set("depth", 0.0);
        w.sample_now();
        s.set("depth", 9.0);
        w.sample_now();
        assert_eq!(w.alerts(), 2, "re-arms after the condition clears");
    }

    #[test]
    fn rate_rule_needs_consecutive_breaches() {
        let s = Script::default();
        s.set("retries_total", 0.0);
        let w = manual_watch(&s, vec![Rule::rate("storm", "retries_total", Cmp::Gt, 1.0, 2)]);
        w.sample_now();
        std::thread::sleep(Duration::from_millis(2));
        s.set("retries_total", 1000.0);
        w.sample_now();
        assert_eq!(w.alerts(), 0, "one breaching interval is not enough");
        std::thread::sleep(Duration::from_millis(2));
        s.set("retries_total", 2000.0);
        w.sample_now();
        assert_eq!(w.alerts(), 1, "two consecutive breaching intervals fire");
        assert!(w.rate("retries_total").unwrap() > 1.0);
    }

    #[test]
    fn stall_rule_flat_while_condition_holds() {
        let s = Script::default();
        s.set("forces_total", 10.0);
        s.set("queued", 3.0);
        let w = manual_watch(
            &s,
            vec![Rule::stall("wal-stall", "forces_total", "queued", Cmp::Gt, 0.0, 2)],
        );
        w.sample_now();
        std::thread::sleep(Duration::from_millis(2));
        w.sample_now(); // flat + queued: 1st breach
        assert_eq!(w.alerts(), 0);
        std::thread::sleep(Duration::from_millis(2));
        w.sample_now(); // 2nd consecutive breach
        assert_eq!(w.alerts(), 1);
        // Progress resets the streak even while the condition holds.
        s.set("forces_total", 11.0);
        std::thread::sleep(Duration::from_millis(2));
        w.sample_now();
        std::thread::sleep(Duration::from_millis(2));
        w.sample_now();
        assert_eq!(w.alerts(), 1, "flat again for only one interval: no new alert");
    }

    #[test]
    fn skew_rule_flags_the_outlier_shard() {
        let shards: Vec<Script> = (0..3).map(|_| Script::default()).collect();
        for s in &shards {
            s.set("lock_waiting", 1.0);
        }
        let config = WatchConfig {
            interval: Duration::from_millis(10),
            rules: vec![Rule::skew("shard-skew", "lock_waiting", 3.0, 5.0, 1)],
            ..Default::default()
        };
        let w = Watchdog::new(config)
            .provider("shard0", shards[0].provider())
            .provider("shard1", shards[1].provider())
            .provider("shard2", shards[2].provider())
            .manual();
        w.sample_now();
        assert_eq!(w.alerts(), 0, "uniform fleet is healthy");
        // One shard 10x the ring median, but under the absolute floor.
        shards[2].set("lock_waiting", 4.0);
        w.sample_now();
        assert_eq!(w.alerts(), 0, "below the min floor");
        shards[2].set("lock_waiting", 40.0);
        w.sample_now();
        assert_eq!(w.alerts(), 1, "shard2 is a 40x outlier");
    }

    #[test]
    fn skew_rule_needs_three_providers() {
        let a = Script::default();
        let b = Script::default();
        a.set("depth", 1.0);
        b.set("depth", 100.0);
        let config = WatchConfig {
            interval: Duration::from_millis(10),
            rules: vec![Rule::skew("skew", "depth", 2.0, 0.0, 1)],
            ..Default::default()
        };
        let w =
            Watchdog::new(config).provider("a", a.provider()).provider("b", b.provider()).manual();
        w.sample_now();
        assert_eq!(w.alerts(), 0, "two providers cannot define a ring median");
    }

    #[test]
    fn skew_quantile_rule_compares_interval_p99_across_shards() {
        let shards: Vec<Script> = (0..3).map(|_| Script::default()).collect();
        for s in &shards {
            s.set("commit_micros_bucket{le=\"1000\"}", 0.0);
            s.set("commit_micros_bucket{le=\"1000000\"}", 0.0);
            s.set("commit_micros_bucket{le=\"+Inf\"}", 0.0);
        }
        let config = WatchConfig {
            interval: Duration::from_millis(10),
            rules: vec![Rule::skew_quantile(
                "commit-skew",
                "commit_micros",
                0.99,
                4.0,
                10_000.0,
                1,
            )],
            ..Default::default()
        };
        let w = Watchdog::new(config)
            .provider("shard0", shards[0].provider())
            .provider("shard1", shards[1].provider())
            .provider("shard2", shards[2].provider())
            .manual();
        w.sample_now();
        std::thread::sleep(Duration::from_millis(2));
        // All shards commit fast this interval.
        for s in &shards {
            s.set("commit_micros_bucket{le=\"1000\"}", 50.0);
            s.set("commit_micros_bucket{le=\"1000000\"}", 50.0);
            s.set("commit_micros_bucket{le=\"+Inf\"}", 50.0);
        }
        w.sample_now();
        assert_eq!(w.alerts(), 0, "uniform p99 across the ring");
        std::thread::sleep(Duration::from_millis(2));
        // shard1's commits land above 1ms this interval; the others stay fast.
        for (i, s) in shards.iter().enumerate() {
            let (fast, slow) = if i == 1 { (50.0, 100.0) } else { (100.0, 100.0) };
            s.set("commit_micros_bucket{le=\"1000\"}", fast);
            s.set("commit_micros_bucket{le=\"1000000\"}", slow);
            s.set("commit_micros_bucket{le=\"+Inf\"}", slow);
        }
        w.sample_now();
        assert_eq!(w.alerts(), 1, "shard1's interval p99 skews off the ring");
    }

    #[test]
    fn quantile_rule_reads_bucket_deltas() {
        let s = Script::default();
        // A histogram where the interval's 99 new values land <= 1000us
        // and 1 lands above.
        s.set("lat_bucket{le=\"1000\"}", 0.0);
        s.set("lat_bucket{le=\"100000\"}", 0.0);
        s.set("lat_bucket{le=\"+Inf\"}", 0.0);
        let w = manual_watch(&s, vec![Rule::quantile("p99", "lat", 0.99, Cmp::Gt, 50_000.0, 1)]);
        w.sample_now();
        std::thread::sleep(Duration::from_millis(2));
        s.set("lat_bucket{le=\"1000\"}", 99.0);
        s.set("lat_bucket{le=\"100000\"}", 99.0);
        s.set("lat_bucket{le=\"+Inf\"}", 100.0);
        w.sample_now();
        // p99 rank 99 is covered at le=1000 -> below the bound.
        assert_eq!(w.alerts(), 0);
        assert_eq!(w.interval_quantile("lat", 0.5), Some(1000.0));
        std::thread::sleep(Duration::from_millis(2));
        // Next interval: half the values land above 100ms.
        s.set("lat_bucket{le=\"1000\"}", 109.0);
        s.set("lat_bucket{le=\"100000\"}", 110.0);
        s.set("lat_bucket{le=\"+Inf\"}", 120.0);
        w.sample_now();
        assert_eq!(w.alerts(), 1, "interval p99 above 50ms fires");
    }

    #[test]
    fn bundle_contains_the_full_postmortem() {
        let s = Script::default();
        s.set("depth", 0.0);
        let dir = std::env::temp_dir().join(format!(
            "obs-watch-test-{}-{}",
            std::process::id(),
            crate::journal::now_micros()
        ));
        let config = WatchConfig {
            interval: Duration::from_millis(10),
            bundle_dir: Some(dir.clone()),
            rules: vec![Rule::threshold("deep", "depth", Cmp::Gt, 5.0)],
            ..Default::default()
        };
        let w = Watchdog::new(config)
            .provider("t", s.provider())
            .section("status", || "all systems nominal\n".to_string())
            .manual();
        w.sample_now();
        s.set("depth", 50.0);
        w.sample_now();
        assert_eq!(w.alerts(), 1);
        assert_eq!(w.bundles(), 1);
        let bundle = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .expect("one incident bundle dir")
            .unwrap()
            .path();
        assert!(bundle.file_name().unwrap().to_string_lossy().starts_with("incident-"));
        for name in ["alert.txt", "timeseries.json", "journal.txt", "trace.json", "status.txt"] {
            assert!(bundle.join(name).exists(), "bundle is missing {name}");
        }
        let ts = std::fs::read_to_string(bundle.join("timeseries.json")).unwrap();
        assert!(crate::json::json_is_well_formed(&ts), "timeseries must be valid JSON: {ts}");
        assert!(ts.contains("t:depth"));
        let alert = std::fs::read_to_string(bundle.join("alert.txt")).unwrap();
        assert!(alert.contains("rule: deep"));
        assert!(alert.contains("t:depth = 50"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rates_text_shows_moving_series_only() {
        let s = Script::default();
        s.set("moving_total", 0.0);
        s.set("frozen_total", 7.0);
        let w = manual_watch(&s, vec![]);
        w.sample_now();
        std::thread::sleep(Duration::from_millis(2));
        s.set("moving_total", 42.0);
        w.sample_now();
        let text = w.rates_text();
        assert!(text.contains("t:moving_total"), "{text}");
        assert!(!text.contains("t:frozen_total"), "{text}");
    }

    #[test]
    fn ring_is_bounded() {
        let s = Script::default();
        s.set("x", 1.0);
        let config = WatchConfig { capacity: 3, ..Default::default() };
        let w = Watchdog::new(config).provider("t", s.provider()).manual();
        for _ in 0..10 {
            w.sample_now();
        }
        assert_eq!(w.points().len(), 3);
        assert_eq!(w.samples(), 10);
    }

    #[test]
    fn spawned_sampler_collects_and_stops() {
        let s = Script::default();
        s.set("x", 1.0);
        let config = WatchConfig { interval: Duration::from_millis(5), ..Default::default() };
        let mut w = Watchdog::new(config).provider("t", s.provider()).spawn();
        let deadline = Instant::now() + Duration::from_secs(2);
        while w.samples() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(w.samples() >= 3, "sampler thread must collect on its own");
        w.stop();
        let after = w.samples();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(w.samples(), after, "no samples after stop");
    }

    #[test]
    fn proc_self_reads_procfs() {
        let p = proc_self();
        if cfg!(target_os = "linux") {
            assert!(p.rss_bytes > 0, "RSS must be readable on linux");
            assert!(p.threads >= 1);
        }
    }

    #[test]
    fn process_metrics_render_and_parse() {
        let mut r = Registry::new();
        render_metrics(&mut r);
        let text = r.render();
        for name in [
            "process_resident_memory_bytes",
            "process_threads",
            "process_uptime_seconds",
            "obs_watch_alerts_total",
            "obs_watch_samples_total",
            "obs_watch_bundles_total",
        ] {
            assert!(text.contains(name), "missing {name} in {text}");
        }
        assert!(!parse_samples(&text).is_empty());
    }
}
