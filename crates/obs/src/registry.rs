//! Prometheus-text-format metrics registry.
//!
//! A [`Registry`] is a builder: each layer contributes counters, gauges,
//! and histograms, and [`Registry::render`] produces one exposition-format
//! string (`# HELP`/`# TYPE` headers once per family, then
//! `name{labels} value` samples). Histograms render the conventional
//! cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
//!
//! A struct's own counters, gauge cells and histograms are declared once,
//! through [`counters!`](crate::counters), which writes the struct, its
//! snapshot and its rendering; only values read from live state are
//! added by hand.

use std::collections::HashSet;
use std::fmt::Write;

use crate::hist::Histogram;

/// Cumulative `le` boundaries for rendered histograms, in the recorded
/// unit (the workspace records microseconds: 10us .. 100s).
pub const LE_BOUNDS: [u64; 8] =
    [10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// A metrics registry that renders to Prometheus text format.
#[derive(Default)]
pub struct Registry {
    buf: String,
    seen: HashSet<String>,
    /// Labels every sample carries ahead of its own (see [`Registry::scoped`]).
    scope: Vec<(String, String)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Render what `f` adds with `labels` ahead of each sample's own: one
    /// block per attached server, say, so no two blocks repeat a series.
    pub fn scoped(&mut self, labels: &[(&str, &str)], f: impl FnOnce(&mut Registry)) {
        let outer = self.scope.len();
        self.scope.extend(labels.iter().map(|(k, v)| (k.to_string(), v.to_string())));
        f(self);
        self.scope.truncate(outer);
    }

    fn fmt_labels(&self, labels: &[(&str, &str)]) -> String {
        let scope = self.scope.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        let inner: Vec<String> = scope
            .chain(labels.iter().copied())
            .map(|(k, v)| format!("{k}=\"{}\"", v.replace('"', "'")))
            .collect();
        if inner.is_empty() {
            return String::new();
        }
        format!("{{{}}}", inner.join(","))
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        if self.seen.insert(name.to_string()) {
            let _ = writeln!(self.buf, "# HELP {name} {help}");
            let _ = writeln!(self.buf, "# TYPE {name} {kind}");
        }
    }

    /// Add a monotonic counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.header(name, help, "counter");
        let labels = self.fmt_labels(labels);
        let _ = writeln!(self.buf, "{name}{labels} {value}");
    }

    /// Add a gauge sample (a value that can go up and down).
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: i64) {
        self.header(name, help, "gauge");
        let labels = self.fmt_labels(labels);
        let _ = writeln!(self.buf, "{name}{labels} {value}");
    }

    /// Add a histogram family member: cumulative buckets at [`LE_BOUNDS`]
    /// plus `+Inf`, `_sum`, and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.header(name, help, "histogram");
        for le in LE_BOUNDS {
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            let le_s = le.to_string();
            with_le.push(("le", &le_s));
            let with_le = self.fmt_labels(&with_le);
            let _ = writeln!(self.buf, "{name}_bucket{with_le} {}", h.count_at_or_below(le));
        }
        let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
        with_inf.push(("le", "+Inf"));
        let with_inf = self.fmt_labels(&with_inf);
        let labels = self.fmt_labels(labels);
        let _ = writeln!(self.buf, "{name}_bucket{with_inf} {}", h.count());
        let _ = writeln!(self.buf, "{name}_sum{labels} {}", h.sum());
        let _ = writeln!(self.buf, "{name}_count{labels} {}", h.count());
    }

    /// Finish and return the exposition text.
    pub fn render(self) -> String {
        self.buf
    }
}

/// One `name{labels} value` sample parsed back out of exposition text.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name, without the label set.
    pub name: String,
    /// The raw `{...}` label block, or empty when the sample has none.
    pub labels: String,
    /// The sample value.
    pub value: f64,
}

/// Parse a single exposition line into a [`Sample`].
///
/// Returns `None` for anything that is not a well-formed sample: comments
/// (`# HELP`/`# TYPE`), blank lines, lines with no space-separated value,
/// unparseable values, bad metric names, or unbalanced label braces.
/// Scrapers must tolerate such lines rather than die on them.
pub fn parse_line(line: &str) -> Option<Sample> {
    let line = line.trim_end();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (metric, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let name_end = metric.find('{').unwrap_or(metric.len());
    let name = &metric[..name_end];
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        return None;
    }
    let labels = &metric[name_end..];
    if !(labels.is_empty() || (labels.starts_with('{') && labels.ends_with('}'))) {
        return None;
    }
    Some(Sample { name: name.to_string(), labels: labels.to_string(), value })
}

/// Parse every well-formed sample out of exposition text, silently
/// skipping comments, blanks, and malformed lines.
pub fn parse_samples(text: &str) -> Vec<Sample> {
    text.lines().filter_map(parse_line).collect()
}

/// Declare a table of metrics once; the struct that holds them, their
/// read accessors, a plain-value snapshot with `delta`, and their
/// Prometheus rendering are generated from it, so no copy can disagree.
///
/// Each entry is a field: its doc comment, name, kind, Prometheus family,
/// optional fixed labels and help text. The kinds are
///
/// * `counter` — an `AtomicU64`, read as `u64`, rendered as a counter;
/// * `gauge` — an `AtomicI64` cell, read as `i64`, rendered as a gauge;
/// * `histogram` — a [`Histogram`], read as `&Histogram`.
///
/// Several fields may share a family under different labels (each field
/// then repeats the family's help text). `struct Name => NameSnapshot`
/// also generates the snapshot (every field, which must then be a counter
/// or a gauge) with `snapshot()` and `delta()`: counters subtract, gauges
/// keep their later level. Members that are no metric, such as a nested
/// table, follow in a `beside { .. }` block. Every member is `Debug` and
/// `Default`. Atomics are `Relaxed`: each is a bare statistic that
/// publishes no other data.
///
/// ```
/// use std::sync::atomic::Ordering::Relaxed;
///
/// obs::counters! {
///     /// A toy server's requests.
///     pub struct Served => ServedSnapshot {
///         /// Requests answered.
///         ok: counter "toy_requests_total" {outcome = "ok"} "Requests by outcome.",
///         /// Requests refused.
///         refused: counter "toy_requests_total" {outcome = "refused"} "Requests by outcome.",
///         /// Requests being served right now.
///         busy: gauge "toy_busy" "Requests being served.",
///     } beside {
///         /// Not a metric.
///         pub name: String,
///     }
/// }
/// let s = Served::default();
/// s.ok.fetch_add(2, Relaxed);
/// let before = s.snapshot();
/// s.ok.fetch_add(1, Relaxed);
/// assert_eq!((s.ok(), s.snapshot().delta(&before).ok), (3, 1));
/// let mut r = obs::Registry::new();
/// s.render(&mut r);
/// assert!(r.render().contains("toy_requests_total{outcome=\"ok\"} 3\n"));
/// ```
#[macro_export]
macro_rules! counters {
    (@cell counter) => { ::std::sync::atomic::AtomicU64 };
    (@cell gauge) => { ::std::sync::atomic::AtomicI64 };
    (@cell histogram) => { $crate::Histogram };
    (@value counter) => { u64 };
    (@value gauge) => { i64 };
    (@read_ty histogram) => { &$crate::Histogram };
    (@read_ty $kind:ident) => { $crate::counters!(@value $kind) };
    (@read histogram, $cell:expr) => { &$cell };
    (@read $kind:ident, $cell:expr) => { $cell.load(::std::sync::atomic::Ordering::Relaxed) };
    (@delta counter, $later:expr, $earlier:expr) => { $later - $earlier };
    (@delta gauge, $later:expr, $earlier:expr) => { $later };

    (@struct [$(#[$meta:meta])* $vis:vis $name:ident] {
        $(
            $(#[$fmeta:meta])*
            $field:ident : $kind:ident $family:literal $({ $($lk:ident = $lv:literal),* })? $help:literal
        ),* $(,)?
    } $(beside { $($(#[$xmeta:meta])* $xvis:vis $xname:ident : $xty:ty),* $(,)? })?) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $($(#[$fmeta])* pub $field: $crate::counters!(@cell $kind),)*
            $($($(#[$xmeta])* $xvis $xname: $xty,)*)?
        }

        impl $name {
            $(
                $(#[$fmeta])*
                pub fn $field(&self) -> $crate::counters!(@read_ty $kind) {
                    $crate::counters!(@read $kind, self.$field)
                }
            )*

            /// Render every metric of this table into `r`.
            pub fn render(&self, r: &mut $crate::Registry) {
                // Each kind is named after the registry method that renders it.
                $(r.$kind($family, $help, &[$($((stringify!($lk), $lv)),*)?], self.$field());)*
            }
        }
    };

    (@snapshot [$vis:vis $name:ident $snap:ident] {
        $(
            $(#[$fmeta:meta])*
            $field:ident : $kind:ident $family:literal $({ $($lk:ident = $lv:literal),* })? $help:literal
        ),* $(,)?
    }) => {
        #[doc = concat!("Plain-value snapshot of [`", stringify!($name), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snap {
            $($(#[$fmeta])* pub $field: $crate::counters!(@value $kind),)*
        }

        impl $name {
            /// Read every metric.
            pub fn snapshot(&self) -> $snap {
                $snap { $($field: self.$field(),)* }
            }
        }

        impl $snap {
            /// What happened since `earlier`: counters subtract, gauges
            /// keep their later level.
            pub fn delta(&self, earlier: &$snap) -> $snap {
                $snap { $($field: $crate::counters!(@delta $kind, self.$field, earlier.$field),)* }
            }
        }
    };

    ($(#[$meta:meta])* $vis:vis struct $name:ident => $snap:ident { $($table:tt)* } $($beside:tt)*) => {
        $crate::counters!(@struct [$(#[$meta])* $vis $name] { $($table)* } $($beside)*);
        $crate::counters!(@snapshot [$vis $name $snap] { $($table)* });
    };
    ($(#[$meta:meta])* $vis:vis struct $name:ident { $($table:tt)* } $($beside:tt)*) => {
        $crate::counters!(@struct [$(#[$meta])* $vis $name] { $($table)* } $($beside)*);
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::*;

    /// Every non-comment, non-blank line the registry renders must parse
    /// back as a sample — the renderer should never emit a line a scraper
    /// would have to skip.
    pub fn assert_parseable(text: &str) {
        for line in text.lines() {
            if line.trim_end().is_empty() || line.starts_with('#') {
                continue;
            }
            assert!(parse_line(line).is_some(), "rendered unparseable sample line {line:?}");
        }
    }

    #[test]
    fn parse_line_accepts_samples_and_skips_everything_else() {
        // Well-formed samples, with and without labels.
        let s = parse_line("dlfm_ops_total{op=\"link\"} 9").unwrap();
        assert_eq!(
            s,
            Sample { name: "dlfm_ops_total".into(), labels: "{op=\"link\"}".into(), value: 9.0 }
        );
        let s = parse_line("rpc_in_flight 3").unwrap();
        assert_eq!(s.name, "rpc_in_flight");
        assert!(s.labels.is_empty());
        let s = parse_line("op_latency_micros_bucket{op=\"link\",le=\"+Inf\"} 4").unwrap();
        assert_eq!(s.value, 4.0);

        // Comments, blanks, and malformed lines are skipped, not panicked on.
        assert_eq!(parse_line("# HELP dlfm_ops_total Ops by kind."), None);
        assert_eq!(parse_line("# TYPE op_latency_micros histogram"), None);
        assert_eq!(parse_line(""), None);
        assert_eq!(parse_line("   "), None);
        assert_eq!(parse_line("lonely_token_without_a_value"), None);
        assert_eq!(parse_line("dlfm_ops_total not_a_number"), None);
        assert_eq!(parse_line("bad-metric-name 1"), None);
        assert_eq!(parse_line("unbalanced{op=\"link\" 1"), None);
    }

    #[test]
    fn parse_samples_survives_a_mixed_scrape() {
        let text = "# HELP dlfm_links_total Files linked.\n\
                    # TYPE dlfm_links_total counter\n\
                    dlfm_links_total 17\n\
                    \n\
                    garbage_line_without_value\n\
                    op_latency_micros_bucket{le=\"10\"} 1\n\
                    op_latency_micros_sum 505055\n";
        let samples = parse_samples(text);
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "dlfm_links_total");
        assert_eq!(samples[0].value, 17.0);
        assert_eq!(samples[1].labels, "{le=\"10\"}");
    }

    #[test]
    fn renders_counters_gauges_histograms() {
        let h = Histogram::new();
        for v in [5u64, 50, 5_000, 500_000] {
            h.record(v);
        }
        let mut r = Registry::new();
        r.counter("dlfm_links_total", "Files linked.", &[], 17);
        r.counter("dlfm_ops_total", "Ops by kind.", &[("op", "link")], 9);
        r.counter("dlfm_ops_total", "Ops by kind.", &[("op", "unlink")], 8);
        r.gauge("rpc_in_flight", "Calls in flight.", &[], 3);
        r.histogram("op_latency_micros", "Latency.", &[("op", "link")], &h);
        r.scoped(&[("server", "fs1")], |r| {
            r.counter("rpc_calls_total", "Calls.", &[], 2);
            r.counter("dlfm_ops_total", "Ops by kind.", &[("op", "link")], 1);
        });
        r.counter("rpc_calls_total", "Calls.", &[], 5);
        let text = r.render();

        assert_parseable(&text);
        // Headers appear exactly once per family.
        assert_eq!(text.matches("# TYPE dlfm_ops_total counter").count(), 1);
        assert!(text.contains("dlfm_ops_total{op=\"link\"} 9"));
        assert!(text.contains("dlfm_ops_total{op=\"unlink\"} 8"));
        assert!(text.contains("rpc_in_flight 3"));
        // Histogram: cumulative buckets, +Inf equals count.
        assert!(text.contains("op_latency_micros_bucket{op=\"link\",le=\"10\"} 1"));
        assert!(text.contains("op_latency_micros_bucket{op=\"link\",le=\"+Inf\"} 4"));
        assert!(text.contains("op_latency_micros_count{op=\"link\"} 4"));
        assert!(text.contains("op_latency_micros_sum{op=\"link\"} 505055"));
        // A scope puts its labels first, and only on the samples inside it.
        assert!(text.contains("rpc_calls_total{server=\"fs1\"} 2\n"));
        assert!(text.contains("dlfm_ops_total{server=\"fs1\",op=\"link\"} 1\n"));
        assert!(text.contains("\nrpc_calls_total 5\n"));
    }

    #[test]
    fn le_buckets_are_cumulative_and_monotonic() {
        let h = Histogram::new();
        for v in 0..10_000u64 {
            h.record(v * 13);
        }
        let mut prev = 0;
        for le in LE_BOUNDS {
            let c = h.count_at_or_below(le);
            assert!(c >= prev, "bucket counts must be cumulative");
            prev = c;
        }
        assert!(h.count() >= prev);
    }

    crate::counters! {
        /// A table with every kind.
        struct Table => TableSnapshot {
            /// A counter.
            done: counter "t_done_total" {how = "ok"} "Done.",
            /// A gauge cell.
            level: gauge "t_level" "Level.",
        } beside {
            /// A histogram table beside the counters.
            hists: Hists,
        }
    }

    crate::counters! {
        /// Histograms have no snapshot.
        struct Hists {
            /// Latency.
            lat: histogram "t_latency_micros" {op = "x"} "Latency.",
        }
    }

    #[test]
    fn a_counters_table_reads_deltas_and_renders_every_kind() {
        let t = Table::default();
        t.done.fetch_add(5, Ordering::Relaxed);
        t.level.store(7, Ordering::Relaxed);
        let before = t.snapshot();
        t.done.fetch_add(2, Ordering::Relaxed);
        t.level.store(3, Ordering::Relaxed);
        t.hists.lat.record(50);
        // Counters subtract; a gauge is a level, so the delta keeps the later one.
        assert_eq!(t.snapshot().delta(&before), TableSnapshot { done: 2, level: 3 });
        assert_eq!((t.done(), t.level(), t.hists.lat().count()), (7, 3, 1));

        let mut r = Registry::new();
        t.render(&mut r);
        t.hists.render(&mut r);
        let text = r.render();
        assert_parseable(&text);
        assert!(text.contains("# TYPE t_done_total counter\nt_done_total{how=\"ok\"} 7\n"));
        assert!(text.contains("# TYPE t_level gauge\nt_level 3\n"));
        assert!(text.contains("# TYPE t_latency_micros histogram\n"));
        assert!(text.contains("t_latency_micros_count{op=\"x\"} 1\n"));
    }
}
