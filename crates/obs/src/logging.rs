//! Leveled event logging to stderr.
//!
//! The level is read once from the `DLFM_LOG` environment variable
//! (`off`, `error`, `warn`, `info`, `debug`; default `warn`, or `error`
//! inside a `cargo test` harness) and can be overridden programmatically
//! with [`set_level`]. Lines carry a monotonic timestamp, the level, a
//! target (module path by convention), and — when the thread has a trace
//! context installed — the trace id, so log lines correlate with drained
//! spans:
//!
//! ```text
//! [   12.345ms] WARN dlfm::twopc [trace=1f3a9c…] phase-2 commit attempt 3 failed
//! ```

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unexpected failures that lose or corrupt work.
    Error = 1,
    /// Anomalies the system recovered from (retries, backoffs, guards).
    Warn = 2,
    /// Lifecycle events (startup, recovery, rebinds).
    Info = 3,
    /// Per-operation chatter for debugging.
    Debug = 4,
}

impl Level {
    /// Stable uppercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
        }
    }
}

const LEVEL_UNSET: u8 = 0xff;

static MAX_LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn level_from_env() -> u8 {
    match std::env::var("DLFM_LOG").ok().as_deref() {
        Some("off") | Some("none") => 0,
        Some("error") => Level::Error as u8,
        Some("info") => Level::Info as u8,
        Some("debug") => Level::Debug as u8,
        // Unset under a test harness: the fault-injection tests recover
        // from hundreds of anomalies by design, and a real error must not
        // drown in their warnings.
        None if in_test_harness() => Level::Error as u8,
        // warn is the default: recovered anomalies show, chatter doesn't.
        _ => Level::Warn as u8,
    }
}

/// Is this process a `cargo test` harness? Cargo runs those out of
/// `target/<profile>/deps/`; binaries and examples run from the profile
/// directory itself.
fn in_test_harness() -> bool {
    std::env::current_exe()
        .is_ok_and(|exe| exe.parent().and_then(|dir| dir.file_name()).is_some_and(|d| d == "deps"))
}

fn max_level() -> u8 {
    let lv = MAX_LEVEL.load(Ordering::Relaxed);
    if lv != LEVEL_UNSET {
        return lv;
    }
    let lv = level_from_env();
    MAX_LEVEL.store(lv, Ordering::Relaxed);
    lv
}

/// Override the level (e.g. tests silencing expected warnings). `None`
/// disables logging entirely.
pub fn set_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// Would a message at `level` be emitted?
pub fn enabled(level: Level) -> bool {
    level as u8 <= max_level()
}

fn start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Emit one line (used by the macros; call those instead).
pub fn emit(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    if !enabled(level) {
        return;
    }
    let elapsed = start().elapsed();
    let trace = match crate::trace::current_ctx() {
        Some(ctx) => format!(" [trace={:016x}]", ctx.trace_id),
        None => String::new(),
    };
    // One write_all so concurrent threads don't interleave mid-line.
    use std::io::Write;
    let line = format!(
        "[{:>10.3}ms] {:5} {}{} {}\n",
        elapsed.as_secs_f64() * 1e3,
        level.as_str(),
        target,
        trace,
        args
    );
    let _ = std::io::stderr().write_all(line.as_bytes());
}

/// Log at an explicit [`Level`]: `log!(Level::Warn, "target", "fmt {}", x)`.
#[macro_export]
macro_rules! log {
    ($level:expr, $target:expr, $($arg:tt)+) => {
        if $crate::logging::enabled($level) {
            $crate::logging::emit($level, $target, format_args!($($arg)+));
        }
    };
}

/// Log an unexpected failure.
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)+) => {
        $crate::log!($crate::logging::Level::Error, $target, $($arg)+)
    };
}

/// Log a recovered anomaly.
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)+) => {
        $crate::log!($crate::logging::Level::Warn, $target, $($arg)+)
    };
}

/// Log a lifecycle event.
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)+) => {
        $crate::log!($crate::logging::Level::Info, $target, $($arg)+)
    };
}

/// Log per-operation chatter.
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)+) => {
        $crate::log!($crate::logging::Level::Debug, $target, $($arg)+)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn a_test_harness_defaults_to_errors_only() {
        assert!(in_test_harness(), "this very binary is one");
        if std::env::var_os("DLFM_LOG").is_none() {
            assert_eq!(level_from_env(), Level::Error as u8);
        }
    }

    #[test]
    fn set_level_filters() {
        set_level(Some(Level::Error));
        assert!(enabled(Level::Error));
        assert!(!enabled(Level::Warn));
        set_level(Some(Level::Debug));
        assert!(enabled(Level::Debug));
        set_level(None);
        assert!(!enabled(Level::Error));
        // Restore the env-derived default for other tests.
        MAX_LEVEL.store(LEVEL_UNSET, Ordering::Relaxed);
    }

    #[test]
    fn macros_compile_and_run() {
        set_level(Some(Level::Debug));
        crate::error!("obs::test", "error {}", 1);
        crate::warn!("obs::test", "warn {}", 2);
        crate::info!("obs::test", "info {}", 3);
        crate::debug!("obs::test", "debug {}", 4);
        MAX_LEVEL.store(LEVEL_UNSET, Ordering::Relaxed);
    }
}
