//! # frlfi-obs
//!
//! Zero-dependency observability for the campaign stack: lightweight
//! span timers, counters and fixed-bucket histograms behind a
//! process-global recorder, plus a leveled stderr logging facade.
//!
//! ## Design constraints
//!
//! * **Inert when disabled.** Nothing is recorded until
//!   [`install`] opens a sink; every instrumentation point costs one
//!   relaxed atomic load and a predictable branch when disabled — no
//!   clock reads, no allocation, no locks. The numeric path is
//!   untouched either way: observability only *reads* clocks and
//!   counts events, it never draws randomness or perturbs any value,
//!   so campaign artifacts (`summary.txt`, `trials.jsonl`) are
//!   byte-identical with the recorder on or off.
//! * **Cheap when enabled.** Counters, histograms and [`timed`]
//!   blocks aggregate in thread-local tables and only reach the shared
//!   sink on [`flush`] (which instrumented runners call once per
//!   trial) or at thread exit. Only [`span`]s — a handful per trial —
//!   and log events write a line each.
//! * **Crash-tolerant stream.** Events append as single-line JSON to
//!   one file per worker process (`obs/worker-<id>.jsonl` inside the
//!   campaign directory). A SIGKILL can tear at most the final line;
//!   readers skip a torn tail exactly like the `trials.jsonl` /
//!   `claims.jsonl` loaders do.
//!
//! ## Event schema (`"v":2`)
//!
//! Every line is one JSON object with a `v` (schema version), `kind`,
//! and `ts_ms` (milliseconds since the Unix epoch). Version 2 adds
//! **causal structure**: spans carry a process-unique `id`, the `id`
//! of the span they nested under (`parent`, from a thread-local span
//! stack), a per-process thread tag (`tid`) and a monotonic-clock
//! start offset (`mono_us`, µs since the process anchor — the `meta`
//! event carries the anchor's wall/monotonic pair); timers carry the
//! `parent` span they accumulated under; histograms carry the exact
//! `max` so the overflow bucket never loses the tail. One decoder
//! (`frlfi_campaign::profile::decode`, kept in the campaign crate so
//! this one needs no JSON parser) serves every reader: `campaign
//! profile`, `trace`, `top` and `perf` fold its typed events, so they
//! accept version 1 events (none of those fields) and mixed
//! directories alike, and `trace` / `top` skip exactly the events
//! `profile --check` rejects. `trace` splits a stream into sessions
//! at each `meta` whose `pid` changes (a restarted worker appending
//! to the same file), since span ids are only unique per process.
//!
//! | `kind`  | extra fields | meaning |
//! |---|---|---|
//! | `meta`  | `worker`, `pid`, `mono_us` | emitted once on install; anchors the monotonic clock to `ts_ms` |
//! | `span`  | `name`, `dur_us`, `id`, `tid`, `mono_us`, optional `parent`, optional `trial` | one timed phase (e.g. `trial`, `train`, `eval`) |
//! | `timer` | `name`, `n`, `total_us`, `tid`, optional `parent` | aggregated timed blocks since the last flush (e.g. `aggregate`, `io`), attributed to the span they ran in |
//! | `count` | `name`, `n`, `tid` | aggregated counter delta since the last flush |
//! | `hist`  | `name`, `buckets`, `max`, `tid` | aggregated power-of-two histogram delta; bucket `b ≥ 1` counts values in `[2^(b-1), 2^b)`, bucket 0 counts zeros; `max` is the exact largest value recorded |
//! | `log`   | `level`, `msg`, `tid` | a message routed through the logging facade |
//!
//! ## Logging facade
//!
//! [`warn!`] and [`info!`] replace ad-hoc `eprintln!` calls: messages
//! print to stderr as `campaign: warning: …` / `campaign: …` when the
//! process log level admits them (the `CAMPAIGN_LOG` environment
//! variable — `quiet`/`warn`/`info`/`debug` — or
//! [`set_log_level`], e.g. from a `--quiet` flag), and are *also*
//! recorded as `log` events whenever the recorder is installed, so a
//! campaign directory keeps the warnings its workers printed.

mod recorder;

pub use recorder::{
    count, enabled, flush, hist, install, span, span_trial, timed, uninstall, Span, Timed,
    HIST_BUCKETS, SCHEMA_VERSION,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// Severity of a facade message; doubles as the process stderr
/// threshold (a message prints iff `level <= threshold`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Suppress everything (the `--quiet` knob).
    Quiet = 0,
    /// Warnings only — the default.
    Warn = 1,
    /// Progress/informational messages too.
    Info = 2,
    /// Everything.
    Debug = 3,
}

impl Level {
    /// Parses a `CAMPAIGN_LOG` value. Unknown strings mean the
    /// default ([`Level::Warn`]) — a typo must not silence warnings.
    pub(crate) fn parse(s: &str) -> Level {
        match s.trim().to_ascii_lowercase().as_str() {
            "quiet" | "off" | "0" => Level::Quiet,
            "info" => Level::Info,
            "debug" => Level::Debug,
            _ => Level::Warn,
        }
    }

    /// The stable lower-case name (`quiet`/`warn`/`info`/`debug`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Level::Quiet => "quiet",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// 255 = "not yet resolved from the environment".
static LOG_LEVEL: AtomicU8 = AtomicU8::new(255);

/// The process stderr threshold, resolved from `CAMPAIGN_LOG` on
/// first use (default [`Level::Warn`]).
pub(crate) fn log_level() -> Level {
    match LOG_LEVEL.load(Ordering::Relaxed) {
        0 => Level::Quiet,
        1 => Level::Warn,
        2 => Level::Info,
        3 => Level::Debug,
        _ => {
            let level =
                std::env::var("CAMPAIGN_LOG").map(|v| Level::parse(&v)).unwrap_or(Level::Warn);
            LOG_LEVEL.store(level as u8, Ordering::Relaxed);
            level
        }
    }
}

/// Overrides the stderr threshold (e.g. `--quiet` →
/// [`Level::Quiet`]). Takes precedence over `CAMPAIGN_LOG`.
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The facade behind [`warn!`] / [`info!`]: prints to stderr when the
/// threshold admits `level`, and records a `log` event whenever the
/// recorder is installed (stderr suppression never hides events —
/// that is what makes warnings testable from the stream).
pub fn log(level: Level, args: std::fmt::Arguments<'_>) {
    let to_stderr = level <= log_level() && level != Level::Quiet;
    let to_stream = enabled();
    if !to_stderr && !to_stream {
        return;
    }
    let msg = std::fmt::format(args);
    if to_stderr {
        match level {
            Level::Warn => eprintln!("campaign: warning: {msg}"),
            _ => eprintln!("campaign: {msg}"),
        }
    }
    if to_stream {
        recorder::log_event(level, &msg);
    }
}

/// Logs a warning through the facade (stderr prefix
/// `campaign: warning: `, stream `"level":"warn"`).
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::log($crate::Level::Warn, format_args!($($arg)*)) };
}

/// Logs an informational message through the facade (stderr prefix
/// `campaign: `, stream `"level":"info"`).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::log($crate::Level::Info, format_args!($($arg)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_is_forgiving() {
        assert_eq!(Level::parse("quiet"), Level::Quiet);
        assert_eq!(Level::parse("OFF"), Level::Quiet);
        assert_eq!(Level::parse("Info"), Level::Info);
        assert_eq!(Level::parse("debug"), Level::Debug);
        assert_eq!(Level::parse("warn"), Level::Warn);
        assert_eq!(Level::parse("nonsense"), Level::Warn, "typos must not silence warnings");
    }

    #[test]
    fn levels_order_quiet_to_debug() {
        assert!(Level::Quiet < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert_eq!(Level::Warn.name(), "warn");
    }

    #[test]
    fn set_log_level_overrides() {
        set_log_level(Level::Info);
        assert_eq!(log_level(), Level::Info);
        set_log_level(Level::Warn);
        assert_eq!(log_level(), Level::Warn);
    }
}
