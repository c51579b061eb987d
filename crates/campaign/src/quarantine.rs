//! Poison-trial quarantine: graceful degradation when a trial's
//! persistence keeps failing.
//!
//! A trial whose *evaluation* is deterministic can still be
//! undeliverable: if every attempt to append its record exhausts the
//! `crate::io::with_retry` budget (a genuinely failing disk, or a
//! persistent injected fault), killing the worker would also abandon
//! every healthy trial behind it in the queue. Instead the worker
//! **quarantines** the trial — appends a durable record here and
//! moves on — and [`crate::runner`]'s finalize step downgrades the
//! outcome: an explicitly marked degraded `summary.txt` plus a
//! nonzero exit unless `--allow-partial`.
//!
//! ```text
//! <dir>/quarantine.jsonl — one JSON record per quarantined trial
//! ```
//!
//! Quarantine records are **advisory**, like claims: they never mark
//! a trial dead. A completed record in `trials.jsonl` always
//! overrides (trial evaluation is a pure function of `(cell, seed)`,
//! so a later healthy worker — or the same worker after the
//! filesystem recovers — simply re-runs the trial bitwise-identically
//! and the campaign completes as if nothing happened). The records
//! exist so `campaign status` can show poisoned work and so a
//! degraded summary can name exactly what is missing.
//!
//! Appends here deliberately bypass the [`crate::io`] chaos shim and
//! its retry loop: this is the last-resort handler that runs *because*
//! the instrumented path failed, so it must not recurse into the
//! injector, and a best-effort single attempt is all it gets (losing
//! a quarantine record costs only a status line — the trial log and
//! the degraded exit code carry the real state).

use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;

use serde::{Map, Value};

use crate::coord::JsonlTailReader;
use crate::fmt::json;

/// File name of the quarantine log inside a campaign directory.
pub(crate) const QUARANTINE_FILE: &str = "quarantine.jsonl";

/// Which kind of task a quarantine record poisons.
///
/// Classic campaigns only ever quarantine **trials**. Study (task-DAG)
/// campaigns can also quarantine a **train** task — a model whose
/// training or artifact publication exhausted its retries — which
/// deterministically poisons every dependent eval trial. Records
/// written before this distinction existed carry no `kind` field and
/// parse as [`QuarantineKind::Trial`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QuarantineKind {
    /// An eval `(cell, repeat)` trial; `trial` is its flat index.
    #[default]
    Trial,
    /// A study train task; `trial` is the model index.
    Train,
}

impl QuarantineKind {
    fn name(self) -> &'static str {
        match self {
            QuarantineKind::Trial => "trial",
            QuarantineKind::Train => "train",
        }
    }
}

/// One quarantined task: which task, who gave up on it, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Task kind (missing in old logs ⇒ [`QuarantineKind::Trial`]).
    pub kind: QuarantineKind,
    /// Flat trial index (`cell * repeats + repeat`) for trial records;
    /// the model index for train records.
    pub(crate) trial: usize,
    /// Cell index (row-major in the campaign's grid).
    pub(crate) cell: usize,
    /// Repeat index within the cell.
    pub(crate) repeat: usize,
    /// Worker that exhausted its retries.
    pub(crate) worker: String,
    /// The final error, after the retry budget was spent.
    pub error: String,
    /// When the trial was quarantined (ms since the Unix epoch).
    pub(crate) ts_ms: u64,
}

impl QuarantineRecord {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("kind".into(), Value::Str(self.kind.name().into()));
        m.insert("trial".into(), Value::Int(self.trial as i64));
        m.insert("cell".into(), Value::Int(self.cell as i64));
        m.insert("repeat".into(), Value::Int(self.repeat as i64));
        m.insert("worker".into(), Value::Str(self.worker.clone()));
        m.insert("error".into(), Value::Str(self.error.clone()));
        m.insert("ts_ms".into(), Value::Int(self.ts_ms as i64));
        Value::Table(m)
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let get_int = |k: &str| {
            v.get(k)
                .and_then(Value::as_int)
                .ok_or_else(|| format!("quarantine record missing integer `{k}`"))
        };
        let get_str = |k: &str| match v.get(k) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("quarantine record missing string `{k}`")),
        };
        let kind = match v.get("kind") {
            None => QuarantineKind::Trial,
            Some(Value::Str(s)) if s == "trial" => QuarantineKind::Trial,
            Some(Value::Str(s)) if s == "train" => QuarantineKind::Train,
            Some(other) => return Err(format!("quarantine record has unknown kind {other:?}")),
        };
        Ok(QuarantineRecord {
            kind,
            trial: get_int("trial")? as usize,
            cell: get_int("cell")? as usize,
            repeat: get_int("repeat")? as usize,
            worker: get_str("worker")?,
            error: get_str("error")?,
            ts_ms: get_int("ts_ms")? as u64,
        })
    }
}

/// Appends one quarantine record, best-effort and **uninstrumented**
/// (see the module docs for why this path bypasses the chaos shim and
/// retry loop). Uses the same heal-then-single-append-then-fsync
/// shape as every shared log, so concurrent quarantining workers
/// interleave line-atomically. Failures are reported, not fatal.
///
/// # Errors
///
/// Returns a message on I/O failure; callers warn and continue.
pub(crate) fn append(dir: &Path, record: &QuarantineRecord) -> Result<(), String> {
    let path = dir.join(QUARANTINE_FILE);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .read(true)
        .open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let line = json::render(&record.to_value());
    let mut buf = String::with_capacity(line.len() + 2);
    if !crate::coord::ends_with_newline(&mut file)
        .map_err(|e| format!("{}: {e}", path.display()))?
    {
        buf.push('\n');
    }
    buf.push_str(&line);
    buf.push('\n');
    file.write_all(buf.as_bytes())
        .and_then(|()| file.sync_data())
        .map_err(|e| format!("append {}: {e}", path.display()))
}

/// What skipping a bad quarantine-log line costs.
const QUARANTINE_SKIP: &str = "quarantine records are advisory only";

/// The one typed reader of `quarantine.jsonl`: an incremental,
/// **uninstrumented** tail reader (status paths must work even while
/// the chaos injector is armed against the very I/O being inspected),
/// lenient like every shared-log reader — a torn or healed garbage
/// line is skipped with a warning. A missing file means no
/// quarantines.
pub(crate) struct QuarantineReader {
    tail: JsonlTailReader,
    /// Every parseable record, in log order.
    records: Vec<QuarantineRecord>,
}

impl QuarantineReader {
    pub(crate) fn new(dir: &Path) -> Self {
        QuarantineReader {
            tail: JsonlTailReader::uninstrumented(dir.join(QUARANTINE_FILE)),
            records: Vec::new(),
        }
    }

    /// Folds every record appended since the last refresh.
    ///
    /// # Errors
    ///
    /// Returns a message only for I/O failures.
    pub(crate) fn refresh(&mut self) -> Result<(), String> {
        let records = &mut self.records;
        self.tail.refresh(QUARANTINE_SKIP, |v| {
            records.push(QuarantineRecord::from_value(&v?)?);
            Ok(())
        })?;
        Ok(())
    }

    /// How many distinct tasks of `kind` carry a record and are still
    /// `incomplete` (by flat trial index for trials, by model index for
    /// train tasks): a completed task's records are history.
    pub(crate) fn count(&self, kind: QuarantineKind, incomplete: impl Fn(usize) -> bool) -> usize {
        let open = self.records.iter().filter(|q| q.kind == kind && incomplete(q.trial));
        open.map(|q| q.trial).collect::<BTreeSet<_>>().len()
    }
}

/// Loads every parseable quarantine record, in log order, through a
/// `QuarantineReader`.
///
/// # Errors
///
/// Returns a message only for I/O failures.
pub fn load(dir: &Path) -> Result<Vec<QuarantineRecord>, String> {
    let mut reader = QuarantineReader::new(dir);
    reader.refresh()?;
    Ok(reader.records)
}

#[cfg(test)]
impl QuarantineReader {
    /// Log bytes consumed so far.
    pub(crate) fn consumed(&self) -> u64 {
        self.tail.offset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "frlfi-quarantine-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn rec(trial: usize) -> QuarantineRecord {
        QuarantineRecord {
            kind: QuarantineKind::Trial,
            trial,
            cell: trial / 2,
            repeat: trial % 2,
            worker: "w1".into(),
            error: "append trials.jsonl: injected transient EIO (chaos)".into(),
            ts_ms: 1_700_000_000_000,
        }
    }

    #[test]
    fn records_round_trip_and_heal_torn_tails() {
        let dir = temp_dir("roundtrip");
        assert_eq!(load(&dir).expect("empty"), Vec::new());
        append(&dir, &rec(3)).expect("append");
        append(&dir, &rec(5)).expect("append");
        // A torn tail from a killed writer is skipped on load and
        // healed into its own line by the next append.
        let mut f =
            std::fs::OpenOptions::new().append(true).open(dir.join(QUARANTINE_FILE)).expect("open");
        write!(f, "{{\"trial\":9,\"ce").expect("torn tail");
        drop(f);
        assert_eq!(load(&dir).expect("load"), vec![rec(3), rec(5)]);
        append(&dir, &rec(7)).expect("append heals");
        assert_eq!(load(&dir).expect("load"), vec![rec(3), rec(5), rec(7)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_records_and_legacy_kindless_lines_parse_by_kind() {
        let dir = temp_dir("kinds");
        let train = QuarantineRecord {
            kind: QuarantineKind::Train,
            trial: 1,
            cell: 1,
            repeat: 0,
            worker: "w1".into(),
            error: "publish model-1: injected persistent EIO (chaos)".into(),
            ts_ms: 1_700_000_000_000,
        };
        append(&dir, &train).expect("append");
        // Records written before the task DAG existed carry no `kind`
        // field and must keep parsing as plain trial quarantines.
        let mut f =
            std::fs::OpenOptions::new().append(true).open(dir.join(QUARANTINE_FILE)).expect("open");
        writeln!(f, "{{\"trial\": 4, \"cell\": 2, \"repeat\": 0, \"worker\": \"w0\", \"error\": \"x\", \"ts_ms\": 1}}")
            .expect("legacy line");
        drop(f);
        let recs = load(&dir).expect("load");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], train);
        assert_eq!(recs[1].kind, QuarantineKind::Trial);
        assert_eq!(recs[1].trial, 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
