//! `campaign trace`: exports a campaign's observability streams as
//! Chrome trace-event JSON, loadable in Perfetto (<https://ui.perfetto.dev>)
//! or `chrome://tracing`.
//!
//! Each worker process becomes one trace *process* (its `pid` is the
//! process's index in worker-sorted order; the real pid is in the
//! process metadata), and each of its threads one *track* (`tid` from
//! the v2 per-thread tag). A worker restarted under the same
//! `--worker-id` appends a second process to the same stream, so a
//! stream splits into *sessions* at each `meta` whose `pid` differs
//! from the previous one; span ids, `parent` links, timer attribution,
//! the `--trial` closure and the monotonic anchor are all scoped to a
//! session. Spans become `"X"` complete events whose `args`
//! carry the causal ids (`id`/`parent`/`trial`) plus the aggregated
//! timer totals (`aggregate`, `io`, …) attributed to them, so the
//! `trial → train/eval → aggregate/io` tree survives the export both
//! visually (time nesting on a track) and structurally (the id
//! links). Counters — including the chaos-injection and retry
//! counters — become `"C"` counter tracks; facade log lines (retry
//! warnings, quarantine notices) become `"i"` instant events.
//!
//! ## Timeline placement
//!
//! v2 streams place span starts with microsecond precision:
//! `meta.ts_ms·1000 + (span.mono_us − meta.mono_us)` converts the
//! process-monotonic start offset to an absolute wall microsecond
//! using the stream's meta anchor. v1 spans (no monotonic clock) fall
//! back to `ts_ms·1000 − dur_us`, the start implied by the wall-stamp
//! the span's *end* was recorded at — coarser, but still a valid
//! timeline. Mixed directories export fine; nothing in a v1 stream is
//! rejected. Events are read through the one obs decoder,
//! [`crate::profile::decode`]: an event `campaign profile --check`
//! would reject is skipped with a warning and counted in
//! [`TraceExport::skipped_lines`].

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use serde::{Map, Value};

use crate::coord::JsonlTailReader;
use crate::fmt::json;
use crate::profile::{decode, worker_streams, Event, OBS_DIR, OBS_SKIP};

/// Export options for [`export`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceOptions {
    /// Restrict the export to one trial's span tree (the spans whose
    /// `trial` matches, plus every descendant reached through
    /// `parent` links). Counters and logs are omitted when filtering.
    pub trial: Option<u64>,
}

/// A rendered export plus its load diagnostics.
#[derive(Debug, Clone, Default)]
pub struct TraceExport {
    /// The trace-event JSON document.
    pub json: String,
    /// Trace events emitted (excluding metadata records).
    pub events: usize,
    /// Complete lines skipped as not JSON or not schema-valid
    /// (telemetry is advisory).
    pub skipped_lines: usize,
    /// Unterminated trailing fragments dropped.
    pub torn_tails: usize,
}

/// One worker process's slice of a stream: a `meta` event and what
/// followed it, up to the next `meta` with a different `pid` (a
/// restarted worker appending to the same file). Span ids, `parent`
/// links, timer attribution and the monotonic anchor are all scoped
/// to it.
#[derive(Debug, Default)]
struct Session {
    worker: String,
    pid: Option<u64>,
    /// The first `meta`'s wall-ms / monotonic-µs pair (v2 only).
    anchor: Option<(u64, u64)>,
    events: Vec<Event>,
}

impl Session {
    /// Absolute wall-clock microsecond for a span start.
    fn span_start_us(&self, ts_ms: u64, dur_us: u64, mono_us: Option<u64>) -> u64 {
        match (self.anchor, mono_us) {
            (Some((ts, anchor)), Some(mono)) => {
                (ts * 1000).saturating_add(mono.saturating_sub(anchor))
            }
            _ => (ts_ms * 1000).saturating_sub(dur_us),
        }
    }

    /// The span ids kept by a `--trial N` filter: every span whose
    /// `trial` matches, plus all descendants reached via `parent`.
    /// Span ids increase parent-before-child within a process, so one
    /// id-ordered pass closes the set.
    fn trial_span_ids(&self, trial: u64) -> BTreeSet<u64> {
        let mut spans: Vec<(u64, u64, Option<u64>)> = self
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Span { id, parent, trial, .. } => {
                    Some((id.unwrap_or(0), parent.unwrap_or(0), *trial))
                }
                _ => None,
            })
            .collect();
        spans.sort_by_key(|&(id, ..)| id);
        let mut keep = BTreeSet::new();
        for (id, parent, t) in spans {
            if t == Some(trial) || (parent != 0 && keep.contains(&parent)) {
                keep.insert(id);
            }
        }
        keep
    }
}

/// Appends one event of the stream of `file_worker` (the worker id in
/// its file name) to its `sessions`, opening a new session at each
/// `meta` whose `pid` differs from the current one's.
fn push_event(sessions: &mut Vec<Session>, file_worker: &str, ev: Event) {
    match ev {
        Event::Meta { ts_ms, worker, pid, mono_us } => {
            if sessions.last().is_none_or(|s| s.pid != Some(pid)) {
                sessions.push(Session { worker, pid: Some(pid), ..Session::default() });
            }
            // First anchor wins: a re-install in the same process
            // shares its monotonic clock.
            let session = sessions.last_mut().expect("a session was just ensured");
            if session.anchor.is_none() {
                session.anchor = mono_us.map(|mono| (ts_ms, mono));
            }
        }
        ev => match sessions.last_mut() {
            Some(session) => session.events.push(ev),
            // Meta line lost (torn off or skipped): name the process
            // after the stream file.
            None => sessions.push(Session {
                worker: file_worker.to_owned(),
                events: vec![ev],
                ..Session::default()
            }),
        },
    }
}

fn table(entries: Vec<(&str, Value)>) -> Value {
    Value::Table(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect::<Map>())
}

fn int(n: u64) -> Value {
    Value::Int(n as i64)
}

fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

/// One metadata record (`ph: "M"`).
fn meta_event(name: &str, pid: u64, tid: u64, value: &str) -> Value {
    table(vec![
        ("ph", s("M")),
        ("name", s(name)),
        ("pid", int(pid)),
        ("tid", int(tid)),
        ("args", table(vec![("name", s(value))])),
    ])
}

/// Exports every `obs/worker-*.jsonl` stream under campaign directory
/// `dir` as one Chrome trace-event JSON document.
///
/// # Errors
///
/// I/O failures, or an `obs/` directory with no worker streams (an
/// empty trace is more likely a wrong path than an empty campaign).
pub fn export(dir: &Path, opts: &TraceOptions) -> Result<TraceExport, String> {
    let streams = worker_streams(dir)?;
    if streams.is_empty() {
        return Err(format!(
            "no obs streams under {} (did this campaign run with --obs?)",
            dir.join(OBS_DIR).display()
        ));
    }
    let mut export = TraceExport::default();
    let mut sessions = Vec::new();
    for (worker, path) in streams {
        let mut stream = Vec::new();
        let skipped = &mut export.skipped_lines;
        let torn = JsonlTailReader::new(path, "obs.read").refresh(OBS_SKIP, |line| {
            let ev = line.and_then(|v| decode(&v)).inspect_err(|_| *skipped += 1)?;
            push_event(&mut stream, &worker, ev);
            Ok(())
        })?;
        export.torn_tails += usize::from(torn);
        sessions.extend(stream);
    }
    // Stable: a restarted worker's sessions keep their stream order.
    sessions.sort_by(|a, b| a.worker.cmp(&b.worker));

    let mut events: Vec<(u64, Value)> = Vec::new(); // (ts µs, event) for sorting
    let mut metadata: Vec<Value> = Vec::new();
    for (i, session) in sessions.iter().enumerate() {
        let pid = i as u64 + 1;
        metadata.push(meta_event(
            "process_name",
            pid,
            0,
            &format!("worker {} (pid {})", session.worker, session.pid.unwrap_or(0)),
        ));
        // Timer aggregates keyed by the span they ran under, merged
        // by name.
        let mut timers: BTreeMap<u64, BTreeMap<&str, (u64, u64)>> = BTreeMap::new();
        for ev in &session.events {
            if let Event::Timer { name, n, total_us, parent, .. } = ev {
                let e = timers.entry(parent.unwrap_or(0)).or_default().entry(name).or_default();
                e.0 += n;
                e.1 += total_us;
            }
        }
        let keep = opts.trial.map(|t| session.trial_span_ids(t));
        let mut tids = BTreeSet::new();
        // Counter tracks: cumulative per name, so the chaos / retry /
        // dispatch counters read as running totals.
        let mut cum: BTreeMap<&str, u64> = BTreeMap::new();
        for ev in &session.events {
            match ev {
                &Event::Span { ts_ms, ref name, dur_us, trial, id, parent, tid, mono_us } => {
                    let id = id.unwrap_or(0);
                    if keep.as_ref().is_some_and(|keep| !keep.contains(&id)) {
                        continue;
                    }
                    let tid = tid.unwrap_or(1);
                    tids.insert(tid);
                    let mut args = Map::new();
                    args.insert("id".into(), int(id));
                    if let Some(p) = parent.filter(|&p| p != 0) {
                        args.insert("parent".into(), int(p));
                    }
                    if let Some(t) = trial {
                        args.insert("trial".into(), int(t));
                    }
                    for (name, &(n, total)) in timers.get(&id).into_iter().flatten() {
                        args.insert(format!("timer.{name}.n"), int(n));
                        args.insert(format!("timer.{name}.us"), int(total));
                    }
                    let ts = session.span_start_us(ts_ms, dur_us, mono_us);
                    events.push((
                        ts,
                        table(vec![
                            ("ph", s("X")),
                            ("cat", s("span")),
                            ("name", s(name.as_str())),
                            ("pid", int(pid)),
                            ("tid", int(tid)),
                            ("ts", int(ts)),
                            ("dur", int(dur_us)),
                            ("args", Value::Table(args)),
                        ]),
                    ));
                }
                Event::Count { ts_ms, name, n, .. } if keep.is_none() => {
                    let c = cum.entry(name).or_insert(0);
                    *c += n;
                    events.push((
                        ts_ms * 1000,
                        table(vec![
                            ("ph", s("C")),
                            ("name", s(name.as_str())),
                            ("pid", int(pid)),
                            ("tid", int(0)),
                            ("ts", int(ts_ms * 1000)),
                            ("args", table(vec![("value", int(*c))])),
                        ]),
                    ));
                }
                Event::Log { ts_ms, level, msg, tid } if keep.is_none() => {
                    events.push((
                        ts_ms * 1000,
                        table(vec![
                            ("ph", s("i")),
                            ("name", s(format!("log.{level}"))),
                            ("pid", int(pid)),
                            ("tid", int(tid.unwrap_or(1))),
                            ("ts", int(ts_ms * 1000)),
                            ("s", s("t")),
                            ("args", table(vec![("msg", s(msg.as_str()))])),
                        ]),
                    ));
                }
                _ => {}
            }
        }
        for tid in tids {
            metadata.push(meta_event(
                "thread_name",
                pid,
                tid,
                &format!("worker {} thread {tid}", session.worker),
            ));
        }
    }
    events.sort_by_key(|(ts, _)| *ts);
    export.events = events.len();
    let mut all = metadata;
    all.extend(events.into_iter().map(|(_, e)| e));
    let doc = table(vec![("traceEvents", Value::Array(all)), ("displayTimeUnit", s("ms"))]);
    export.json = json::render(&doc);
    Ok(export)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("frlfi-trace-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(OBS_DIR)).unwrap();
        dir
    }

    const V2_STREAM: &str = concat!(
        r#"{"v":2,"kind":"meta","worker":"w0","pid":7,"ts_ms":1000,"mono_us":500}"#,
        "\n",
        r#"{"v":2,"kind":"span","name":"train","dur_us":600,"ts_ms":1001,"id":2,"parent":1,"tid":1,"mono_us":600}"#,
        "\n",
        r#"{"v":2,"kind":"span","name":"eval","dur_us":200,"ts_ms":1002,"id":3,"parent":1,"tid":1,"mono_us":1300}"#,
        "\n",
        r#"{"v":2,"kind":"timer","name":"io","n":1,"total_us":50,"ts_ms":1002,"tid":1,"parent":1}"#,
        "\n",
        r#"{"v":2,"kind":"span","name":"trial","trial":4,"dur_us":1000,"ts_ms":1002,"id":1,"tid":1,"mono_us":550}"#,
        "\n",
        r#"{"v":2,"kind":"count","name":"io.retry","n":2,"ts_ms":1002,"tid":1}"#,
        "\n",
        r#"{"v":2,"kind":"log","level":"warn","msg":"retrying","ts_ms":1002,"tid":1}"#,
        "\n",
    );

    fn write_stream(dir: &Path, name: &str, text: &str) {
        std::fs::write(dir.join(OBS_DIR).join(name), text).unwrap();
    }

    fn trace_events(json_text: &str) -> Vec<Value> {
        let doc = json::parse(json_text).unwrap();
        doc.get("traceEvents").and_then(Value::as_array).unwrap().to_vec()
    }

    #[test]
    fn exports_span_tree_counters_and_logs() {
        let dir = tmpdir("tree");
        write_stream(&dir, "worker-w0.jsonl", V2_STREAM);
        let out = export(&dir, &TraceOptions::default()).unwrap();
        let events = trace_events(&out.json);
        let spans: Vec<&Value> =
            events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("X")).collect();
        assert_eq!(spans.len(), 3);
        let find = |name: &str| {
            *spans.iter().find(|e| e.get("name").and_then(Value::as_str) == Some(name)).unwrap()
        };
        let (trial, train) = (find("trial"), find("train"));
        let arg = |e: &Value, k: &str| e.get("args").unwrap().get(k).and_then(Value::as_int);
        assert_eq!(arg(trial, "id"), Some(1));
        assert_eq!(arg(trial, "trial"), Some(4));
        assert_eq!(arg(train, "parent"), arg(trial, "id"));
        // The io timer aggregate is attributed to the trial span.
        assert_eq!(arg(trial, "timer.io.us"), Some(50));
        // Monotonic placement: train starts inside trial's interval.
        let ts = |e: &Value| e.get("ts").and_then(Value::as_int).unwrap();
        let dur = |e: &Value| e.get("dur").and_then(Value::as_int).unwrap();
        assert!(ts(train) >= ts(trial) && ts(train) + dur(train) <= ts(trial) + dur(trial));
        // mono alignment: trial start = 1000*1000 + (550-500).
        assert_eq!(ts(trial), 1_000_050);
        assert!(events.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some("C")));
        assert!(events.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some("i")));
        assert!(events.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some("M")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trial_filter_keeps_the_subtree_only() {
        let dir = tmpdir("filter");
        let mut text = String::from(V2_STREAM);
        // A second trial's spans that must be filtered out.
        text.push_str(concat!(
            r#"{"v":2,"kind":"span","name":"train","dur_us":10,"ts_ms":1003,"id":5,"parent":4,"tid":1,"mono_us":2100}"#,
            "\n",
            r#"{"v":2,"kind":"span","name":"trial","trial":9,"dur_us":30,"ts_ms":1003,"id":4,"tid":1,"mono_us":2000}"#,
            "\n",
        ));
        write_stream(&dir, "worker-w0.jsonl", &text);
        let out = export(&dir, &TraceOptions { trial: Some(4) }).unwrap();
        let events = trace_events(&out.json);
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(names.len(), 3, "{names:?}");
        assert!(!events.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some("C")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_restarted_worker_is_its_own_process() {
        // Two processes appended to one stream under the same worker
        // id; both number their spans from 1 and time one `io` block.
        let dir = tmpdir("restart");
        write_stream(
            &dir,
            "worker-w0.jsonl",
            concat!(
                r#"{"v":2,"kind":"meta","worker":"w0","pid":7,"ts_ms":1000,"mono_us":500}"#,
                "\n",
                r#"{"v":2,"kind":"span","name":"trial","trial":0,"dur_us":100,"ts_ms":1001,"id":1,"tid":1,"mono_us":550}"#,
                "\n",
                r#"{"v":2,"kind":"timer","name":"io","n":1,"total_us":50,"ts_ms":1001,"tid":1,"parent":1}"#,
                "\n",
                r#"{"v":2,"kind":"meta","worker":"w0","pid":8,"ts_ms":2000,"mono_us":100}"#,
                "\n",
                r#"{"v":2,"kind":"span","name":"trial","trial":1,"dur_us":100,"ts_ms":2001,"id":1,"tid":1,"mono_us":150}"#,
                "\n",
                r#"{"v":2,"kind":"timer","name":"io","n":1,"total_us":70,"ts_ms":2001,"tid":1,"parent":1}"#,
                "\n",
            ),
        );
        let spans = |opts: &TraceOptions| -> Vec<Value> {
            let out = export(&dir, opts).unwrap();
            trace_events(&out.json)
                .into_iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
                .collect()
        };
        let all = spans(&TraceOptions::default());
        assert_eq!(all.len(), 2);
        let get = |e: &Value, k: &str| e.get(k).and_then(Value::as_int).unwrap();
        let arg = |e: &Value, k: &str| e.get("args").unwrap().get(k).and_then(Value::as_int);
        let trial = |t: i64| all.iter().find(|e| arg(e, "trial") == Some(t)).unwrap();
        let (first, second) = (trial(0), trial(1));
        assert_ne!(get(first, "pid"), get(second, "pid"), "one trace process per session");
        assert_eq!(arg(first, "timer.io.us"), Some(50));
        assert_eq!(arg(second, "timer.io.us"), Some(70));
        assert_eq!(get(first, "ts"), 1_000_050);
        assert_eq!(get(second, "ts"), 2_000_050, "the later session keeps its own anchor");
        assert_eq!(spans(&TraceOptions { trial: Some(0) }).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_streams_fall_back_to_wall_clock_placement() {
        let dir = tmpdir("v1");
        write_stream(
            &dir,
            "worker-a.jsonl",
            concat!(
                r#"{"v":1,"kind":"meta","worker":"a","pid":3,"ts_ms":1000}"#,
                "\n",
                r#"{"v":1,"kind":"span","name":"trial","trial":0,"dur_us":2000,"ts_ms":1005}"#,
                "\n",
            ),
        );
        let out = export(&dir, &TraceOptions::default()).unwrap();
        let events = trace_events(&out.json);
        let span =
            events.iter().find(|e| e.get("ph").and_then(Value::as_str) == Some("X")).unwrap();
        // start = 1005*1000 - 2000.
        assert_eq!(span.get("ts").and_then(Value::as_int), Some(1_003_000));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_obs_dir_is_an_error() {
        let dir = std::env::temp_dir().join(format!("frlfi-trace-none-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(export(&dir, &TraceOptions::default()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
