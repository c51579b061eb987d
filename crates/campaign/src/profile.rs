//! Offline aggregation of observability streams: `campaign profile`.
//!
//! Workers running with the recorder enabled (`campaign run --obs`,
//! `CAMPAIGN_OBS=1`) stream [`frlfi_obs`] events to
//! `<dir>/obs/worker-<id>.jsonl` — one file per worker, append-only,
//! flushed per committed trial. This module folds those streams back
//! into a per-worker, per-phase wall-clock profile: where did each
//! worker's time go (train / eval / aggregate / io), how fast are
//! trials completing, and — for an in-flight campaign — roughly when
//! will it finish.
//!
//! This module also owns the one obs event decoder: [`decode`] turns
//! a line into a typed [`Event`], and `worker_streams` lists a
//! directory's streams. `campaign profile`, `trace`, `top` and `perf`
//! are all folds over those events, so the schema and its readers
//! cannot drift apart. The decoder lives here rather than next to the
//! writer because `frlfi-obs` stays zero-dependency, with no JSON
//! parser.
//!
//! Every stream is read through `coord::JsonlTailReader`,
//! with the same torn-tail discipline as `trials.jsonl` and
//! `claims.jsonl`: a SIGKILLed worker may leave an unterminated final
//! line, which is counted and dropped (it describes at most one
//! trial's already-re-runnable telemetry); a *complete* line that
//! fails to decode is skipped with a warning — or, under
//! [`CheckMode::Strict`] (`campaign profile --check`), a hard error
//! naming the file and line, which is how CI asserts every event a
//! worker emits conforms to the schema in [`frlfi_obs`]'s crate docs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use frlfi::report::Table;
use serde::Value;

use crate::coord::{FoldError, JsonlTailReader};

/// Subdirectory of a campaign directory holding per-worker event
/// streams (`worker-<id>.jsonl`).
pub const OBS_DIR: &str = "obs";

/// How [`load_dir`] treats a complete line that is not a valid event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Skip it with a warning (telemetry is advisory; a dropped event
    /// only blurs the profile).
    Lenient,
    /// Fail, naming the file and line — `campaign profile --check`.
    Strict,
}

/// One worker's folded telemetry.
#[derive(Debug, Clone, Default)]
pub struct WorkerProfile {
    /// Worker id (from the stream's `meta` events; falls back to the
    /// file name for a stream whose meta line was torn off).
    pub worker: String,
    /// Span totals: name → (count, total µs). `trial` spans carry the
    /// whole per-trial compute; `train` / `eval` partition it.
    pub spans: BTreeMap<String, (u64, u64)>,
    /// Timer totals: name → (count, total µs) — `aggregate`, `inject`,
    /// `io`.
    pub timers: BTreeMap<String, (u64, u64)>,
    /// Counter totals: name → n.
    pub counters: BTreeMap<String, u64>,
    /// Merged histograms: name → power-of-two buckets
    /// ([`frlfi_obs::HIST_BUCKETS`] wide).
    pub(crate) hists: BTreeMap<String, Vec<u64>>,
    /// Exact histogram maxima: name → largest recorded value (v2
    /// streams; 0 for v1 streams, whose overflow bucket lost the
    /// tail).
    pub(crate) hist_max: BTreeMap<String, u64>,
    /// Earliest and latest event timestamps (ms since epoch; 0,0 when
    /// the stream had no events) — the worker's observed wall window.
    pub(crate) first_ts_ms: u64,
    /// See [`WorkerProfile::first_ts_ms`].
    pub(crate) last_ts_ms: u64,
    /// Event lines folded.
    pub(crate) events: u64,
    /// Name of the most recent span: the last phase the worker
    /// finished.
    pub(crate) last_span: String,
    /// Trial id of the most recent `trial` span.
    pub(crate) last_trial: Option<u64>,
}

/// Widens the wall window `first..=last` (ms since epoch; 0 = unset)
/// to cover event stamp `ts` (0 = unknown, ignored).
fn note_ts(first: &mut u64, last: &mut u64, ts: u64) {
    if ts == 0 {
        return;
    }
    if *first == 0 || ts < *first {
        *first = ts;
    }
    *last = (*last).max(ts);
}

impl WorkerProfile {
    /// Folds one decoded event. Fails only on a `meta` naming a
    /// different worker than the stream's first.
    fn fold(&mut self, ev: Event) -> Result<(), String> {
        note_ts(&mut self.first_ts_ms, &mut self.last_ts_ms, ev.ts_ms());
        match ev {
            Event::Meta { worker, .. } => {
                // Re-installs append to the same stream; ids must agree.
                if self.worker.is_empty() {
                    self.worker = worker;
                } else if self.worker != worker {
                    return Err(format!(
                        "stream mixes workers `{}` and `{worker}` — copied obs files?",
                        self.worker
                    ));
                }
            }
            Event::Span { name, dur_us, trial, .. } => {
                if name == "trial" {
                    self.last_trial = trial;
                }
                let e = self.spans.entry(name.clone()).or_insert((0, 0));
                e.0 += 1;
                e.1 += dur_us;
                self.last_span = name;
            }
            Event::Timer { name, n, total_us, .. } => {
                let e = self.timers.entry(name).or_insert((0, 0));
                e.0 += n;
                e.1 += total_us;
            }
            Event::Count { name, n, .. } => *self.counters.entry(name).or_insert(0) += n,
            Event::Hist { name, buckets, max, .. } => {
                let acc = self.hists.entry(name.clone()).or_insert_with(|| vec![0; buckets.len()]);
                for (a, b) in acc.iter_mut().zip(buckets) {
                    *a += b;
                }
                let m = self.hist_max.entry(name).or_insert(0);
                *m = (*m).max(max.unwrap_or(0));
            }
            Event::Log { .. } => {}
        }
        self.events += 1;
        Ok(())
    }

    /// Completed `trial` spans.
    pub fn trials(&self) -> u64 {
        self.spans.get("trial").map_or(0, |&(n, _)| n)
    }

    /// Total µs across `trial` spans.
    pub fn trial_us(&self) -> u64 {
        self.spans.get("trial").map_or(0, |&(_, us)| us)
    }

    /// The worker's observed wall window in seconds.
    pub(crate) fn window_s(&self) -> f64 {
        self.last_ts_ms.saturating_sub(self.first_ts_ms) as f64 / 1e3
    }

    /// Observed completion rate (trials/s) over the worker's wall
    /// window; `None` until a trial completed in a window wide enough
    /// to divide by.
    pub(crate) fn rate(&self) -> Option<f64> {
        let window = self.window_s();
        (window > 1e-3 && self.trials() > 0).then(|| self.trials() as f64 / window)
    }

    /// Sum of the counters whose name satisfies `pick`.
    pub(crate) fn counter_sum(&self, pick: impl Fn(&str) -> bool) -> u64 {
        self.counters.iter().filter(|(name, _)| pick(name)).map(|(_, &n)| n).sum()
    }
}

/// A campaign directory's folded telemetry: every worker stream under
/// `<dir>/obs/`, plus load diagnostics.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Per-worker profiles, sorted by worker id.
    pub workers: Vec<WorkerProfile>,
    /// Complete-but-unparseable lines skipped (lenient mode only).
    pub skipped_lines: usize,
    /// Unterminated trailing fragments dropped (one per stream a
    /// worker was killed mid-write in).
    pub torn_tails: usize,
}

impl Profile {
    /// Total events across all workers.
    pub fn events(&self) -> u64 {
        self.workers.iter().map(|w| w.events).sum()
    }

    /// Distinct trials observed across workers. Trial spans are
    /// counted per worker and summed — a reaped trial finished by two
    /// workers counts twice, which is correct for *throughput* (both
    /// workers spent the time).
    pub fn trials(&self) -> u64 {
        self.workers.iter().map(|w| w.trials()).sum()
    }

    /// Campaign-level wall window (s): earliest to latest event across
    /// all workers.
    pub(crate) fn window_s(&self) -> f64 {
        let first =
            self.workers.iter().map(|w| w.first_ts_ms).filter(|&t| t > 0).min().unwrap_or(0);
        let last = self.workers.iter().map(|w| w.last_ts_ms).max().unwrap_or(0);
        last.saturating_sub(first) as f64 / 1e3
    }

    /// Observed completion rate (trials/s) over the campaign window.
    /// `None` until the window is wide enough to divide by.
    pub fn rate(&self) -> Option<f64> {
        let w = self.window_s();
        (w > 1e-3 && self.trials() > 0).then(|| self.trials() as f64 / w)
    }

    /// Counter totals summed across workers.
    pub(crate) fn counter_totals(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for w in &self.workers {
            for (name, &n) in &w.counters {
                *out.entry(name.clone()).or_insert(0) += n;
            }
        }
        out
    }

    /// Histograms merged across workers.
    pub fn hist_totals(&self) -> BTreeMap<String, Vec<u64>> {
        let mut out: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for w in &self.workers {
            for (name, buckets) in &w.hists {
                let acc = out.entry(name.clone()).or_insert_with(|| vec![0; buckets.len()]);
                if acc.len() < buckets.len() {
                    acc.resize(buckets.len(), 0);
                }
                for (a, &b) in acc.iter_mut().zip(buckets) {
                    *a += b;
                }
            }
        }
        out
    }

    /// Exact histogram maxima merged across workers (0 for a
    /// histogram only ever seen in v1 streams).
    pub(crate) fn hist_max_totals(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for w in &self.workers {
            for (name, &m) in &w.hist_max {
                let e = out.entry(name.clone()).or_insert(0);
                *e = (*e).max(m);
            }
        }
        out
    }
}

/// The value range a power-of-two bucket covers: bucket 0 holds
/// zeros, bucket `b ≥ 1` holds `[2^(b-1), 2^b)`, and the final bucket
/// is capped by the exact `max` when one was recorded (v2 streams) —
/// a v1 overflow bucket degenerates to its floor.
fn bucket_bounds(b: usize, nbuckets: usize, max: u64) -> (u64, u64) {
    if b == 0 {
        return (0, 0);
    }
    let lo = 1u64 << (b - 1);
    let mut hi = if b + 1 == nbuckets { max } else { 1u64 << b };
    if max >= lo {
        hi = hi.min(max);
    }
    (lo, hi.max(lo))
}

/// The `q`-quantile (`0.0..=1.0`) of a merged power-of-two histogram,
/// linearly interpolated inside the containing bucket. `max` is the
/// exact recorded maximum (caps the overflow bucket; pass 0 for v1
/// streams that never recorded one). Returns 0 for an empty
/// histogram.
pub fn hist_percentile(buckets: &[u64], max: u64, q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut cum = 0u64;
    for (b, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let next = cum + n;
        if next as f64 >= rank {
            let (lo, hi) = bucket_bounds(b, buckets.len(), max);
            let frac = ((rank - cum as f64) / n as f64).clamp(0.0, 1.0);
            return lo as f64 + frac * (hi - lo) as f64;
        }
        cum = next;
    }
    // Rounding pushed the rank past the last occupied bucket: its
    // upper bound is the answer.
    let last = buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
    bucket_bounds(last, buckets.len(), max).1 as f64
}

/// One obs event, decoded and checked against the schema in the
/// [`frlfi_obs`] crate docs by [`decode`] — the one parser behind
/// `campaign profile`, `trace`, `top` and `perf`. Fields version 1
/// events never carried are `Option`s: `None` on v1, always `Some` on
/// v2.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Stream header, written once per recorder install.
    Meta { ts_ms: u64, worker: String, pid: u64, mono_us: Option<u64> },
    /// One timed region; `id` / `parent` are the causal links.
    Span {
        ts_ms: u64,
        name: String,
        dur_us: u64,
        trial: Option<u64>,
        id: Option<u64>,
        parent: Option<u64>,
        tid: Option<u64>,
        mono_us: Option<u64>,
    },
    /// Timed blocks aggregated since the last flush, under `parent`.
    Timer { ts_ms: u64, name: String, n: u64, total_us: u64, parent: Option<u64>, tid: Option<u64> },
    /// A counter delta since the last flush.
    Count { ts_ms: u64, name: String, n: u64, tid: Option<u64> },
    /// A power-of-two histogram delta; `max` is the exact maximum.
    Hist { ts_ms: u64, name: String, buckets: Vec<u64>, max: Option<u64>, tid: Option<u64> },
    /// A message routed through the logging facade.
    Log { ts_ms: u64, level: String, msg: String, tid: Option<u64> },
}

impl Event {
    /// The wall-clock stamp (ms since the Unix epoch).
    pub(crate) fn ts_ms(&self) -> u64 {
        match self {
            Event::Meta { ts_ms, .. }
            | Event::Span { ts_ms, .. }
            | Event::Timer { ts_ms, .. }
            | Event::Count { ts_ms, .. }
            | Event::Hist { ts_ms, .. }
            | Event::Log { ts_ms, .. } => *ts_ms,
        }
    }
}

/// Decodes one parsed event line, validating it against the schema in
/// the [`frlfi_obs`] crate docs.
///
/// # Errors
///
/// A message naming the first schema violation.
pub fn decode(v: &Value) -> Result<Event, String> {
    let version = v.get("v").and_then(Value::as_int).ok_or("event missing integer `v`")?;
    if !(1..=frlfi_obs::SCHEMA_VERSION as i64).contains(&version) {
        return Err(format!("unsupported event version {version}"));
    }
    let v2 = version >= 2;
    let kind = v.get("kind").and_then(Value::as_str).ok_or("event missing string `kind`")?;
    let ts = v.get("ts_ms").and_then(Value::as_int).ok_or("event missing integer `ts_ms`")?;
    let ts_ms = u64::try_from(ts).map_err(|_| "negative `ts_ms`")?;
    let int = |k: &str| {
        v.get(k)
            .and_then(Value::as_int)
            .filter(|&n| n >= 0)
            .map(|n| n as u64)
            .ok_or_else(|| format!("`{kind}` event missing non-negative integer `{k}`"))
    };
    // v2-only fields: required on v2 events, absent on v1 events; a
    // present-but-malformed value is an error at either version.
    let opt_int = |k: &str| match v.get(k) {
        None => Ok(None),
        Some(val) => val
            .as_int()
            .filter(|&n| n >= 0)
            .map(|n| Some(n as u64))
            .ok_or_else(|| format!("`{kind}` has non-integer `{k}`")),
    };
    let v2_int = |k: &str| {
        let got = opt_int(k)?;
        if v2 && got.is_none() {
            return Err(format!("v2 `{kind}` event missing integer `{k}`"));
        }
        Ok(got)
    };
    let string = |k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("`{kind}` event missing string `{k}`"))
    };
    // Struct fields evaluate in written order: the first violation
    // named is the first in each kind's field order.
    Ok(match kind {
        "meta" => Event::Meta {
            ts_ms,
            worker: string("worker")?,
            pid: int("pid")?,
            mono_us: v2_int("mono_us")?,
        },
        "span" => Event::Span {
            ts_ms,
            dur_us: int("dur_us")?,
            trial: opt_int("trial")?,
            id: v2_int("id")?,
            tid: v2_int("tid")?,
            mono_us: v2_int("mono_us")?,
            parent: opt_int("parent")?,
            name: string("name")?,
        },
        "timer" => Event::Timer {
            ts_ms,
            n: int("n")?,
            total_us: int("total_us")?,
            tid: v2_int("tid")?,
            parent: opt_int("parent")?,
            name: string("name")?,
        },
        "count" => Event::Count { ts_ms, tid: v2_int("tid")?, name: string("name")?, n: int("n")? },
        "hist" => {
            let buckets = v
                .get("buckets")
                .and_then(Value::as_array)
                .ok_or("`hist` event missing array `buckets`")?;
            if buckets.len() != frlfi_obs::HIST_BUCKETS {
                return Err(format!(
                    "`hist` has {} buckets, expected {}",
                    buckets.len(),
                    frlfi_obs::HIST_BUCKETS
                ));
            }
            Event::Hist {
                ts_ms,
                tid: v2_int("tid")?,
                max: v2_int("max")?,
                name: string("name")?,
                buckets: buckets
                    .iter()
                    .map(|b| b.as_int().and_then(|n| u64::try_from(n).ok()))
                    .collect::<Option<_>>()
                    .ok_or("`hist` bucket is not a non-negative integer")?,
            }
        }
        "log" => {
            Event::Log { ts_ms, level: string("level")?, msg: string("msg")?, tid: v2_int("tid")? }
        }
        other => return Err(format!("unknown event kind `{other}`")),
    })
}

/// What skipping a bad obs line costs.
pub(crate) const OBS_SKIP: &str = "telemetry only — campaign results are unaffected";

/// Lists campaign directory `dir`'s obs streams as `(worker, path)`
/// pairs sorted by path, the worker id taken from the
/// `worker-<id>.jsonl` naming contract. A directory without `obs/`
/// has no streams.
///
/// # Errors
///
/// I/O failures listing `obs/`.
pub(crate) fn worker_streams(dir: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let obs_dir = dir.join(OBS_DIR);
    let entries = match std::fs::read_dir(&obs_dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read {}: {e}", obs_dir.display())),
        Ok(entries) => entries,
    };
    let mut streams: Vec<_> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            let file = path.file_name()?.to_str()?;
            let worker = file.strip_prefix("worker-")?.strip_suffix(".jsonl")?.to_owned();
            Some((worker, path))
        })
        .collect();
    streams.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(streams)
}

/// One obs stream's reader and fold.
struct Stream {
    /// Worker id from the file name: the row's name until the stream's
    /// `meta` line is folded (a torn-off meta never is).
    file_worker: String,
    tail: JsonlTailReader,
    profile: WorkerProfile,
    /// Whether the last refresh left an unterminated trailing piece.
    torn: bool,
}

/// The incremental reader of a campaign directory's obs streams —
/// `WorkerProfile` folds over [`decode`], one per
/// `obs/worker-*.jsonl` stream. [`ProfileView::refresh`] discovers
/// streams that appeared since the last call and folds only the bytes
/// each gained, so refreshing an idle campaign reads no log bytes. A
/// campaign that never ran with `--obs` has no streams (no error:
/// telemetry is opt-in). A stream's unterminated final piece is a torn
/// tail from a killed writer (or a record mid-append) and is never
/// folded, in either mode.
pub(crate) struct ProfileView {
    dir: PathBuf,
    mode: CheckMode,
    /// Keyed by stream path.
    streams: BTreeMap<PathBuf, Stream>,
    /// Complete-but-invalid lines skipped (lenient mode only).
    skipped_lines: usize,
}

impl ProfileView {
    /// A view of campaign directory `dir`'s streams; reads nothing
    /// until [`ProfileView::refresh`].
    pub(crate) fn open(dir: &Path, mode: CheckMode) -> ProfileView {
        ProfileView { dir: dir.to_path_buf(), mode, streams: BTreeMap::new(), skipped_lines: 0 }
    }

    /// Discovers new streams, then folds what every stream gained.
    ///
    /// # Errors
    ///
    /// I/O failures; plus, under [`CheckMode::Strict`], the first
    /// schema-invalid complete line.
    pub(crate) fn refresh(&mut self) -> Result<(), String> {
        for (file_worker, path) in worker_streams(&self.dir)? {
            self.streams.entry(path.clone()).or_insert_with(|| Stream {
                file_worker,
                tail: JsonlTailReader::new(path, "obs.read"),
                profile: WorkerProfile::default(),
                torn: false,
            });
        }
        let (mode, skipped) = (self.mode, &mut self.skipped_lines);
        for s in self.streams.values_mut() {
            let w = &mut s.profile;
            s.torn = s.tail.refresh(OBS_SKIP, |line| {
                line.and_then(|v| decode(&v)).and_then(|ev| w.fold(ev)).map_err(|e| match mode {
                    CheckMode::Strict => FoldError::Fatal(e),
                    CheckMode::Lenient => {
                        *skipped += 1;
                        FoldError::Skip(e)
                    }
                })
            })?;
        }
        Ok(())
    }

    /// Every stream's worker name and profile, by stream path.
    pub(crate) fn workers(&self) -> impl Iterator<Item = (&str, &WorkerProfile)> {
        self.streams.values().map(|s| {
            let name = if s.profile.worker.is_empty() { &s.file_worker } else { &s.profile.worker };
            (name.as_str(), &s.profile)
        })
    }

    /// The folded profile, workers sorted by id.
    pub(crate) fn profile(&self) -> Profile {
        let mut workers: Vec<WorkerProfile> = self
            .workers()
            .map(|(name, w)| WorkerProfile { worker: name.to_owned(), ..w.clone() })
            .collect();
        workers.sort_by(|a, b| a.worker.cmp(&b.worker));
        let torn_tails = self.streams.values().filter(|s| s.torn).count();
        Profile { workers, skipped_lines: self.skipped_lines, torn_tails }
    }
}

/// Loads every `obs/worker-*.jsonl` stream under campaign directory
/// `dir`: a `ProfileView` opened and refreshed once.
///
/// # Errors
///
/// I/O failures; plus, under [`CheckMode::Strict`], the first
/// schema-invalid complete line.
pub fn load_dir(dir: &Path, mode: CheckMode) -> Result<Profile, String> {
    let mut view = ProfileView::open(dir, mode);
    view.refresh()?;
    Ok(view.profile())
}

/// Renders the per-worker, per-phase wall-clock table: one row per
/// worker plus a `total` row; phase columns in seconds, completed
/// trials, and each worker's observed completion rate. `prefix s` is
/// the part of `train s` spent obtaining fault-free training prefixes
/// (cache lookups, and the chain training of cache misses); `inject s`
/// is the part of `eval s` spent corrupting policies for static
/// (inference-time) faults.
pub(crate) fn render_profile_table(profile: &Profile) -> Table {
    let columns = [
        "trials", "trial s", "train s", "prefix s", "eval s", "inject s", "agg s", "io s",
        "trial/s",
    ]
    .map(String::from)
    .to_vec();
    let mut table =
        Table::new("Campaign profile: wall-clock by phase", "worker", columns).with_precision(2);
    let s = |us: u64| us as f64 / 1e6;
    let row = |w: &WorkerProfile| {
        let trials = w.trials();
        let span_s = |name: &str| s(w.spans.get(name).map_or(0, |&(_, us)| us));
        let timer_s = |name: &str| s(w.timers.get(name).map_or(0, |&(_, us)| us));
        let rate = w.rate().unwrap_or(0.0);
        vec![
            trials as f64,
            s(w.trial_us()),
            span_s("train"),
            span_s("prefix"),
            span_s("eval"),
            timer_s("inject"),
            timer_s("aggregate"),
            timer_s("io"),
            rate,
        ]
    };
    let mut total = vec![0.0; 9];
    for w in &profile.workers {
        let r = row(w);
        for (t, v) in total.iter_mut().zip(&r) {
            *t += v;
        }
        table.push_row(w.worker.clone(), r);
    }
    if profile.workers.len() > 1 {
        // The total rate column sums per-worker rates: with N workers
        // active concurrently that *is* the fleet's aggregate rate.
        table.push_row("total", total);
    }
    table
}

/// Renders the full `campaign profile` report: the phase table,
/// counter totals, merged histograms, the observed completion rate
/// and — when the campaign is still incomplete — an ETA extrapolated
/// from that rate.
///
/// `remaining_trials` comes from the trial log (None when the
/// campaign state could not be read, e.g. profiling a copied `obs/`
/// directory alone).
pub fn render_report(profile: &Profile, remaining_trials: Option<usize>) -> String {
    let mut out = render_profile_table(profile).render();
    let totals = profile.counter_totals();
    if !totals.is_empty() {
        out.push_str("\ncounters\n");
        for (name, n) in &totals {
            out.push_str(&format!("  {name:<28} {n}\n"));
        }
    }
    let maxes = profile.hist_max_totals();
    for (name, buckets) in profile.hist_totals() {
        out.push_str(&format!("histogram {name} (power-of-two buckets)\n"));
        // Trim trailing empty buckets; label each as its range floor.
        let used = buckets.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
        for (b, &n) in buckets.iter().take(used).enumerate() {
            if n > 0 {
                let floor = if b == 0 { 0 } else { 1u64 << (b - 1) };
                out.push_str(&format!("  >= {floor:<6} {n}\n"));
            }
        }
        let max = maxes.get(&name).copied().unwrap_or(0);
        let p = |q| hist_percentile(&buckets, max, q);
        out.push_str(&format!(
            "  p50={:.1} p90={:.1} p99={:.1} max={}\n",
            p(0.50),
            p(0.90),
            p(0.99),
            if max > 0 { max.to_string() } else { "?".to_string() },
        ));
    }
    match profile.rate() {
        Some(rate) => {
            out.push_str(&format!(
                "observed: {} trials over {:.1} s wall ({rate:.2} trials/s)\n",
                profile.trials(),
                profile.window_s(),
            ));
            if let Some(remaining) = remaining_trials {
                if remaining > 0 {
                    out.push_str(&format!(
                        "eta: ~{:.0} s for {remaining} remaining trials at the observed rate\n",
                        remaining as f64 / rate
                    ));
                } else {
                    out.push_str("campaign complete\n");
                }
            }
        }
        None => out.push_str("observed: no trial spans yet\n"),
    }
    out
}

#[cfg(test)]
impl ProfileView {
    /// Log bytes consumed so far across every stream.
    pub(crate) fn consumed(&self) -> u64 {
        self.streams.values().map(|s| s.tail.offset()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_stream(dir: &Path, name: &str, lines: &str) {
        let obs = dir.join(OBS_DIR);
        std::fs::create_dir_all(&obs).unwrap();
        std::fs::write(obs.join(name), lines).unwrap();
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("frlfi-profile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const STREAM: &str = concat!(
        r#"{"v":1,"kind":"meta","worker":"w0","pid":7,"ts_ms":1000}"#,
        "\n",
        r#"{"v":1,"kind":"span","name":"train","dur_us":1500,"ts_ms":1400}"#,
        "\n",
        r#"{"v":1,"kind":"span","name":"trial","trial":3,"dur_us":2000,"ts_ms":1500}"#,
        "\n",
        r#"{"v":1,"kind":"timer","name":"io","n":2,"total_us":300,"ts_ms":1600}"#,
        "\n",
        r#"{"v":1,"kind":"count","name":"nn.dispatch.reference","n":40,"ts_ms":1600}"#,
        "\n",
    );

    #[test]
    fn folds_a_stream_and_renders() {
        let dir = tmpdir("fold");
        write_stream(&dir, "worker-w0.jsonl", STREAM);
        let p = load_dir(&dir, CheckMode::Strict).unwrap();
        assert_eq!(p.workers.len(), 1);
        let w = &p.workers[0];
        assert_eq!(w.worker, "w0");
        assert_eq!(w.trials(), 1);
        assert_eq!(w.trial_us(), 2000);
        assert_eq!(w.spans["train"], (1, 1500));
        assert_eq!(w.timers["io"], (2, 300));
        assert_eq!(w.counters["nn.dispatch.reference"], 40);
        assert_eq!((w.first_ts_ms, w.last_ts_ms), (1000, 1600));
        let report = render_report(&p, Some(5));
        assert!(report.contains("w0"));
        assert!(report.contains("nn.dispatch.reference"));
        assert!(report.contains("eta:"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_dropped_interior_garbage_skipped_leniently() {
        let dir = tmpdir("torn");
        let mut text = String::from(STREAM);
        text.insert_str(0, "{not json}\n");
        text.push_str(r#"{"v":1,"kind":"count","name":"x","#); // torn tail
        write_stream(&dir, "worker-w0.jsonl", &text);
        let p = load_dir(&dir, CheckMode::Lenient).unwrap();
        assert_eq!(p.skipped_lines, 1);
        assert_eq!(p.torn_tails, 1);
        assert_eq!(p.workers[0].trials(), 1);
        // Strict mode rejects the interior garbage but still tolerates
        // the torn tail: SIGKILL mid-write must not fail `--check`.
        let err = load_dir(&dir, CheckMode::Strict).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_tolerates_pure_torn_tail() {
        let dir = tmpdir("strict-tail");
        let mut text = String::from(STREAM);
        text.push_str(r#"{"v":1,"kind":"span"#);
        write_stream(&dir, "worker-w0.jsonl", &text);
        let p = load_dir(&dir, CheckMode::Strict).unwrap();
        assert_eq!(p.torn_tails, 1);
        assert_eq!(p.workers[0].events, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_obs_dir_is_empty_profile() {
        let dir = tmpdir("empty");
        let p = load_dir(&dir, CheckMode::Strict).unwrap();
        assert!(p.workers.is_empty());
        assert_eq!(p.events(), 0);
        assert!(p.rate().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_violations_are_named() {
        let dir = tmpdir("schema");
        for (tag, line) in [
            ("version", r#"{"v":3,"kind":"count","name":"x","n":1,"ts_ms":1}"#),
            ("kind", r#"{"v":1,"kind":"mystery","ts_ms":1}"#),
            ("buckets", r#"{"v":1,"kind":"hist","name":"h","buckets":[1,2],"ts_ms":1}"#),
            ("field", r#"{"v":1,"kind":"span","name":"trial","ts_ms":1}"#),
            (
                "v2 span id",
                r#"{"v":2,"kind":"span","name":"t","dur_us":1,"tid":1,"mono_us":1,"ts_ms":1}"#,
            ),
            (
                "v2 hist max",
                &format!(
                    r#"{{"v":2,"kind":"hist","name":"h","buckets":[{}],"tid":1,"ts_ms":1}}"#,
                    vec!["0"; frlfi_obs::HIST_BUCKETS].join(",")
                ),
            ),
            ("v2 count tid", r#"{"v":2,"kind":"count","name":"x","n":1,"ts_ms":1}"#),
        ] {
            write_stream(&dir, "worker-w0.jsonl", &format!("{line}\n"));
            assert!(
                load_dir(&dir, CheckMode::Strict).is_err(),
                "strict mode must reject {tag}: {line}"
            );
            let p = load_dir(&dir, CheckMode::Lenient).unwrap();
            assert_eq!(p.skipped_lines, 1, "lenient mode must skip {tag}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    const STREAM_V2: &str = concat!(
        r#"{"v":2,"kind":"meta","worker":"w1","pid":8,"ts_ms":2000,"mono_us":50}"#,
        "\n",
        r#"{"v":2,"kind":"span","name":"trial","trial":4,"dur_us":900,"ts_ms":2100,"id":7,"tid":1,"mono_us":100}"#,
        "\n",
        r#"{"v":2,"kind":"span","name":"train","dur_us":600,"ts_ms":2050,"id":8,"parent":7,"tid":1,"mono_us":120}"#,
        "\n",
        r#"{"v":2,"kind":"timer","name":"io","n":3,"total_us":90,"ts_ms":2100,"tid":1,"parent":7}"#,
        "\n",
        r#"{"v":2,"kind":"count","name":"x","n":5,"ts_ms":2100,"tid":1}"#,
        "\n",
    );

    #[test]
    fn v1_and_v2_streams_mix_in_one_directory() {
        let dir = tmpdir("mixed");
        write_stream(&dir, "worker-w0.jsonl", STREAM);
        write_stream(&dir, "worker-w1.jsonl", STREAM_V2);
        let p = load_dir(&dir, CheckMode::Strict).unwrap();
        assert_eq!(p.workers.len(), 2);
        assert_eq!(p.trials(), 2);
        assert_eq!(p.workers[1].worker, "w1");
        assert_eq!(p.workers[1].spans["train"], (1, 600));
        assert_eq!(p.workers[1].timers["io"], (3, 90));
        assert_eq!(p.skipped_lines, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_hist_max_survives_the_overflow_bucket() {
        let dir = tmpdir("histmax");
        let mut buckets = [0u64; frlfi_obs::HIST_BUCKETS];
        buckets[frlfi_obs::HIST_BUCKETS - 1] = 3; // deep overflow
        let line = format!(
            r#"{{"v":2,"kind":"hist","name":"h","buckets":[{}],"max":123456789,"tid":1,"ts_ms":1}}"#,
            buckets.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
        );
        write_stream(&dir, "worker-w0.jsonl", &format!("{line}\n"));
        let p = load_dir(&dir, CheckMode::Strict).unwrap();
        assert_eq!(p.hist_max_totals()["h"], 123_456_789);
        // The overflow bucket's percentile is capped by the exact max,
        // not the (lost) power-of-two ceiling.
        let h = &p.hist_totals()["h"];
        assert!(hist_percentile(h, 123_456_789, 0.99) <= 123_456_789.0);
        let report = render_report(&p, None);
        assert!(report.contains("max=123456789"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        // 10 zeros: every percentile is 0.
        let mut b = vec![0u64; frlfi_obs::HIST_BUCKETS];
        b[0] = 10;
        assert_eq!(hist_percentile(&b, 0, 0.5), 0.0);
        // 100 values in [8, 16): p50 lands mid-bucket.
        let mut b = vec![0u64; frlfi_obs::HIST_BUCKETS];
        b[4] = 100;
        let p50 = hist_percentile(&b, 15, 0.5);
        assert!((8.0..=15.0).contains(&p50), "{p50}");
        // Half in [1,2), half in [8,16): p90 must sit in the upper
        // bucket, p50 at its boundary or below.
        let mut b = vec![0u64; frlfi_obs::HIST_BUCKETS];
        b[1] = 50;
        b[4] = 50;
        assert!(hist_percentile(&b, 12, 0.9) >= 8.0);
        assert!(hist_percentile(&b, 12, 0.25) < 2.0);
        // Empty histogram.
        assert_eq!(hist_percentile(&[0u64; frlfi_obs::HIST_BUCKETS], 0, 0.9), 0.0);
    }

    #[test]
    fn merges_hists_and_counters_across_workers() {
        let dir = tmpdir("merge");
        let hist_line = |n: u64| {
            let mut buckets = [0u64; frlfi_obs::HIST_BUCKETS];
            buckets[3] = n;
            format!(
                r#"{{"v":1,"kind":"hist","name":"nn.batch_size","buckets":[{}],"ts_ms":1}}"#,
                buckets.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
            )
        };
        write_stream(&dir, "worker-a.jsonl", &format!("{}\n", hist_line(2)));
        write_stream(&dir, "worker-b.jsonl", &format!("{}\n", hist_line(5)));
        let p = load_dir(&dir, CheckMode::Strict).unwrap();
        assert_eq!(p.workers.len(), 2);
        assert_eq!(p.hist_totals()["nn.batch_size"][3], 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
