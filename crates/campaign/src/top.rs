//! `campaign top`: a live, self-refreshing view of what a campaign's
//! fleet is doing *right now* — `status` + `profile`, merged, cheap
//! enough to re-render every second.
//!
//! Every data source is tailed incrementally through
//! `coord::JsonlTailReader`: each of `trials.jsonl`,
//! `claims.jsonl`, `quarantine.jsonl` and every `obs/worker-*.jsonl`
//! stream keeps a per-file byte offset and each tick folds **only the
//! appended bytes** — a tick against an idle campaign reads zero log
//! bytes however large the logs have grown.
//!
//! Per worker, a frame shows the last completed phase span and trial,
//! completed-trial count and observed rate, heartbeat age (claim
//! records when the campaign is shared; obs event stamps otherwise),
//! quarantine / chaos-injection / io-retry counters, and a straggler
//! flag: a worker whose rate z-score across the fleet falls below
//! −2.0 is marked `STRAGGLER`. The footer extrapolates an ETA from
//! the aggregate rate, exactly like `campaign profile`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use serde::Value;

use crate::coord::{FoldError, JsonlTailReader};
#[cfg(test)]
use crate::profile::OBS_DIR;
use crate::profile::{decode, note_ts, worker_streams, Event, OBS_SKIP};

/// Options for [`run`].
#[derive(Debug, Clone, Copy)]
pub struct TopOptions {
    /// Render one frame and exit (non-TTY / CI mode).
    pub once: bool,
    /// Milliseconds between refreshes in live mode.
    pub interval_ms: u64,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions { once: false, interval_ms: 1000 }
    }
}

/// One worker's live view, folded incrementally from its obs stream.
#[derive(Debug, Default)]
struct WorkerView {
    /// Completed `trial` spans.
    trials: u64,
    /// Name of the most recent span event — the last finished phase.
    last_span: String,
    /// Trial id of the most recent trial span.
    last_trial: Option<u64>,
    /// Wall window of the stream (ms since epoch).
    first_ts_ms: u64,
    last_ts_ms: u64,
    /// Folded counters: chaos injections, io retries, quarantines.
    chaos: u64,
    retries: u64,
    quarantined: u64,
}

impl WorkerView {
    /// Observed completion rate over the stream's wall window.
    fn rate(&self) -> Option<f64> {
        let window = self.last_ts_ms.saturating_sub(self.first_ts_ms) as f64 / 1e3;
        (window > 1e-3 && self.trials > 0).then(|| self.trials as f64 / window)
    }

    fn fold(&mut self, ev: Event) {
        note_ts(&mut self.first_ts_ms, &mut self.last_ts_ms, ev.ts_ms());
        match ev {
            Event::Span { name, trial, .. } => {
                if name == "trial" {
                    self.trials += 1;
                    self.last_trial = trial;
                }
                self.last_span = name;
            }
            Event::Count { name, n, .. } => {
                if name.starts_with("chaos.inject") {
                    self.chaos += n;
                } else if name.starts_with("io.retry") {
                    self.retries += n;
                } else if name.ends_with(".quarantined") {
                    self.quarantined += n;
                }
            }
            _ => {}
        }
    }
}

/// What skipping a bad line of a non-obs log costs `campaign top`.
const VIEW_SKIP: &str = "left out of this view only; the campaign itself is unaffected";

/// The incremental fold state behind `campaign top`. Create once,
/// [`tick`](TopState::tick) per frame.
pub struct TopState {
    dir: PathBuf,
    /// Campaign identity, loaded once from the manifest.
    name: String,
    scale: String,
    total_trials: usize,
    /// Distinct `(cell, repeat)` pairs seen in `trials.jsonl`.
    completed: BTreeSet<(u64, u64)>,
    trials_tail: JsonlTailReader,
    claims_tail: JsonlTailReader,
    /// Per-worker latest claim/heartbeat stamp (ms since epoch).
    claim_seen: BTreeMap<String, u64>,
    quarantine_tail: JsonlTailReader,
    quarantine_records: u64,
    /// One tail per obs stream, keyed by file name; discovered on
    /// every tick so late-joining workers appear.
    obs: BTreeMap<String, (JsonlTailReader, WorkerView)>,
}

impl TopState {
    /// Opens campaign directory `dir`: reads the manifest once; all
    /// log folding happens per [`tick`](TopState::tick).
    ///
    /// # Errors
    ///
    /// A directory without a readable `campaign.toml` manifest.
    pub fn new(dir: &Path) -> Result<TopState, String> {
        let scenario = crate::runner::load_scenario(&dir.join("campaign.toml"))?;
        let campaign = scenario.expand().map_err(|e| e.to_string())?;
        Ok(TopState {
            dir: dir.to_path_buf(),
            name: scenario.name.clone(),
            scale: format!("{:?}", scenario.scale),
            total_trials: campaign.total_trials(),
            completed: BTreeSet::new(),
            trials_tail: JsonlTailReader::new(dir.join("trials.jsonl"), "trials.read"),
            claims_tail: JsonlTailReader::new(dir.join(crate::coord::CLAIMS_FILE), "claims.read"),
            claim_seen: BTreeMap::new(),
            quarantine_tail: JsonlTailReader::new(
                dir.join(crate::quarantine::QUARANTINE_FILE),
                "quarantine.read",
            ),
            quarantine_records: 0,
            obs: BTreeMap::new(),
        })
    }

    /// Discovers obs streams that appeared since the last tick.
    fn discover_obs(&mut self) {
        for (worker, path) in worker_streams(&self.dir).unwrap_or_default() {
            self.obs
                .entry(format!("worker-{worker}.jsonl"))
                .or_insert_with(|| (JsonlTailReader::new(path, "obs.read"), WorkerView::default()));
        }
    }

    /// Folds everything appended since the last tick and renders the
    /// dashboard text.
    ///
    /// # Errors
    ///
    /// I/O failures reading a tailed log (missing files are fine —
    /// they simply have not been created yet).
    pub fn tick(&mut self) -> Result<String, String> {
        self.discover_obs();
        let completed = &mut self.completed;
        self.trials_tail.refresh(VIEW_SKIP, |v| {
            let v = v?;
            let cell = v.get("cell").and_then(Value::as_int);
            let rep = v.get("repeat").and_then(Value::as_int);
            if let (Some(c), Some(r)) = (cell, rep) {
                if c >= 0 && r >= 0 {
                    completed.insert((c as u64, r as u64));
                    return Ok(());
                }
            }
            Err(FoldError::Skip("trial record missing cell/repeat".into()))
        })?;

        let claim_seen = &mut self.claim_seen;
        self.claims_tail.refresh(VIEW_SKIP, |v| {
            let v = v?;
            let worker = v.get("worker").and_then(Value::as_str);
            let ts = v.get("ts_ms").and_then(Value::as_int).unwrap_or(0);
            if let Some(w) = worker {
                if ts > 0 {
                    let e = claim_seen.entry(w.to_owned()).or_insert(0);
                    *e = (*e).max(ts as u64);
                }
            }
            Ok(())
        })?;

        let qcount = &mut self.quarantine_records;
        self.quarantine_tail.refresh(VIEW_SKIP, |v| {
            if v?.get("kind").and_then(Value::as_str).is_some() {
                *qcount += 1;
            }
            Ok(())
        })?;

        for (tail, view) in self.obs.values_mut() {
            tail.refresh(OBS_SKIP, |line| {
                view.fold(decode(&line?)?);
                Ok(())
            })?;
        }

        Ok(self.render())
    }

    fn render(&self) -> String {
        let now = crate::coord::now_ms();
        let completed = self.completed.len();
        let pct = if self.total_trials == 0 {
            100.0
        } else {
            100.0 * completed as f64 / self.total_trials as f64
        };
        let mut out = format!(
            "campaign top — {} ({}) — {completed}/{} trials ({pct:.1}%)\n",
            self.name, self.scale, self.total_trials
        );
        // Fleet rate statistics for the straggler z-score.
        let rates: Vec<f64> = self.obs.values().filter_map(|(_, v)| v.rate()).collect();
        let mean =
            if rates.is_empty() { 0.0 } else { rates.iter().sum::<f64>() / rates.len() as f64 };
        let std = if rates.len() < 2 {
            0.0
        } else {
            (rates.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rates.len() as f64).sqrt()
        };
        out.push_str(&format!(
            "{:<14} {:>10} {:>7} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6}  {}\n",
            "worker",
            "phase",
            "trial",
            "trials",
            "rate/s",
            "hb age",
            "quar",
            "chaos",
            "retry",
            "flag"
        ));
        let mut fleet_rate = 0.0;
        for (file, (_, view)) in &self.obs {
            let worker = file.trim_end_matches(".jsonl").strip_prefix("worker-").unwrap_or(file);
            let rate = view.rate();
            fleet_rate += rate.unwrap_or(0.0);
            // Heartbeat: a shared worker renews claims; exclusive
            // workers only have their obs stamps.
            let last = self.claim_seen.get(worker).copied().unwrap_or(0).max(view.last_ts_ms);
            let hb = if last == 0 {
                "?".to_owned()
            } else {
                format!("{:.1}s", now.saturating_sub(last) as f64 / 1e3)
            };
            let z = match (rate, std > 1e-9) {
                (Some(r), true) => Some((r - mean) / std),
                _ => None,
            };
            let flag = match z {
                Some(z) if z <= -2.0 => "STRAGGLER",
                _ => "",
            };
            out.push_str(&format!(
                "{:<14} {:>10} {:>7} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6}  {}\n",
                worker,
                if view.last_span.is_empty() { "-" } else { &view.last_span },
                view.last_trial.map_or("-".to_owned(), |t| t.to_string()),
                view.trials,
                rate.map_or("-".to_owned(), |r| format!("{r:.2}")),
                hb,
                view.quarantined,
                view.chaos,
                view.retries,
                flag,
            ));
        }
        if self.obs.is_empty() {
            out.push_str("(no obs streams yet — did this campaign run with --obs?)\n");
        }
        if self.quarantine_records > 0 {
            out.push_str(&format!("quarantine records: {}\n", self.quarantine_records));
        }
        let remaining = self.total_trials.saturating_sub(completed);
        if remaining == 0 {
            out.push_str("campaign complete\n");
        } else if fleet_rate > 1e-9 {
            out.push_str(&format!(
                "eta: ~{:.0} s for {remaining} remaining trials at {fleet_rate:.2} trials/s\n",
                remaining as f64 / fleet_rate
            ));
        } else {
            out.push_str(&format!("{remaining} trials remaining (no observed rate yet)\n"));
        }
        out
    }
}

/// Runs the dashboard: one frame in `--once` mode, otherwise a
/// self-refreshing loop (ANSI clear + redraw every
/// [`TopOptions::interval_ms`]) until interrupted.
///
/// # Errors
///
/// See [`TopState::new`] / [`TopState::tick`].
pub fn run(dir: &Path, opts: &TopOptions) -> Result<(), String> {
    let mut state = TopState::new(dir)?;
    if opts.once {
        print!("{}", state.tick()?);
        return Ok(());
    }
    loop {
        let frame = state.tick()?;
        // Clear screen + home, then the frame: flicker-free enough
        // at one frame per second without pulling in a TUI stack.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms.max(100)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("frlfi-top-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(OBS_DIR)).unwrap();
        dir
    }

    /// A minimal manifest top can load (mirrors the builtin smoke
    /// scenario closely enough to expand).
    fn write_manifest(dir: &Path) {
        let scenario =
            crate::registry::builtin("fig3a", frlfi::Scale::Smoke).expect("builtin fig3a");
        std::fs::write(dir.join("campaign.toml"), scenario.to_toml()).unwrap();
    }

    /// Log bytes the state has consumed so far across every tailed file.
    fn consumed(state: &TopState) -> u64 {
        let tails = [&state.trials_tail, &state.claims_tail, &state.quarantine_tail];
        tails.iter().map(|t| t.offset()).sum::<u64>()
            + state.obs.values().map(|(t, _)| t.offset()).sum::<u64>()
    }

    #[test]
    fn ticks_read_only_appended_bytes() {
        let dir = tmpdir("incremental");
        write_manifest(&dir);
        let obs = dir.join(OBS_DIR).join("worker-w0.jsonl");
        let mut f = std::fs::File::create(&obs).unwrap();
        writeln!(f, r#"{{"v":2,"kind":"meta","worker":"w0","pid":1,"ts_ms":1000,"mono_us":1}}"#)
            .unwrap();
        writeln!(
            f,
            r#"{{"v":2,"kind":"span","name":"trial","trial":0,"dur_us":5,"ts_ms":2000,"id":1,"tid":1,"mono_us":9}}"#
        )
        .unwrap();
        f.flush().unwrap();

        let mut state = TopState::new(&dir).unwrap();
        let first = state.tick().unwrap();
        let read = consumed(&state);
        assert!(read > 0);
        assert!(first.contains("w0"), "{first}");

        // Nothing appended: the next tick must read zero bytes.
        state.tick().unwrap();
        assert_eq!(consumed(&state), read, "idle tick re-read log bytes");

        // One appended line: the third tick reads exactly that line.
        let line = r#"{"v":2,"kind":"span","name":"trial","trial":1,"dur_us":5,"ts_ms":3000,"id":2,"tid":1,"mono_us":20}"#;
        writeln!(f, "{line}").unwrap();
        f.flush().unwrap();
        let third = state.tick().unwrap();
        assert_eq!(consumed(&state) - read, line.len() as u64 + 1);
        assert!(third.contains(" 2 "), "two trials now: {third}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn renders_progress_quarantine_and_straggler_columns() {
        let dir = tmpdir("render");
        write_manifest(&dir);
        // Two workers: w0 fast, w1 slow with chaos/retry counters.
        let w = |name: &str, trials: usize, gap_ms: u64| {
            let mut text = format!(
                "{{\"v\":2,\"kind\":\"meta\",\"worker\":\"{name}\",\"pid\":1,\"ts_ms\":1000,\"mono_us\":1}}\n"
            );
            for i in 0..trials {
                text.push_str(&format!(
                    r#"{{"v":2,"kind":"span","name":"trial","trial":{i},"dur_us":5,"ts_ms":{},"id":{},"tid":1,"mono_us":9}}"#,
                    1000 + (i as u64 + 1) * gap_ms,
                    i + 1,
                ));
                text.push('\n');
            }
            std::fs::write(dir.join(OBS_DIR).join(format!("worker-{name}.jsonl")), text).unwrap();
        };
        w("w0", 20, 10);
        w("w1", 20, 1000);
        std::fs::write(dir.join(OBS_DIR).join("worker-w1.jsonl"), {
            let mut t = std::fs::read_to_string(dir.join(OBS_DIR).join("worker-w1.jsonl")).unwrap();
            t.push_str(
                r#"{"v":2,"kind":"count","name":"chaos.inject.read","n":3,"ts_ms":2000,"tid":1}"#,
            );
            t.push('\n');
            t.push_str(r#"{"v":2,"kind":"count","name":"io.retry","n":4,"ts_ms":2000,"tid":1}"#);
            t.push('\n');
            t
        })
        .unwrap();
        std::fs::write(
            dir.join(crate::quarantine::QUARANTINE_FILE),
            r#"{"kind":"trial","trial":1,"cell":0,"repeat":1,"worker":"w1","error":"x","ts_ms":1}"#
                .to_owned()
                + "\n",
        )
        .unwrap();
        let mut state = TopState::new(&dir).unwrap();
        let frame = state.tick().unwrap();
        assert!(frame.contains("w0"), "{frame}");
        assert!(frame.contains("quarantine records: 1"), "{frame}");
        // w1 is ~100× slower than w0; with two workers the z-score of
        // the slow one is -1 (population σ of two points), so assert
        // the columns render rather than the flag fire here.
        assert!(frame.contains("chaos"), "{frame}");
        let w1_line = frame.lines().find(|l| l.starts_with("w1")).unwrap();
        assert!(w1_line.contains('3') && w1_line.contains('4'), "{w1_line}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn straggler_flag_fires_below_minus_two_sigma() {
        // Synthetic views: many equal rates plus one far-low outlier.
        let mut state = TopState {
            dir: PathBuf::new(),
            name: "t".into(),
            scale: "Smoke".into(),
            total_trials: 100,
            completed: BTreeSet::new(),
            trials_tail: JsonlTailReader::new(PathBuf::from("/nonexistent"), "trials.read"),
            claims_tail: JsonlTailReader::new(PathBuf::from("/nonexistent"), "claims.read"),
            claim_seen: BTreeMap::new(),
            quarantine_tail: JsonlTailReader::new(PathBuf::from("/nonexistent"), "quarantine.read"),
            quarantine_records: 0,
            obs: BTreeMap::new(),
        };
        let mk = |trials: u64, window_ms: u64| WorkerView {
            trials,
            last_span: "trial".into(),
            last_trial: Some(0),
            first_ts_ms: 1000,
            last_ts_ms: 1000 + window_ms,
            chaos: 0,
            retries: 0,
            quarantined: 0,
        };
        for i in 0..9 {
            state.obs.insert(
                format!("worker-w{i}.jsonl"),
                (JsonlTailReader::new(PathBuf::from("/nonexistent"), "obs.read"), mk(100, 10_000)),
            );
        }
        state.obs.insert(
            "worker-slow.jsonl".into(),
            (JsonlTailReader::new(PathBuf::from("/nonexistent"), "obs.read"), mk(1, 10_000)),
        );
        let text = state.render();
        let slow = text.lines().find(|l| l.starts_with("slow")).unwrap();
        assert!(slow.contains("STRAGGLER"), "{text}");
        for l in text.lines().filter(|l| l.starts_with("w")) {
            assert!(!l.contains("STRAGGLER"), "{text}");
        }
    }
}
