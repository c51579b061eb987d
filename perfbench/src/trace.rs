//! Folds a traced campaign's obs streams (the `trial`, `train`,
//! `eval`, `train_task` spans; `io` timers; `nn.*` counters and
//! histograms) into per-layer numbers, splitting one-off set-up out of
//! trial time.
//!
//! **The set-up split.** Drone pre-training runs lazily inside the
//! first trial, and every other worker that starts a trial meanwhile
//! blocks on the same `OnceLock`, so both sit inside `trial` spans. With
//! the set-up duration `P` measured from outside, the window
//! `[t0, t0 + P]` after the first trial starts is set-up: the overlap
//! of each trial span with it is removed from that trial's time; `P` of
//! it is the set-up itself and the rest is workers waiting on it, which
//! counts as idle.

use std::collections::BTreeMap;
use std::path::Path;

use frlfi_campaign::fmt::json;
use frlfi_campaign::profile;

/// One `span` event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEv {
    pub name: String,
    pub id: u64,
    pub parent: u64,
    pub start_us: u64,
    pub dur_us: u64,
}

impl SpanEv {
    fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// A traced campaign's events.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<SpanEv>,
    /// Timer totals: name → (blocks, µs).
    pub timers: BTreeMap<String, (u64, u64)>,
    pub counters: BTreeMap<String, u64>,
    /// Histograms: name → (buckets, exact max).
    pub hists: BTreeMap<String, (Vec<u64>, u64)>,
}

/// Reads every `obs/worker-*.jsonl` stream of campaign directory `dir`.
///
/// # Errors
///
/// I/O failures and lines that are not schema-v2 events.
pub fn load(dir: &Path) -> Result<Trace, String> {
    let obs = dir.join(profile::OBS_DIR);
    let mut trace = Trace::default();
    let mut paths: Vec<_> = std::fs::read_dir(&obs)
        .map_err(|e| format!("read {}: {e}", obs.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            trace.fold(line).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        }
    }
    Ok(trace)
}

impl Trace {
    fn fold(&mut self, line: &str) -> Result<(), String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let int = |k: &str| v.get(k).and_then(serde::Value::as_int).map(|n| n as u64);
        let need = |k: &str| int(k).ok_or_else(|| format!("event missing integer `{k}`"));
        let name = || v.get("name").and_then(serde::Value::as_str).unwrap_or_default().to_owned();
        match v.get("kind").and_then(serde::Value::as_str) {
            Some("span") => self.spans.push(SpanEv {
                name: name(),
                id: need("id")?,
                parent: int("parent").unwrap_or(0),
                start_us: need("mono_us")?,
                dur_us: need("dur_us")?,
            }),
            Some("timer") => {
                let e = self.timers.entry(name()).or_insert((0, 0));
                e.0 += need("n")?;
                e.1 += need("total_us")?;
            }
            Some("count") => *self.counters.entry(name()).or_insert(0) += need("n")?,
            Some("hist") => {
                let buckets: Vec<u64> = v
                    .get("buckets")
                    .and_then(serde::Value::as_array)
                    .ok_or("hist without buckets")?
                    .iter()
                    .map(|b| b.as_int().unwrap_or(0) as u64)
                    .collect();
                let e = self.hists.entry(name()).or_insert_with(|| (vec![0; buckets.len()], 0));
                for (a, b) in e.0.iter_mut().zip(&buckets) {
                    *a += b;
                }
                e.1 = e.1.max(need("max")?);
            }
            Some("meta" | "log") => {}
            other => return Err(format!("unknown event kind {other:?}")),
        }
        Ok(())
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanEv> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Counter total over every counter whose name starts with `prefix`.
    pub fn count_prefix(&self, prefix: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, n)| n).sum()
    }

    /// Median of histogram `name` (0 when it never recorded).
    pub fn hist_p50(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |(b, max)| profile::hist_percentile(b, *max, 0.5))
    }
}

/// Campaign-level numbers of one traced campaign, set-up split out.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    pub trials: usize,
    /// Per-trial durations (µs) with their set-up overlap removed.
    pub trial_us: Vec<f64>,
    /// Σ `train` span µs, set-up overlap removed.
    pub train_us: f64,
    pub eval_us: f64,
    /// Σ over trials of (trial span − its child spans), µs.
    pub self_us: f64,
    /// Worker time spent waiting on the set-up another worker ran, µs.
    pub setup_wait_us: f64,
    /// Share of worker time (threads × window) outside trial and
    /// train-task work, the waiting on set-up included.
    pub idle_frac: f64,
}

/// Splits `trace` given the set-up duration `setup_us` that ran inside
/// the first trial (0 when the campaign's set-up ran outside trials)
/// and the campaign's worker `threads`.
pub fn split(trace: &Trace, setup_us: f64, threads: usize) -> Split {
    let trials: Vec<&SpanEv> = trace.named("trial").collect();
    let work: Vec<&SpanEv> = trials.iter().copied().chain(trace.named("train_task")).collect();
    let t0 = trials.iter().map(|s| s.start_us).min().unwrap_or(0) as f64;
    let overlap = |s: &SpanEv| {
        let (a, b) = (s.start_us as f64, s.end_us() as f64);
        (b.min(t0 + setup_us) - a.max(t0)).max(0.0)
    };
    let trial_us: Vec<f64> = trials.iter().map(|s| s.dur_us as f64 - overlap(s)).collect();
    let setup_overlap: f64 = trials.iter().map(|s| overlap(s)).sum();
    let setup_wait_us = (setup_overlap - setup_us).max(0.0);
    let trial_ids: Vec<u64> = trials.iter().map(|s| s.id).collect();
    let children: f64 =
        trace.spans.iter().filter(|s| trial_ids.contains(&s.parent)).map(|s| s.dur_us as f64).sum();
    let total = |name: &str| trace.named(name).map(|s| s.dur_us as f64).sum::<f64>();
    let start = work.iter().map(|s| s.start_us).min().unwrap_or(0);
    let end = work.iter().map(|s| s.end_us()).max().unwrap_or(0);
    let busy: f64 = work.iter().map(|s| s.dur_us as f64).sum::<f64>() - setup_wait_us;
    let capacity = threads as f64 * end.saturating_sub(start) as f64;
    Split {
        trials: trials.len(),
        train_us: total("train") - setup_overlap,
        eval_us: total("eval"),
        self_us: trials.iter().map(|s| s.dur_us as f64).sum::<f64>() - children,
        setup_wait_us,
        idle_frac: if capacity > 0.0 { 1.0 - busy / capacity } else { 0.0 },
        trial_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, parent: u64, start_us: u64, dur_us: u64) -> SpanEv {
        SpanEv { name: name.into(), id, parent, start_us, dur_us }
    }

    #[test]
    fn lazy_setup_inside_the_first_trials_is_split_out() {
        // Two workers. Worker A's trial 1 pre-trains for 10 s (0..10 s)
        // then fine-tunes for 2 s; worker B's trial 2 starts at 0.1 s,
        // blocks on the pre-training until 10 s, then runs 2 s; both
        // then run one more 2 s trial each.
        let s = 1_000_000;
        let trace = Trace {
            spans: vec![
                span("trial", 1, 0, 0, 12 * s),
                span("train", 11, 1, 0, 12 * s - s / 2),
                span("eval", 12, 1, 12 * s - s / 2, s / 2),
                span("trial", 2, 0, s / 10, 12 * s - s / 10),
                span("train", 21, 2, s / 10, 12 * s - s / 10 - s / 2),
                span("eval", 22, 2, 12 * s - s / 2, s / 2),
                span("trial", 3, 0, 12 * s, 2 * s),
                span("trial", 4, 0, 12 * s, 2 * s),
            ],
            ..Trace::default()
        };
        let sp = split(&trace, 10.0 * s as f64, 2);
        assert_eq!(sp.trials, 4);
        // Every trial costs its 2 s of own work once set-up is removed.
        for t in &sp.trial_us {
            assert!((t - 2.0 * s as f64).abs() < 1.0, "{:?}", sp.trial_us);
        }
        // Worker B waited 9.9 s of the 10 s set-up.
        assert!((sp.setup_wait_us - 9.9 * s as f64).abs() < 1.0, "{}", sp.setup_wait_us);
        // Window 14 s × 2 workers = 28 s; busy = 10 s set-up + 4 × 2 s.
        assert!((sp.idle_frac - (1.0 - 18.0 / 28.0)).abs() < 1e-9, "{}", sp.idle_frac);
        assert!((sp.train_us - (12.0 - 0.5 + 12.0 - 0.1 - 0.5 - 19.9) * s as f64).abs() < 1.0);
        // Children cover the first two trials; the last two have none.
        assert!((sp.self_us - 4.0 * s as f64).abs() < 1.0, "{}", sp.self_us);
    }

    #[test]
    fn smoke_drone_pretraining_splits_into_setup_and_waiting() {
        use frlfi::experiments::harness::drone_pretrained_weights;
        use frlfi::Scale;
        use frlfi_campaign::{Scenario, SystemKind};
        // A smoke-sized drone campaign whose lazy pre-training dominates
        // its first trials: one worker pre-trains inside its first trial
        // while the other blocks on the same weights inside its own.
        let mut s = Scenario::new("smoke-drone", SystemKind::DroneNav, Scale::Smoke);
        s.train.pretrain_episodes = Some(40);
        s.repeats = Some(2);
        let t0 = std::time::Instant::now();
        drone_pretrained_weights(40);
        let setup_us = t0.elapsed().as_secs_f64() * 1e6;
        let dir = std::env::temp_dir().join(format!("perfbench-split-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = crate::campaign::run(&s, &dir, 2, true).expect("smoke campaign");
        let trace = load(&dir).expect("obs streams");
        let _ = std::fs::remove_dir_all(&dir);
        let (sp, raw) = (split(&trace, setup_us, 2), split(&trace, 0.0, 2));
        assert_eq!(sp.trials, run.trials);
        // Set-up and waiting leave trial time, and nothing else does.
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let removed = sum(&raw.trial_us) - sum(&sp.trial_us);
        assert!((removed - (setup_us + sp.setup_wait_us)).abs() < 1.0, "{removed} vs {setup_us}");
        // The blocked worker waited for most of the pre-training, and
        // that wait counts as idle.
        assert!(sp.setup_wait_us > 0.5 * setup_us, "wait {} of {setup_us}", sp.setup_wait_us);
        assert!(sp.idle_frac > raw.idle_frac, "{} vs {}", sp.idle_frac, raw.idle_frac);
        // The slowest trial no longer carries the pre-training.
        let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        assert!(max(&sp.trial_us) < max(&raw.trial_us) - 0.5 * setup_us);
    }

    #[test]
    fn without_setup_nothing_is_removed() {
        let trace = Trace {
            spans: vec![span("trial", 1, 0, 100, 50), span("train_task", 2, 0, 0, 100)],
            ..Trace::default()
        };
        let sp = split(&trace, 0.0, 2);
        assert_eq!(sp.trial_us, vec![50.0]);
        assert_eq!(sp.setup_wait_us, 0.0);
        // 150 µs window × 2 threads, 150 µs busy.
        assert!((sp.idle_frac - 0.5).abs() < 1e-12);
    }
}
