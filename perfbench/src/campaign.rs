//! One campaign through `frlfi_campaign::runner::run`, timed from
//! outside, with its output checked.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use frlfi_campaign::fmt::json;
use frlfi_campaign::{runner, RunnerConfig, Scenario};

/// A finished campaign.
pub struct CampaignRun {
    pub dir: PathBuf,
    pub wall_s: f64,
    pub trials: usize,
    /// The trial phase: records committed after the first commit was
    /// seen, and the wall and process CPU seconds from then to the end.
    /// Whatever ran before the first commit — set-up included — is
    /// outside it.
    pub phase_trials: usize,
    pub phase_wall_s: f64,
    pub phase_cpu_s: f64,
    pub phase_start: Instant,
    /// Every core-speed probe sample of the run: when it was taken, and
    /// its CPU seconds.
    pub probes: Vec<(Instant, f64)>,
    /// Quarantined or errored trials.
    pub failed: usize,
    /// FNV-1a of `summary.txt`.
    pub digest: u64,
}

/// Runs `scenario` to completion in the fresh directory `dir` on the
/// batched path with `threads` workers (recorder on iff `obs`), with
/// the core-speed probe sampling beside them.
///
/// # Errors
///
/// Runner errors, an incomplete campaign, or an unreadable summary.
pub fn run(
    scenario: &Scenario,
    dir: &Path,
    threads: usize,
    obs: bool,
) -> Result<CampaignRun, String> {
    let cfg = RunnerConfig { threads, batched: true, obs, ..RunnerConfig::default() };
    let log = dir.join("trials.jsonl");
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (outcome, first, probes) = std::thread::scope(|s| {
        let watcher = s.spawn(|| first_commit(&log, &stop));
        let sampler = s.spawn(|| crate::probe::sample_until(&stop));
        let outcome = runner::run(scenario, dir, &cfg);
        stop.store(true, Ordering::Relaxed);
        (
            outcome,
            watcher.join().expect("the commit watcher does not panic"),
            sampler.join().expect("the speed probe does not panic"),
        )
    });
    let (end, cpu_end) = (Instant::now(), crate::sys::cpu_seconds());
    let outcome = outcome?;
    if !outcome.complete() || outcome.new_trials != outcome.total_trials {
        return Err(format!(
            "{}: campaign ran {} of {} trials ({} quarantined)",
            scenario.name,
            outcome.new_trials,
            outcome.total_trials,
            outcome.quarantined.len()
        ));
    }
    let summary = std::fs::read(dir.join("summary.txt"))
        .map_err(|e| format!("read {}/summary.txt: {e}", dir.display()))?;
    let (t_first, cpu_first, committed) = first.ok_or_else(|| {
        format!("{}: no trial commit was seen before the campaign ended", scenario.name)
    })?;
    Ok(CampaignRun {
        dir: dir.to_owned(),
        wall_s: (end - t0).as_secs_f64(),
        trials: outcome.new_trials,
        phase_trials: outcome.new_trials - committed,
        phase_wall_s: (end - t_first).as_secs_f64(),
        phase_cpu_s: cpu_end - cpu_first,
        phase_start: t_first,
        probes,
        failed: outcome.quarantined.len(),
        digest: crate::sys::fnv1a(&summary),
    })
}

impl CampaignRun {
    /// CPU seconds of the probe samples taken in the trial phase.
    pub fn phase_probes(&self) -> impl Iterator<Item = f64> + '_ {
        self.probes.iter().filter(|(at, _)| *at >= self.phase_start).map(|&(_, cpu)| cpu)
    }
}

/// Polls the trial log every few milliseconds until its first record
/// lands; returns when it was seen, the process CPU seconds then, and
/// the records committed by then. `None` if `stop` came first.
fn first_commit(log: &Path, stop: &AtomicBool) -> Option<(Instant, f64, usize)> {
    while !stop.load(Ordering::Relaxed) {
        if let Ok(bytes) = std::fs::read(log) {
            let committed = bytes.iter().filter(|&&b| b == b'\n').count();
            if committed > 0 {
                return Some((Instant::now(), crate::sys::cpu_seconds(), committed));
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    None
}

/// The persisted value of trial `(cell, repeat)` in `dir/trials.jsonl`.
pub fn persisted_value(dir: &Path, cell: usize, repeat: usize) -> Result<f64, String> {
    let path = dir.join("trials.jsonl");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        let int = |k: &str| v.get(k).and_then(serde::Value::as_int);
        if int("cell") == Some(cell as i64) && int("repeat") == Some(repeat as i64) {
            return v
                .get("value")
                .and_then(|x| x.as_float().or_else(|| x.as_int().map(|i| i as f64)))
                .ok_or_else(|| format!("{}: trial record without a value", path.display()));
        }
    }
    Err(format!("{}: no record for (cell {cell}, repeat {repeat})", path.display()))
}
