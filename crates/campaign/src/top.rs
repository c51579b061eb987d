//! `campaign top`: a live, self-refreshing view of what a campaign's
//! fleet is doing *right now* — `status` + `profile`, merged, cheap
//! enough to re-render every second.
//!
//! `top` reads no log itself: it renders the two views the other
//! commands are built on. `coord::StatusView` holds the one typed
//! reader of each of `trials.jsonl`, `claims.jsonl`,
//! `artifacts.jsonl` and `quarantine.jsonl` (the readers the runner
//! and `campaign status` use), and `profile::ProfileView` folds every
//! `obs/worker-*.jsonl` stream into a `WorkerProfile`. Both keep
//! per-file byte offsets, and each tick folds **only the appended
//! bytes** — a tick against an idle campaign reads zero log bytes
//! however large the logs have grown. So `top` and `status` agree on
//! progress and quarantine by construction: a trial record of another
//! campaign is an error in both, and a quarantine record counts only
//! while its task is incomplete.
//!
//! Per worker, a frame shows the last completed phase span and trial,
//! completed-trial count and observed rate, heartbeat age (claim
//! records when the campaign is shared; obs event stamps otherwise),
//! quarantine / chaos-injection / io-retry counters, and a straggler
//! flag: a worker whose rate z-score across the fleet falls below
//! −2.0 is marked `STRAGGLER`. The footer extrapolates an ETA from
//! the aggregate rate, exactly like `campaign profile`.

use std::path::Path;

use crate::coord::{CampaignStatus, StatusView};
use crate::profile::{CheckMode, ProfileView, WorkerProfile};

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

/// The two incremental views behind `campaign top`. Create once,
/// [`tick`](TopState::tick) per frame.
pub struct TopState {
    status: StatusView,
    profile: ProfileView,
}

impl TopState {
    /// Opens campaign directory `dir`: reads the manifest once; all
    /// log folding happens per [`tick`](TopState::tick).
    ///
    /// # Errors
    ///
    /// A directory without a readable `campaign.toml` manifest.
    pub fn new(dir: &Path) -> Result<TopState, String> {
        Ok(TopState {
            status: StatusView::open(dir)?,
            profile: ProfileView::open(dir, CheckMode::Lenient),
        })
    }

    /// Refreshes both views and renders the dashboard text.
    ///
    /// # Errors
    ///
    /// I/O failures reading a log (missing files are fine — they
    /// simply have not been created yet), or a trial record of another
    /// campaign.
    pub fn tick(&mut self) -> Result<String, String> {
        self.status.refresh()?;
        self.profile.refresh()?;
        let workers: Vec<_> = self.profile.workers().collect();
        Ok(render(&self.status.status(), &workers, |w| self.status.last_claim_ms(w)))
    }
}

/// Renders one frame: progress and quarantine from `status`, one row
/// per obs stream in `workers`. `last_claim` is a worker's latest
/// claim-log stamp, if it has one.
fn render(
    status: &CampaignStatus,
    workers: &[(&str, &WorkerProfile)],
    last_claim: impl Fn(&str) -> Option<u64>,
) -> String {
    let now = crate::coord::now_ms();
    let (completed, total) = (status.completed_trials, status.total_trials);
    let mut out = format!(
        "campaign top — {} ({}) — {completed}/{total} trials ({:.1}%)\n",
        status.name,
        status.scale,
        status.percent()
    );
    // Fleet rate statistics for the straggler z-score.
    let rates: Vec<f64> = workers.iter().filter_map(|(_, w)| w.rate()).collect();
    let mean = if rates.is_empty() { 0.0 } else { rates.iter().sum::<f64>() / rates.len() as f64 };
    let std = if rates.len() < 2 {
        0.0
    } else {
        (rates.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rates.len() as f64).sqrt()
    };
    out.push_str(&format!(
        "{:<14} {:>10} {:>7} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6}  {}\n",
        "worker", "phase", "trial", "trials", "rate/s", "hb age", "quar", "chaos", "retry", "flag"
    ));
    let mut fleet_rate = 0.0;
    for &(worker, w) in workers {
        let rate = w.rate();
        fleet_rate += rate.unwrap_or(0.0);
        // Heartbeat: a shared worker renews claims; exclusive
        // workers only have their obs stamps.
        let last = last_claim(worker).unwrap_or(0).max(w.last_ts_ms);
        let hb = if last == 0 {
            "?".to_owned()
        } else {
            format!("{:.1}s", now.saturating_sub(last) as f64 / 1e3)
        };
        let straggler = rate.is_some_and(|r| std > 1e-9 && (r - mean) / std <= -2.0);
        out.push_str(&format!(
            "{:<14} {:>10} {:>7} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6}  {}\n",
            worker,
            if w.last_span.is_empty() { "-" } else { &w.last_span },
            w.last_trial.map_or("-".to_owned(), |t| t.to_string()),
            w.trials(),
            rate.map_or("-".to_owned(), |r| format!("{r:.2}")),
            hb,
            w.counter_sum(|n| n.ends_with(".quarantined")),
            w.counter_sum(|n| n.starts_with("chaos.inject")),
            w.counter_sum(|n| n.starts_with("io.retry")),
            if straggler { "STRAGGLER" } else { "" },
        ));
    }
    if workers.is_empty() {
        out.push_str("(no obs streams yet — did this campaign run with --obs?)\n");
    }
    if status.quarantined > 0 {
        out.push_str(&format!(
            "quarantined: {} incomplete task(s) — see quarantine.jsonl\n",
            status.quarantined
        ));
    }
    let remaining = total.saturating_sub(completed);
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
    use crate::profile::OBS_DIR;
    use std::collections::BTreeMap;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("frlfi-top-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(OBS_DIR)).unwrap();
        dir
    }

    /// Writes the fig3a smoke manifest into `dir` and returns its
    /// expanded campaign.
    fn write_manifest(dir: &Path) -> crate::Campaign {
        let scenario =
            crate::registry::builtin("fig3a", frlfi::Scale::Smoke).expect("builtin fig3a");
        std::fs::write(dir.join("campaign.toml"), scenario.to_toml()).unwrap();
        scenario.expand().expect("expand fig3a")
    }

    /// A valid `trials.jsonl` line for flat trial `flat` of `campaign`.
    fn trial_line(campaign: &crate::Campaign, flat: usize) -> String {
        let (cell, repeat) = (flat / campaign.repeats, flat % campaign.repeats);
        let seed = campaign.trial_seed(flat) as i64;
        format!(r#"{{"cell":{cell},"repeat":{repeat},"seed":{seed},"value":1.0}}"#)
    }

    /// Appends `line` plus a newline to `path`.
    fn append(path: &Path, line: &str) {
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path).unwrap();
        writeln!(f, "{line}").unwrap();
    }

    /// Log bytes both views have consumed so far, across every file.
    fn consumed(state: &TopState) -> u64 {
        state.status.consumed() + state.profile.consumed()
    }

    #[test]
    fn ticks_read_only_appended_bytes() {
        let dir = tmpdir("incremental");
        let campaign = write_manifest(&dir);
        let obs = dir.join(OBS_DIR).join("worker-w0.jsonl");
        append(&obs, r#"{"v":2,"kind":"meta","worker":"w0","pid":1,"ts_ms":1000,"mono_us":1}"#);
        append(
            &obs,
            r#"{"v":2,"kind":"span","name":"trial","trial":0,"dur_us":5,"ts_ms":2000,"id":1,"tid":1,"mono_us":9}"#,
        );
        let trials = dir.join(crate::runner::TRIALS_FILE);
        append(&trials, &trial_line(&campaign, 0));
        append(
            &dir.join(crate::coord::CLAIMS_FILE),
            r#"{"trial":1,"gen":0,"worker":"w0","deadline_ms":1,"ts_ms":1500}"#,
        );
        append(
            &dir.join(crate::quarantine::QUARANTINE_FILE),
            r#"{"kind":"trial","trial":2,"cell":0,"repeat":2,"worker":"w0","error":"x","ts_ms":1}"#,
        );

        let mut state = TopState::new(&dir).unwrap();
        let first = state.tick().unwrap();
        let read = consumed(&state);
        let on_disk: u64 = [&obs, &trials]
            .into_iter()
            .chain([&dir.join("claims.jsonl"), &dir.join("quarantine.jsonl")])
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum();
        assert_eq!(read, on_disk, "the first tick reads every log once");
        assert!(first.contains("w0"), "{first}");
        assert!(first.contains(&format!("1/{}", campaign.total_trials())), "{first}");

        // Nothing appended: the next tick must read zero bytes.
        state.tick().unwrap();
        assert_eq!(consumed(&state), read, "idle tick re-read log bytes");

        // Two appended lines: the third tick reads exactly those.
        let line = r#"{"v":2,"kind":"span","name":"trial","trial":1,"dur_us":5,"ts_ms":3000,"id":2,"tid":1,"mono_us":20}"#;
        append(&obs, line);
        let record = trial_line(&campaign, 1);
        append(&trials, &record);
        let third = state.tick().unwrap();
        assert_eq!(consumed(&state) - read, (line.len() + record.len()) as u64 + 2);
        assert!(third.contains(" 2 "), "two trials now: {third}");
        assert!(third.contains(&format!("2/{}", campaign.total_trials())), "{third}");
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
        let w1 = dir.join(OBS_DIR).join("worker-w1.jsonl");
        append(
            &w1,
            r#"{"v":2,"kind":"count","name":"chaos.inject.read","n":3,"ts_ms":2000,"tid":1}"#,
        );
        append(&w1, r#"{"v":2,"kind":"count","name":"io.retry","n":4,"ts_ms":2000,"tid":1}"#);
        append(
            &dir.join(crate::quarantine::QUARANTINE_FILE),
            r#"{"kind":"trial","trial":1,"cell":0,"repeat":1,"worker":"w1","error":"x","ts_ms":1}"#,
        );
        let mut state = TopState::new(&dir).unwrap();
        let frame = state.tick().unwrap();
        assert!(frame.contains("w0"), "{frame}");
        assert!(frame.contains("quarantined: 1 incomplete task(s)"), "{frame}");
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
        // Synthetic profiles: many equal rates plus one far-low outlier.
        let mk = |trials: u64| WorkerProfile {
            spans: BTreeMap::from([("trial".to_owned(), (trials, 0))]),
            last_span: "trial".into(),
            last_trial: Some(0),
            first_ts_ms: 1000,
            last_ts_ms: 11_000,
            ..WorkerProfile::default()
        };
        let status = CampaignStatus {
            name: "t".into(),
            scale: "Smoke".into(),
            cells: 1,
            repeats: 100,
            completed_trials: 0,
            total_trials: 100,
            workers: Vec::new(),
            stale_claims: 0,
            quarantined: 0,
            summary_written: false,
            tasks: None,
        };
        let (fast, slow) = (mk(100), mk(1));
        let names: Vec<String> = (0..9).map(|i| format!("w{i}")).collect();
        let mut workers: Vec<(&str, &WorkerProfile)> =
            names.iter().map(|n| (n.as_str(), &fast)).collect();
        workers.push(("slow", &slow));
        let text = render(&status, &workers, |_| None);
        let slow = text.lines().find(|l| l.starts_with("slow")).unwrap();
        assert!(slow.contains("STRAGGLER"), "{text}");
        for l in text.lines().filter(|l| l.starts_with("w")) {
            assert!(!l.contains("STRAGGLER"), "{text}");
        }
    }
}
