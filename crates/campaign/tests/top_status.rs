//! `campaign top --once` and `campaign status` read one campaign
//! directory through the same log readers, so they must agree on
//! progress and quarantine, and refuse the same foreign log:
//!
//! * a quarantine record of a trial that later completed is history,
//!   not a quarantined task;
//! * a duplicate trial record (a reaped trial finished twice) counts
//!   one trial once;
//! * a trial record outside the campaign's grid means the directory
//!   holds another campaign's log — both commands fail, and so do
//!   `profile` and `resume`, which read the trial log the same way.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use frlfi::Scale;
use frlfi_campaign::{runner, RunnerConfig, Scenario, SystemKind};

/// A cheap grid campaign: 3 cells × 4 repeats.
fn scenario() -> Scenario {
    let mut s = Scenario::new("agree", SystemKind::GridWorld, Scale::Smoke);
    s.fault.bers = vec![0.0, 0.1, 0.2];
    s.fault.inject_episodes = vec![100];
    s.train.total_episodes = Some(300);
    s.repeats = Some(4);
    s
}

/// Runs the campaign CLI; returns `(success, stdout, stderr)`.
fn run_cli(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign")).args(args).output().expect("spawn CLI");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn append(path: &Path, line: &str) {
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path).expect("open");
    writeln!(f, "{line}").expect("append");
}

/// The `done/total` pair printed before the word `trials`.
fn progress(out: &str) -> (usize, usize) {
    let words: Vec<&str> = out.split_whitespace().collect();
    words
        .windows(2)
        .find_map(|w| {
            let (done, total) = w[0].split_once('/')?;
            (w[1] == "trials").then_some(())?;
            Some((done.parse().ok()?, total.parse().ok()?))
        })
        .unwrap_or_else(|| panic!("no progress in:\n{out}"))
}

/// The count after `quarantined:`, 0 when no such line is printed.
fn quarantined(out: &str) -> usize {
    out.lines()
        .find_map(|l| l.trim_start().strip_prefix("quarantined: "))
        .map_or(0, |rest| rest.split_whitespace().next().unwrap().parse().unwrap())
}

/// The `(done, total)` and quarantined counts both commands print.
fn both(dir: &str) -> [((usize, usize), usize); 2] {
    ["status", "top"].map(|cmd| {
        let args = if cmd == "top" { vec![cmd, dir, "--once"] } else { vec![cmd, dir] };
        let (ok, out, err) = run_cli(&args);
        assert!(ok, "campaign {cmd} failed:\n{out}\n{err}");
        (progress(&out), quarantined(&out))
    })
}

#[test]
fn top_and_status_agree_on_completed_and_quarantined_counts() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("frlfi-top-status-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RunnerConfig { threads: 1, max_new_trials: Some(5), ..RunnerConfig::default() };
    runner::run(&scenario(), &dir, &cfg).expect("interrupted run");
    let dir_s = dir.to_str().expect("utf8");
    let trials = dir.join("trials.jsonl");
    let log = std::fs::read_to_string(&trials).expect("trial log");
    let flat = |line: &str| {
        let v = frlfi_campaign::fmt::json::parse(line).expect("record");
        let int = |k: &str| v.get(k).and_then(serde::Value::as_int).expect("index") as usize;
        int("cell") * 4 + int("repeat")
    };
    let done: Vec<usize> = log.lines().map(flat).collect();
    assert_eq!(done.len(), 5);
    let open = (0..12).find(|t| !done.contains(t)).expect("an incomplete trial");

    // A quarantine record of a trial that later completed, one of a
    // trial still open, and a duplicate trial record.
    let quarantine = dir.join("quarantine.jsonl");
    for t in [done[0], open] {
        append(
            &quarantine,
            &format!(
                r#"{{"kind":"trial","trial":{t},"cell":{},"repeat":{},"worker":"w","error":"eio","ts_ms":1}}"#,
                t / 4,
                t % 4
            ),
        );
    }
    append(&trials, log.lines().next().expect("a record"));
    let [status, top] = both(dir_s);
    assert_eq!(status, ((5, 12), 1), "status");
    assert_eq!(top, status, "top disagrees with status");

    // A record outside the 3×4 grid: another campaign's log.
    append(&trials, r#"{"cell":99,"repeat":0,"seed":0,"value":1.0}"#);
    for args in [
        vec!["status", dir_s],
        vec!["top", dir_s, "--once"],
        vec!["profile", dir_s],
        vec!["resume", dir_s],
    ] {
        let (ok, out, err) = run_cli(&args);
        assert!(!ok, "{args:?} accepted a foreign trial record:\n{out}");
        assert!(err.contains("wrong directory?"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
