//! Multi-process coordination guarantees, pinned against the real CLI:
//!
//! * N worker processes sharing one campaign directory produce a
//!   `summary.txt` **byte-identical** to the single-process,
//!   single-thread run;
//! * SIGKILLing a worker mid-flight loses nothing: its stale leases
//!   are reaped, its trials re-run bitwise-identically, and the final
//!   artifacts are unchanged;
//! * the shared-queue mode is bit-identical to the exclusive runner
//!   in-process too, with the ignored `batched` flag set or not.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use frlfi::Scale;
use frlfi_campaign::{runner, CoordConfig, CoordMode, RunnerConfig, Scenario, SystemKind};

fn cli() -> &'static str {
    env!("CARGO_BIN_EXE_campaign")
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "frlfi-multiproc-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A grid campaign cheap enough for CI but with enough trials that
/// several processes genuinely overlap.
fn scenario(name: &str) -> Scenario {
    let mut s = Scenario::new(name, SystemKind::GridWorld, Scale::Smoke);
    s.fault.bers = vec![0.0, 0.1, 0.2];
    s.fault.inject_episodes = vec![100];
    s.train.total_episodes = Some(300);
    s.repeats = Some(4);
    s
}

fn write_spec(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("frlfi-mp-{name}-{}.toml", std::process::id()));
    std::fs::write(&path, scenario(name).to_toml()).expect("write spec");
    path
}

/// Runs the CLI to completion, returning (success, combined output).
fn run_cli(args: &[&str]) -> (bool, String) {
    let out = Command::new(cli()).args(args).output().expect("spawn campaign CLI");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr),
    )
}

fn spawn_cli(args: &[&str]) -> Child {
    Command::new(cli())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn campaign CLI")
}

fn wait_output(child: Child, what: &str) -> String {
    let out = child.wait_with_output().expect("wait for CLI");
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{what} failed:\n{text}");
    text
}

fn wait_for(what: &str, timeout: Duration, mut ready: impl FnMut() -> bool) {
    let start = Instant::now();
    while !ready() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Parses the trailing "(N new)" out of the CLI's outcome line.
fn new_trials(output: &str) -> usize {
    output
        .lines()
        .find_map(|l| {
            let (_, rest) = l.split_once("trials done (")?;
            rest.split_once(" new)")?.0.parse().ok()
        })
        .unwrap_or_else(|| panic!("no outcome line in output:\n{output}"))
}

fn summary(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("summary.txt"))
        .unwrap_or_else(|e| panic!("summary.txt in {}: {e}", dir.display()))
}

/// Single-process, single-thread reference run — the bytes every
/// multi-process configuration must reproduce.
fn reference_summary(name: &str) -> String {
    let dir = temp_dir(&format!("{name}-ref"));
    let out =
        runner::run(&scenario(name), &dir, &RunnerConfig { threads: 1, ..RunnerConfig::default() })
            .expect("reference run");
    assert!(out.complete());
    let text = summary(&dir);
    std::fs::remove_dir_all(&dir).ok();
    text
}

#[test]
fn three_worker_processes_match_the_single_process_run_byte_for_byte() {
    let reference = reference_summary("mp3");
    let spec = write_spec("mp3");
    let dir = temp_dir("mp3");
    let dir_s = dir.to_str().expect("utf8");

    // Process 1 opens the campaign in shared mode; processes 2 and 3
    // join it as workers once the manifest exists — one of them with
    // the ignored `--batched` flag, which must still parse.
    let first = spawn_cli(&[
        "run",
        spec.to_str().expect("utf8"),
        "--out",
        dir_s,
        "--shared",
        "--threads",
        "1",
        "--worker-id",
        "p1",
    ]);
    wait_for("campaign manifest", Duration::from_secs(30), || dir.join("campaign.toml").exists());
    let second = spawn_cli(&["worker", dir_s, "--threads", "1", "--worker-id", "p2"]);
    let third = spawn_cli(&["worker", dir_s, "--threads", "1", "--batched", "--worker-id", "p3"]);

    let outputs = [
        wait_output(first, "shared run"),
        wait_output(second, "worker p2"),
        wait_output(third, "worker p3"),
    ];
    assert_eq!(summary(&dir), reference, "multi-process summary.txt must be byte-identical");
    let total: usize = outputs.iter().map(|o| new_trials(o)).sum();
    assert_eq!(total, 12, "the processes must split exactly the campaign's trials: {outputs:?}");

    // The claim log shows the campaign was genuinely shared work.
    let claims = std::fs::read_to_string(dir.join("claims.jsonl")).expect("claims.jsonl");
    assert!(claims.contains("\"p1\""), "opener must have claimed through the log");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&spec).ok();
}

#[test]
fn two_processes_share_a_drone_builtin_campaign_byte_for_byte() {
    // The drone analogue of the grid tests (acceptance criterion:
    // multi-process bit-equality for at least one grid *and* one
    // drone builtin): the real `drone-dynamic` smoke campaign, split
    // between two processes with one of them SIGKILLed mid-flight,
    // against the exclusive single-thread run. Each process resolves
    // the shared pre-trained weights independently — deterministically,
    // so the split cannot show.
    let scenario =
        frlfi_campaign::registry::builtin("drone-dynamic", Scale::Smoke).expect("built-in");
    let ref_dir = temp_dir("drone-ref");
    let out =
        runner::run(&scenario, &ref_dir, &RunnerConfig { threads: 1, ..RunnerConfig::default() })
            .expect("reference run");
    assert!(out.complete());
    let reference = summary(&ref_dir);

    let dir = temp_dir("drone-mp");
    let dir_s = dir.to_str().expect("utf8");
    let mut victim = spawn_cli(&[
        "run",
        "drone-dynamic",
        "--scale",
        "smoke",
        "--out",
        dir_s,
        "--shared",
        "--threads",
        "1",
        "--lease-ms",
        "600",
        "--worker-id",
        "victim",
    ]);
    wait_for("first committed drone trial", Duration::from_secs(120), || {
        dir.join("trials.jsonl").metadata().map(|m| m.len() > 0).unwrap_or(false)
    });
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap victim");

    let a =
        spawn_cli(&["worker", dir_s, "--lease-ms", "600", "--threads", "1", "--worker-id", "a"]);
    let b = spawn_cli(&[
        "worker",
        dir_s,
        "--lease-ms",
        "600",
        "--threads",
        "1",
        "--batched",
        "--worker-id",
        "b",
    ]);
    let out_a = wait_output(a, "drone worker a");
    let out_b = wait_output(b, "drone worker b");
    assert_eq!(summary(&dir), reference, "drone multi-process summary must be byte-identical");
    assert!(
        new_trials(&out_a) + new_trials(&out_b) > 0,
        "survivors must finish the victim's work:\n{out_a}\n{out_b}"
    );

    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkilled_worker_is_reaped_and_the_campaign_still_matches_byte_for_byte() {
    let reference = reference_summary("mpkill");
    let spec = write_spec("mpkill");
    let dir = temp_dir("mpkill");
    let dir_s = dir.to_str().expect("utf8");

    // The victim opens the campaign with a short lease and is
    // SIGKILLed as soon as it has committed its first trial — dying
    // with a live lease on the next one and (likely) a torn tail.
    let mut victim = spawn_cli(&[
        "run",
        spec.to_str().expect("utf8"),
        "--out",
        dir_s,
        "--shared",
        "--threads",
        "1",
        "--lease-ms",
        "600",
        "--worker-id",
        "victim",
    ]);
    wait_for("first committed trial", Duration::from_secs(60), || {
        dir.join("trials.jsonl").metadata().map(|m| m.len() > 0).unwrap_or(false)
    });
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap victim");

    // Two replacement workers finish the campaign: they must wait out
    // the victim's stale lease, re-claim its trial at the next
    // generation, and re-run it bitwise-identically.
    let a =
        spawn_cli(&["worker", dir_s, "--lease-ms", "600", "--threads", "1", "--worker-id", "a"]);
    let b =
        spawn_cli(&["worker", dir_s, "--lease-ms", "600", "--threads", "1", "--worker-id", "b"]);
    let out_a = wait_output(a, "worker a");
    let out_b = wait_output(b, "worker b");

    assert_eq!(summary(&dir), reference, "kill + reap must not change a byte of summary.txt");
    let survivors = new_trials(&out_a) + new_trials(&out_b);
    assert!(survivors > 0, "survivors must have picked up the victim's work:\n{out_a}\n{out_b}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&spec).ok();
}

#[test]
fn worker_requires_an_existing_campaign_and_status_reports_progress() {
    let dir = temp_dir("status");
    let dir_s = dir.to_str().expect("utf8");

    let (ok, err) = run_cli(&["worker", dir_s]);
    assert!(!ok, "worker must refuse a directory with no campaign");
    assert!(err.contains("--shared"), "the error should teach the join flow: {err}");

    // Open the campaign exclusively and stop after 2 of 12 trials.
    let spec = write_spec("status");
    let (ok, out) =
        run_cli(&["run", spec.to_str().expect("utf8"), "--out", dir_s, "--max-trials", "2"]);
    assert!(ok, "{out}");
    let (ok, st) = run_cli(&["status", dir_s]);
    assert!(ok, "{st}");
    assert!(st.contains("2/12 trials done"), "{st}");
    assert!(st.contains("3 cells × 4 repeats"), "{st}");
    assert!(st.contains("summary.txt: pending"), "{st}");

    // A budgeted shared-mode call executes exactly its budget and
    // returns without waiting on anyone.
    let (ok, out) = run_cli(&["worker", dir_s, "--max-trials", "3", "--threads", "2"]);
    assert!(ok, "{out}");
    assert_eq!(new_trials(&out), 3, "{out}");
    let (ok, st) = run_cli(&["status", dir_s]);
    assert!(ok, "{st}");
    assert!(st.contains("5/12 trials done"), "{st}");

    // Finish and confirm the terminal status.
    let (ok, out) = run_cli(&["worker", dir_s, "--threads", "2"]);
    assert!(ok, "{out}");
    let (ok, st) = run_cli(&["status", dir_s]);
    assert!(ok, "{st}");
    assert!(st.contains("12/12 trials done (100%)"), "{st}");
    assert!(st.contains("summary.txt: written"), "{st}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&spec).ok();
}

#[test]
fn shared_mode_is_bit_identical_to_exclusive_in_process() {
    let scenario = scenario("inproc");
    let ref_dir = temp_dir("inproc-ref");
    let reference =
        runner::run(&scenario, &ref_dir, &RunnerConfig { threads: 1, ..RunnerConfig::default() })
            .expect("reference");
    let ref_stats = reference.stats.expect("complete");

    for batched in [false, true] {
        let dir = temp_dir("inproc-shared");
        let out = runner::run(
            &scenario,
            &dir,
            &RunnerConfig {
                threads: 3,
                batched,
                coord: CoordMode::Shared(CoordConfig::default()),
                ..RunnerConfig::default()
            },
        )
        .expect("shared run");
        assert!(out.complete());
        let stats = out.stats.expect("complete");
        assert_eq!(stats.len(), ref_stats.len());
        for (s, r) in stats.iter().zip(ref_stats.iter()) {
            assert_eq!(s.mean.to_bits(), r.mean.to_bits(), "batched={batched}");
            assert_eq!(s.std.to_bits(), r.std.to_bits(), "batched={batched}");
        }
        assert_eq!(summary(&dir), summary(&ref_dir), "batched={batched}");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn shared_mode_skips_corrupt_interior_records_and_reruns_them() {
    let scenario = scenario("lenient");
    let ref_dir = temp_dir("lenient-ref");
    runner::run(&scenario, &ref_dir, &RunnerConfig { threads: 1, ..RunnerConfig::default() })
        .expect("reference");

    // Complete a campaign, then mangle one interior record — the
    // healed-torn-tail shape a SIGKILLed concurrent writer leaves.
    let dir = temp_dir("lenient");
    runner::run(&scenario, &dir, &RunnerConfig { threads: 2, ..RunnerConfig::default() })
        .expect("first pass");
    let log = dir.join("trials.jsonl");
    let text = std::fs::read_to_string(&log).expect("log");
    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 12);
    lines[4] = "{\"cell\":1,\"repe"; // torn fragment, interior position
    std::fs::write(&log, lines.join("\n") + "\n").expect("mangle");

    // Exclusive resume refuses (interior damage under one writer is a
    // real integrity problem) and names the line...
    let err = runner::run(&scenario, &dir, &RunnerConfig::default()).expect_err("strict refuses");
    assert!(err.contains("line 5"), "{err}");

    // ...while a shared-queue worker skips it with a warning and
    // re-runs the lost trial to the identical summary.
    let out = runner::run(
        &scenario,
        &dir,
        &RunnerConfig {
            threads: 2,
            coord: CoordMode::Shared(CoordConfig::default()),
            ..RunnerConfig::default()
        },
    )
    .expect("lenient shared resume");
    assert!(out.complete());
    assert_eq!(out.new_trials, 1, "exactly the mangled trial re-runs");
    assert_eq!(summary(&dir), summary(&ref_dir));

    // The directory now has shared history (claims.jsonl exists), so
    // even an *exclusive* resume reads leniently: a legitimate
    // campaign must stay resumable solo after a shared worker healed
    // a dead process's torn tail into an interior line.
    let text = std::fs::read_to_string(&log).expect("log");
    let mut lines: Vec<&str> = text.lines().collect();
    lines[7] = "{\"cell\":2,\"repe";
    std::fs::write(&log, lines.join("\n") + "\n").expect("mangle again");
    let out = runner::run(&scenario, &dir, &RunnerConfig::default())
        .expect("exclusive resume of a shared-history campaign is lenient");
    assert!(out.complete());
    assert_eq!(out.new_trials, 1, "the re-mangled trial re-runs");
    assert_eq!(summary(&dir), summary(&ref_dir));

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn negative_trial_indices_are_rejected_as_corrupt_records() {
    // `cell` / `repeat` are array indices; before the range check an
    // unchecked `as usize` cast wrapped a negative value from a corrupt
    // `trials.jsonl` into a huge index and panicked (or worse, aliased
    // another cell) deep inside the runner. The loader must instead
    // reject the record like any other corrupt line, naming file+line.
    let mut scenario = scenario("neg-index");
    scenario.fault.bers = vec![0.1];
    scenario.repeats = Some(2);
    let dir = temp_dir("neg-index");
    runner::run(&scenario, &dir, &RunnerConfig { threads: 1, ..RunnerConfig::default() })
        .expect("first pass");
    let log = dir.join("trials.jsonl");
    let pristine = std::fs::read_to_string(&log).expect("log");
    assert_eq!(pristine.lines().count(), 2);

    for field in ["cell", "repeat"] {
        // Interior corruption (line 1 of 2): strict exclusive resume
        // must refuse, naming the file, the line, and the field.
        let mut lines: Vec<String> = pristine.lines().map(String::from).collect();
        assert!(lines[0].contains(&format!("\"{field}\":0")), "fixture drifted: {}", lines[0]);
        lines[0] = lines[0].replace(&format!("\"{field}\":0"), &format!("\"{field}\":-3"));
        std::fs::write(&log, lines.join("\n") + "\n").expect("mangle");
        let err =
            runner::run(&scenario, &dir, &RunnerConfig::default()).expect_err("strict refuses");
        assert!(err.contains("trials.jsonl"), "error must name the file: {err}");
        assert!(err.contains("line 1"), "error must name the line: {err}");
        assert!(err.contains(field) && err.contains("-3"), "error must name the field: {err}");

        // A shared-queue worker treats it like any other corrupt line:
        // skip with a warning, re-run the lost trial, same summary.
        let out = runner::run(
            &scenario,
            &dir,
            &RunnerConfig {
                coord: CoordMode::Shared(CoordConfig::default()),
                ..RunnerConfig::default()
            },
        )
        .expect("lenient shared resume");
        assert!(out.complete());
        assert_eq!(out.new_trials, 1, "exactly the corrupt trial re-runs");

        // Reset to a pristine exclusive-history directory for the next
        // field (shared history would make later resumes lenient).
        std::fs::remove_dir_all(&dir).ok();
        runner::run(&scenario, &dir, &RunnerConfig { threads: 1, ..RunnerConfig::default() })
            .expect("fresh pass");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shared_mode_rejects_the_wide_summary_flag() {
    // With several finalizer processes carrying different flags, a
    // per-call rendering option would make summary.txt depend on
    // which process renames last — shared mode refuses it up front.
    let dir = temp_dir("wide-shared");
    let err = runner::run(
        &scenario("wide-shared"),
        &dir,
        &RunnerConfig {
            wide_summary: true,
            coord: CoordMode::Shared(CoordConfig::default()),
            ..RunnerConfig::default()
        },
    )
    .expect_err("shared + wide must be rejected");
    assert!(err.contains("--wide"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The unsigned integer after `"key":` in a JSON line, if any.
fn json_uint(line: &str, key: &str) -> Option<usize> {
    let rest = line.split_once(&format!("\"{key}\":"))?.1;
    rest.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// Trial ids mentioned in `claims.jsonl` (claimed, renewed or reaped)
/// that `trials.jsonl` does not hold yet: the in-flight leases. The
/// flat trial id is `cell * repeats + repeat`.
fn uncommitted_claims(dir: &Path) -> usize {
    let repeats = scenario("ids").repeats.expect("explicit repeats");
    let read = |file: &str| std::fs::read_to_string(dir.join(file)).unwrap_or_default();
    let committed: std::collections::BTreeSet<usize> = read("trials.jsonl")
        .lines()
        .filter_map(|l| Some(json_uint(l, "cell")? * repeats + json_uint(l, "repeat")?))
        .collect();
    let claimed: std::collections::BTreeSet<usize> =
        read("claims.jsonl").lines().filter_map(|l| json_uint(l, "trial")).collect();
    claimed.difference(&committed).count()
}

/// Waits until every thread of process `pid` is stopped: `kill -STOP`
/// returns once the signal is sent, not once it is delivered, so the
/// victim may still append a line right after it. Falls back to a
/// fixed grace period where `/proc` is unavailable.
fn wait_stopped(pid: &str) {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        std::thread::sleep(Duration::from_millis(200));
        return;
    };
    let tasks: Vec<PathBuf> = tasks.filter_map(|t| Some(t.ok()?.path().join("stat"))).collect();
    wait_for("the victim to stop", Duration::from_secs(10), || {
        tasks.iter().all(|stat| {
            // The state follows the parenthesised command name.
            std::fs::read_to_string(stat).map_or(true, |s| {
                s.rsplit_once(')').is_some_and(|(_, rest)| rest.trim_start().starts_with('T'))
            })
        })
    });
}

fn committed_trials(dir: &Path) -> usize {
    std::fs::read_to_string(dir.join("trials.jsonl")).map(|t| t.lines().count()).unwrap_or(0)
}

#[test]
fn stalled_heartbeat_is_reaped_and_the_thawed_worker_changes_nothing() {
    let reference = reference_summary("mpstall");
    let spec = write_spec("mpstall");
    let dir = temp_dir("mpstall");
    let dir_s = dir.to_str().expect("utf8");

    // The victim opens the campaign with a short lease and is
    // SIGSTOPped once it holds a lease on a trial it has not yet
    // committed: the process is alive but every thread — heartbeat
    // included — is frozen. From the claim log this is exactly what a
    // dead heartbeat thread looks like: a claim that stops renewing
    // while its worker silently stalls.
    let victim = spawn_cli(&[
        "run",
        spec.to_str().expect("utf8"),
        "--out",
        dir_s,
        "--shared",
        "--threads",
        "1",
        "--lease-ms",
        "600",
        "--worker-id",
        "victim",
    ]);
    let pid = victim.id().to_string();
    let signal = |sig: &str| {
        let sent = Command::new("kill").args([sig, &pid]).status().expect("send signal");
        assert!(sent.success(), "{sig} victim");
    };
    // The victim can commit its in-flight trial between the poll and
    // the stop, leaving no lease to reap. The logs are still once it
    // is stopped, so check again there; if nothing is in flight, let it
    // run on to its next lease and try again.
    const ATTEMPTS: usize = 8;
    for attempt in 1.. {
        wait_for("a committed trial plus an in-flight lease", Duration::from_secs(60), || {
            committed_trials(&dir) >= 1 && uncommitted_claims(&dir) > 0
        });
        signal("-STOP");
        wait_stopped(&pid);
        if uncommitted_claims(&dir) > 0 {
            break;
        }
        assert!(attempt < ATTEMPTS, "no in-flight lease at any of {ATTEMPTS} SIGSTOPs");
        signal("-CONT");
    }

    // A healthy worker must wait out the stalled lease, reap it at
    // generation g+1, re-run the victim's in-flight trial and finish
    // the campaign.
    let a =
        spawn_cli(&["worker", dir_s, "--lease-ms", "600", "--threads", "1", "--worker-id", "a"]);
    let out_a = wait_output(a, "worker a");
    assert!(new_trials(&out_a) > 0, "the survivor must have picked up work:\n{out_a}");
    assert_eq!(summary(&dir), reference, "reaping a stalled worker must not change a byte");
    let claims = std::fs::read_to_string(dir.join("claims.jsonl")).expect("claims.jsonl");
    assert!(
        claims.contains("\"gen\":1"),
        "the stalled lease must be reaped at the next generation: {claims}"
    );

    // Thaw the victim: it wakes mid-trial with the campaign already
    // complete, commits its trial anyway — a duplicate record, which
    // must be bitwise-identical and therefore harmless — and exits
    // cleanly. The summary stays byte-identical through the overlap.
    signal("-CONT");
    wait_output(victim, "thawed victim");
    assert_eq!(summary(&dir), reference, "the thawed victim must not change a byte either");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&spec).ok();
}

#[test]
fn pathological_lease_settings_are_rejected_before_any_disk_writes() {
    let spec = write_spec("lease");
    let dir = temp_dir("lease");
    let dir_s = dir.to_str().expect("utf8");

    // Below the minimum, the heartbeat cadence cannot keep the lease
    // alive: the worker would reap itself. The CLI rejects the flag
    // with the typed config error before touching the directory.
    for lease in ["50", "0"] {
        let (ok, err) = run_cli(&[
            "run",
            spec.to_str().expect("utf8"),
            "--out",
            dir_s,
            "--shared",
            "--lease-ms",
            lease,
        ]);
        assert!(!ok, "--lease-ms {lease} must be rejected");
        assert!(err.contains("--lease-ms"), "{err}");
        assert!(err.contains("below the minimum"), "{err}");
    }
    assert!(!dir.exists(), "validation must fire before any disk writes");

    let (ok, err) = run_cli(&["worker", dir_s, "--lease-ms", "100"]);
    assert!(!ok, "the worker path must validate too");
    assert!(err.contains("below the minimum"), "{err}");

    std::fs::remove_file(&spec).ok();
}
