//! Observability guarantees, pinned end to end:
//!
//! * enabling the recorder changes **nothing**: `summary.txt` and the
//!   per-trial `trials.jsonl` stay byte-identical to the disabled run;
//! * a multi-worker `--obs` campaign leaves one parseable
//!   `obs/worker-<id>.jsonl` stream per worker, and
//!   `campaign profile` folds them into a non-empty per-phase table
//!   that survives `--check`'s strict schema validation;
//! * the obs loader follows the repo's torn-tail discipline: a killed
//!   writer's unterminated fragment is dropped, interior garbage is
//!   skipped leniently (and named under `--check`);
//! * `campaign status` reports per-worker elapsed time and heartbeat
//!   age from the claim log's record timestamps.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use frlfi::Scale;
use frlfi_campaign::io::chaos::{self, ChaosSpec};
use frlfi_campaign::{fmt, perf, profile, runner, top, trace, RunnerConfig, Scenario, SystemKind};
use serde::Value;

/// The recorder is process-global: tests that enable it (or assert on
/// its absence) serialize through this lock so one test's events can
/// never land in another's stream.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn cli() -> &'static str {
    env!("CARGO_BIN_EXE_campaign")
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "frlfi-obs-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The multiproc suite's cheap grid campaign: 3 cells × 4 repeats.
fn scenario(name: &str) -> Scenario {
    let mut s = Scenario::new(name, SystemKind::GridWorld, Scale::Smoke);
    s.fault.bers = vec![0.0, 0.1, 0.2];
    s.fault.inject_episodes = vec![100];
    s.train.total_episodes = Some(300);
    s.repeats = Some(4);
    s
}

fn write_spec(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("frlfi-obs-{name}-{}.toml", std::process::id()));
    std::fs::write(&path, scenario(name).to_toml()).expect("write spec");
    path
}

fn run_cli(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(cli()).args(args).output().expect("spawn campaign CLI");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
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

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("{name} in {}: {e}", dir.display()))
}

#[test]
fn obs_enabled_run_is_byte_identical_and_its_stream_parses_strictly() {
    let _guard = OBS_LOCK.lock().unwrap();
    let scenario = scenario("bytes");

    // Reference: recorder off, one thread (so the trial log's order is
    // deterministic and the logs compare byte-for-byte, not just the
    // summary).
    let ref_dir = temp_dir("bytes-ref");
    let cfg = RunnerConfig { threads: 1, ..RunnerConfig::default() };
    runner::run(&scenario, &ref_dir, &cfg).expect("reference run").stats.expect("complete");

    let dir = temp_dir("bytes-obs");
    let out =
        runner::run(&scenario, &dir, &RunnerConfig { obs: true, ..cfg.clone() }).expect("obs run");
    assert!(out.complete());

    assert_eq!(
        read(&dir, "summary.txt"),
        read(&ref_dir, "summary.txt"),
        "enabling obs must not change a byte of summary.txt"
    );
    assert_eq!(
        read(&dir, "trials.jsonl"),
        read(&ref_dir, "trials.jsonl"),
        "enabling obs must not change a byte of the trial log"
    );
    assert!(!ref_dir.join(profile::OBS_DIR).exists(), "disabled run must not write obs/");

    // The stream parses under strict validation and attributes the
    // campaign's work: 12 trial spans partitioned into train/eval,
    // io timers from the per-trial commits, kernel dispatch counters.
    let p = profile::load_dir(&dir, profile::CheckMode::Strict).expect("strict load");
    assert_eq!(p.workers.len(), 1, "exclusive run writes one stream");
    let w = &p.workers[0];
    assert!(w.worker.starts_with('x'), "exclusive worker id is x<pid>: {}", w.worker);
    assert_eq!(w.trials(), 12);
    assert_eq!(w.spans["train"].0, 12);
    assert_eq!(w.spans["eval"].0, 12);
    assert!(w.timers["io"].0 >= 12, "every commit times its append");
    assert!(w.counters["nn.dispatch.reference"] > 0, "grid eval dispatches reference kernels");
    assert!(w.trial_us() >= w.spans["train"].1, "trial spans cover training");

    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn static_injection_is_booked_as_its_own_phase_inside_eval() {
    let _guard = OBS_LOCK.lock().unwrap();
    let scenario = frlfi_campaign::registry::builtin("fig8a", Scale::Smoke).expect("built-in");
    let dir = temp_dir("inject");
    let cfg = RunnerConfig { threads: 1, obs: true, ..RunnerConfig::default() };
    runner::run(&scenario, &dir, &cfg).expect("obs run").stats.expect("complete");

    // Every fig8a trial corrupts its fleet once, inside its eval span.
    let p = profile::load_dir(&dir, profile::CheckMode::Strict).expect("strict load");
    let w = &p.workers[0];
    assert_eq!(w.timers["inject"].0, w.trials());
    assert!(w.timers["inject"].1 <= w.spans["eval"].1, "inject is part of eval");
    let report = profile::render_report(&p, Some(0));
    assert!(report.contains("inject s"), "{report}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_shared_workers_stream_obs_and_profile_renders_their_phases() {
    let _guard = OBS_LOCK.lock().unwrap();
    let spec = write_spec("mp-obs");
    let spec_s = spec.to_str().expect("utf8");
    let dir = temp_dir("mp-obs");
    let dir_s = dir.to_str().expect("utf8");

    // Reference bytes from a plain exclusive run.
    let ref_dir = temp_dir("mp-obs-ref");
    runner::run(&scenario("mp-obs"), &ref_dir, &RunnerConfig { threads: 1, ..Default::default() })
        .expect("reference run");

    // Two worker processes share the campaign, both with the recorder
    // on — one through the flag, one through the environment knob.
    let first = spawn_cli(&[
        "run",
        spec_s,
        "--out",
        dir_s,
        "--shared",
        "--threads",
        "1",
        "--worker-id",
        "w1",
        "--obs",
    ]);
    let start = Instant::now();
    while !dir.join("campaign.toml").exists() {
        assert!(start.elapsed() < Duration::from_secs(30), "campaign manifest never appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
    let second = Command::new(cli())
        .args(["worker", dir_s, "--threads", "1", "--worker-id", "w2"])
        .env("CAMPAIGN_OBS", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn worker w2");
    wait_output(first, "shared run w1");
    wait_output(second, "worker w2");

    assert_eq!(read(&dir, "summary.txt"), read(&ref_dir, "summary.txt"));
    for worker in ["w1", "w2"] {
        assert!(
            dir.join(profile::OBS_DIR).join(format!("worker-{worker}.jsonl")).exists(),
            "{worker} must have streamed telemetry"
        );
    }

    // `campaign profile` folds both streams: a row per worker, the
    // campaign's 12 trials attributed, coordination counters visible.
    let (ok, out, _) = run_cli(&["profile", dir_s]);
    assert!(ok, "{out}");
    assert!(out.contains("w1") && out.contains("w2"), "one profile row per worker:\n{out}");
    assert!(out.contains("trial/s"), "{out}");
    assert!(out.contains("coord.claim.won"), "claim counters must surface:\n{out}");
    assert!(out.contains("campaign complete"), "{out}");
    let p = profile::load_dir(&dir, profile::CheckMode::Strict).expect("strict load");
    assert_eq!(p.trials(), 12, "every trial span lands in exactly one stream");

    // Strict validation passes on real streams.
    let (ok, out, _) = run_cli(&["profile", dir_s, "--check"]);
    assert!(ok, "{out}");
    assert!(out.contains("check ok:"), "{out}");

    // `status` picks the telemetry up as an observed rate.
    let (ok, st, _) = run_cli(&["status", dir_s]);
    assert!(ok, "{st}");
    assert!(st.contains("observed:"), "status should surface the obs-derived rate:\n{st}");

    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&spec).ok();
}

#[test]
fn profile_tolerates_torn_tails_and_check_names_interior_garbage() {
    let _guard = OBS_LOCK.lock().unwrap();
    let dir = temp_dir("torn");
    let scenario = scenario("torn");
    runner::run(
        &scenario,
        &dir,
        &RunnerConfig { threads: 1, obs: true, ..RunnerConfig::default() },
    )
    .expect("obs run");
    let dir_s = dir.to_str().expect("utf8");

    // A SIGKILLed writer's torn tail never fails validation.
    let stream = std::fs::read_dir(dir.join(profile::OBS_DIR))
        .expect("obs dir")
        .next()
        .expect("one stream")
        .expect("entry")
        .path();
    let intact = std::fs::read_to_string(&stream).expect("stream");
    std::fs::write(&stream, format!("{intact}{{\"v\":1,\"kind\":\"sp")).expect("append tail");
    let (ok, out, _) = run_cli(&["profile", dir_s, "--check"]);
    assert!(ok, "torn tail must pass --check:\n{out}");
    assert!(out.contains("1 torn tail(s)"), "{out}");

    // Interior garbage: lenient profile skips it with a warning,
    // --check fails naming the line, --quiet silences the warning.
    let mut lines: Vec<&str> = intact.lines().collect();
    let n_events = lines.len();
    lines.insert(2, "{\"v\":1,\"kind\":\"mystery\",\"ts_ms\":1}");
    std::fs::write(&stream, lines.join("\n") + "\n").expect("mangle");
    let (ok, out, err) = run_cli(&["profile", dir_s]);
    assert!(ok, "lenient profile must survive garbage:\n{out}\n{err}");
    assert!(err.contains("line 3"), "warning names the line:\n{err}");
    let p = profile::load_dir(&dir, profile::CheckMode::Lenient).expect("lenient load");
    assert_eq!(p.events() as usize, n_events, "only the garbage line is dropped");
    let (ok, _, err) = run_cli(&["profile", dir_s, "--check"]);
    assert!(!ok, "--check must fail on interior garbage");
    assert!(err.contains("line 3"), "{err}");
    let (ok, _, err) = run_cli(&["profile", dir_s, "--quiet"]);
    assert!(ok);
    assert!(!err.contains("line 3"), "--quiet must silence the skip warning:\n{err}");

    // A campaign that never streamed telemetry profiles to an empty
    // report leniently but refuses --check (CI would be asserting on
    // nothing).
    let bare = temp_dir("bare");
    runner::run(&scenario, &bare, &RunnerConfig::default()).expect("plain run");
    let bare_s = bare.to_str().expect("utf8");
    let (ok, out, _) = run_cli(&["profile", bare_s]);
    assert!(ok, "{out}");
    assert!(out.contains("no trial spans yet"), "{out}");
    let (ok, _, err) = run_cli(&["profile", bare_s, "--check"]);
    assert!(!ok, "--check on a stream-less campaign must fail");
    assert!(err.contains("no obs streams"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&bare).ok();
}

#[test]
fn status_reports_worker_elapsed_time_and_heartbeat_age() {
    let spec = write_spec("hb");
    let dir = temp_dir("hb");
    let dir_s = dir.to_str().expect("utf8");

    // Open the campaign and stop early so incomplete trials remain.
    let (ok, out, err) =
        run_cli(&["run", spec.to_str().expect("utf8"), "--out", dir_s, "--max-trials", "2"]);
    assert!(ok, "{out}\n{err}");

    // Hand-craft claim records the way a live worker would have
    // written them: an issue timestamp 90 s back, a renewal 2 s back,
    // and an unexpired lease so the worker counts as active.
    let now = frlfi_campaign::coord::now_ms();
    let claims = format!(
        "{{\"trial\":2,\"gen\":1,\"worker\":\"w-live\",\"deadline_ms\":{},\"ts_ms\":{}}}\n\
         {{\"trial\":2,\"gen\":1,\"worker\":\"w-live\",\"deadline_ms\":{},\"ts_ms\":{}}}\n\
         {{\"trial\":3,\"gen\":1,\"worker\":\"w-old\",\"deadline_ms\":{}}}\n",
        now + 60_000,
        now - 90_000,
        now + 60_000,
        now - 2_000,
        now + 60_000,
    );
    std::fs::write(dir.join("claims.jsonl"), claims).expect("write claims");

    let (ok, st, _) = run_cli(&["status", dir_s]);
    assert!(ok, "{st}");
    assert!(st.contains("w-live"), "{st}");
    assert!(st.contains("up 90."), "elapsed since first claim:\n{st}");
    assert!(st.contains("last heartbeat 2."), "age of latest renewal:\n{st}");
    // Records that predate the ts_ms field degrade to `?`, not 1970.
    assert!(st.contains("up ?") && st.contains("last heartbeat ? ago"), "{st}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&spec).ok();
}

/// Chaos injection is process-global too; the one obs test that arms
/// it already holds `OBS_LOCK`, and this guard disarms on drop so a
/// failing assertion cannot leak faults into the next test.
struct Armed;

impl Armed {
    fn arm(spec: ChaosSpec) -> Armed {
        chaos::arm(spec);
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        chaos::disarm();
    }
}

#[test]
fn a_failing_trial_still_leaves_its_telemetry_on_disk() {
    let _guard = OBS_LOCK.lock().unwrap();

    // One cell, two repeats, every `trials.append` faulting
    // persistently: the retry budget exhausts, both trials
    // quarantine, and the run fails.
    let mut s = Scenario::new("obs-poison", SystemKind::GridWorld, Scale::Smoke);
    s.fault.bers = vec![0.1];
    s.fault.inject_episodes = vec![40];
    s.train.total_episodes = Some(60);
    s.repeats = Some(2);

    let dir = temp_dir("poison");
    let err = {
        let _armed = Armed::arm(ChaosSpec {
            seed: 7,
            tag: Some("trials.append".into()),
            persist: true,
            ..ChaosSpec::default()
        });
        runner::run(&s, &dir, &RunnerConfig { threads: 1, obs: true, ..RunnerConfig::default() })
            .expect_err("exhausted retries must fail the run")
    };
    assert!(err.contains("quarantined"), "{err}");

    // The worker gave up on both trials, but the telemetry that
    // describes the failure must already be on disk: the error paths
    // flush before quarantining, and the recorder drains on unwind.
    let p = profile::load_dir(&dir, profile::CheckMode::Strict)
        .expect("a failing run's stream still parses strictly");
    assert_eq!(p.workers.len(), 1);
    let w = &p.workers[0];
    assert_eq!(w.trials(), 2, "both poisoned trials record their spans");
    assert!(w.spans.contains_key("train") && w.spans.contains_key("eval"));
    assert_eq!(w.counters["trial.quarantined"], 2, "{:?}", w.counters);
    assert!(w.counters.keys().any(|k| k.starts_with("chaos.inject.")), "{:?}", w.counters);
    assert!(w.counters.keys().any(|k| k.starts_with("io.retry")), "{:?}", w.counters);

    std::fs::remove_dir_all(&dir).ok();
}

/// The committed v1 stream: what a pre-causal-schema worker wrote.
fn v1_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/obs_v1_fixture.jsonl")
}

#[test]
fn v1_fixture_mixes_with_a_v2_run_in_profile_trace_and_top() {
    let _guard = OBS_LOCK.lock().unwrap();
    let dir = temp_dir("v1mix");
    runner::run(
        &scenario("v1mix"),
        &dir,
        &RunnerConfig { threads: 1, obs: true, ..RunnerConfig::default() },
    )
    .expect("obs run");
    std::fs::copy(v1_fixture(), dir.join(profile::OBS_DIR).join("worker-v1.jsonl"))
        .expect("install fixture");
    let dir_s = dir.to_str().expect("utf8");

    // profile: both streams fold under strict validation — the
    // campaign's 12 v2 trials plus the fixture's one, nothing
    // skipped, no version warnings.
    let p = profile::load_dir(&dir, profile::CheckMode::Strict).expect("strict mixed load");
    assert_eq!(p.workers.len(), 2);
    assert_eq!(p.trials(), 13);
    assert_eq!(p.skipped_lines, 0);
    let v1 = p.workers.iter().find(|w| w.worker == "v1").expect("fixture worker row");
    assert_eq!(v1.trials(), 1);
    assert_eq!(v1.counters["nn.dispatch.reference"], 40);
    assert!(p.hist_totals()["nn.batch_size"][4] >= 8, "fixture hist folds into the totals");
    let (ok, out, err) = run_cli(&["profile", dir_s, "--check"]);
    assert!(ok, "{out}\n{err}");
    assert!(out.contains("2 stream(s)"), "{out}");
    assert!(err.is_empty(), "mixed versions must not warn:\n{err}");

    // trace: the mixed directory exports cleanly; the fixture's spans
    // place via the wall-clock fallback and keep their own process
    // track.
    let t = trace::export(&dir, &trace::TraceOptions::default()).expect("mixed trace");
    assert_eq!((t.skipped_lines, t.torn_tails), (0, 0));
    let doc = fmt::json::parse(&t.json).expect("trace JSON parses");
    let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
    let pids: std::collections::BTreeSet<i64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .filter_map(|e| e.get("pid").and_then(Value::as_int))
        .collect();
    assert_eq!(pids.len(), 2, "span tracks from both workers: {pids:?}");

    // top: the dashboard folds both streams — the fixture worker gets
    // a row and the finished campaign reads complete.
    let mut state = top::TopState::new(&dir).expect("top state");
    let frame = state.tick().expect("tick");
    assert!(frame.contains("v1"), "{frame}");
    assert!(frame.contains("campaign complete"), "{frame}");
    let (ok, out, err) = run_cli(&["top", dir_s, "--once"]);
    assert!(ok, "{out}\n{err}");
    assert!(out.contains("campaign complete"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_reconstructs_the_trial_tree_and_perf_gates_a_regression() {
    let _guard = OBS_LOCK.lock().unwrap();
    let dir = temp_dir("tree");
    runner::run(
        &scenario("tree"),
        &dir,
        &RunnerConfig { threads: 1, obs: true, ..RunnerConfig::default() },
    )
    .expect("obs run");
    let dir_s = dir.to_str().expect("utf8");

    // The exported tree matches the instrumented call structure:
    // every train/eval span hangs off a trial span, every prefix span
    // off a train span, trial spans carry their trial index, and the
    // per-trial commit's io timer is attributed to its trial.
    let t = trace::export(&dir, &trace::TraceOptions::default()).expect("trace");
    let doc = fmt::json::parse(&t.json).expect("valid trace JSON");
    let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
    let arg = |e: &Value, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Value::as_int);
    let spans: Vec<&Value> =
        events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("X")).collect();
    fn name_of(e: &Value) -> &str {
        e.get("name").and_then(Value::as_str).unwrap_or("")
    }
    let trial_ids: std::collections::BTreeSet<i64> =
        spans.iter().filter(|e| name_of(e) == "trial").filter_map(|e| arg(e, "id")).collect();
    assert_eq!(trial_ids.len(), 12, "one trial span per trial");
    let train_ids: std::collections::BTreeSet<i64> =
        spans.iter().filter(|e| name_of(e) == "train").filter_map(|e| arg(e, "id")).collect();
    assert_eq!(train_ids.len(), 12, "one train span per trial");
    for span in &spans {
        match name_of(span) {
            "trial" => assert!(arg(span, "trial").is_some(), "trial spans carry their index"),
            "train" | "eval" => {
                let parent = arg(span, "parent").expect("phase spans link to a parent");
                assert!(trial_ids.contains(&parent), "train/eval must hang off a trial span");
            }
            "prefix" => {
                let parent = arg(span, "parent").expect("prefix spans link to a parent");
                assert!(train_ids.contains(&parent), "prefix must nest under a train span");
            }
            other => panic!("unexpected span {other:?} in a plain grid campaign"),
        }
    }
    assert!(
        spans.iter().any(|e| name_of(e) == "trial" && arg(e, "timer.io.us").is_some()),
        "commit io timers must be attributed to their trial span"
    );

    // One prefix lookup per trial, shown as counter tracks and in the
    // profile: the first trial trains the campaign's one fault-free
    // prefix (to the injection episode, 100), the other 11 fork from
    // it.
    let counter_total = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C") && name_of(e) == name)
            .filter_map(|e| e.get("args").and_then(|a| a.get("value")).and_then(Value::as_int))
            .max()
    };
    assert_eq!(counter_total("prefix.miss"), Some(1));
    assert_eq!(counter_total("prefix.hit"), Some(11));
    let p = profile::load_dir(&dir, profile::CheckMode::Strict).expect("strict load");
    let w = &p.workers[0];
    assert_eq!(w.spans["prefix"].0, 12, "every trial looks its prefix up");
    assert!(w.spans["train"].1 >= w.spans["prefix"].1, "train spans cover the prefix spans");
    let report = profile::render_report(&p, Some(0));
    assert!(report.contains("prefix s") && report.contains("prefix.hit"), "{report}");

    // The CLI writes the same document and points at Perfetto; a
    // `--trial` filter keeps exactly one trial's subtree.
    let out_path = dir.join("trace.json");
    let out_s = out_path.to_str().expect("utf8");
    let (ok, out, err) = run_cli(&["trace", dir_s, "--out", out_s]);
    assert!(ok, "{out}\n{err}");
    assert!(out.contains("ui.perfetto.dev"), "{out}");
    assert_eq!(std::fs::read_to_string(&out_path).expect("trace file"), t.json);
    let (ok, filtered, err) = run_cli(&["trace", dir_s, "--trial", "0"]);
    assert!(ok, "{err}");
    let doc = fmt::json::parse(&filtered).expect("filtered trace parses");
    let kept: Vec<&str> = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents")
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(kept.len(), 4, "trial 0's subtree is trial+train+prefix+eval: {kept:?}");

    // perf: the run gates cleanly against its own measurement, and a
    // doctored baseline (10× the throughput) fails the gate with a
    // nonzero exit — the regression ledger's CI contract.
    let base_path = dir.join("base.json");
    let base_s = base_path.to_str().expect("utf8");
    let (ok, out, err) = run_cli(&["perf", dir_s, "--out", base_s]);
    assert!(ok, "{out}\n{err}");
    let (ok, out, err) = run_cli(&["perf", dir_s, "--baseline", base_s, "--gate", "50"]);
    assert!(ok, "{out}\n{err}");
    assert!(out.contains("perf gate ok"), "{out}");
    let mut doctored = perf::measure(&dir, "per-obs").expect("measure");
    doctored.trials_per_s *= 10.0;
    let doctored_path = dir.join("doctored.json");
    std::fs::write(&doctored_path, fmt::json::render(&doctored.to_value())).expect("write");
    let (ok, out, err) =
        run_cli(&["perf", dir_s, "--baseline", doctored_path.to_str().expect("utf8")]);
    assert!(!ok, "a 10× faster baseline must fail the gate:\n{out}");
    assert!(err.contains("perf gate FAILED"), "{err}");
    assert!(err.contains("trials/s regressed"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}
