//! The chaos torture harness: deterministic infrastructure fault
//! injection against the campaign stack's own persistence.
//!
//! The bar is the same bitwise-determinism bar every PR has pinned:
//! for **every** I/O operation of a small campaign, in exclusive and
//! in shared mode, a
//! fault injected at exactly that operation must leave the completed
//! `summary.txt` byte-identical to the fault-free run (transient
//! faults are retried and recovered); a *persistent* fault must
//! degrade gracefully — deterministic quarantine, explicitly marked
//! degraded summary, nonzero exit unless `--allow-partial` — and a
//! later healthy run must reclaim the quarantined trials and restore
//! the byte-identical summary.
//!
//! Chaos state is process-global, so every test here serializes on
//! one lock and disarms via an RAII guard.
//!
//! `CHAOS_SWEEP_QUICK=1` (CI) sweeps a subset of injection points;
//! `CHAOS_SWEEP_STRIDE=N` picks the stride explicitly.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use frlfi::Scale;
use frlfi_campaign::io::chaos::{self, ChaosSpec};
use frlfi_campaign::quarantine::QuarantineKind;
use frlfi_campaign::{
    profile, quarantine, registry, runner, CoordConfig, CoordMode, RunnerConfig, Scenario,
    SystemKind,
};

/// Chaos state is process-global; tests that arm it must not overlap.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Disarms on drop, so a failing assertion cannot leak an armed
/// injector into the next test.
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

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "frlfi-chaos-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The smallest campaign that still exercises every I/O path: one
/// cell, two repeats, shared-mode coordination.
fn scenario() -> Scenario {
    let mut s = Scenario::new("chaos", SystemKind::GridWorld, Scale::Smoke);
    s.fault.bers = vec![0.1];
    s.fault.inject_episodes = vec![40];
    s.train.total_episodes = Some(60);
    s.repeats = Some(2);
    s
}

fn shared_cfg_lease(lease_ms: u64) -> RunnerConfig {
    RunnerConfig {
        threads: 1,
        coord: CoordMode::Shared(CoordConfig { worker_id: "cw".into(), lease_ms, poll_ms: 20 }),
        ..RunnerConfig::default()
    }
}

/// Long lease + snappy poll: the heartbeat stays quiet for the
/// sub-second runs here, keeping the operation sequence deterministic
/// across sweep iterations.
fn shared_cfg() -> RunnerConfig {
    shared_cfg_lease(60_000)
}

/// Both claim sources: exclusive mode (in-memory cursor, strict trial
/// log — a retried append truncates back to the committed length) and
/// shared mode with a `lease_ms` lease (claim log, lenient trial log).
fn modes(lease_ms: u64) -> [(&'static str, RunnerConfig); 2] {
    [
        ("exclusive", RunnerConfig { threads: 1, ..RunnerConfig::default() }),
        ("shared", shared_cfg_lease(lease_ms)),
    ]
}

fn summary(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("summary.txt"))
        .unwrap_or_else(|e| panic!("summary.txt in {}: {e}", dir.display()))
}

/// Fault-free single-thread exclusive reference — the bytes every
/// chaos configuration must converge back to.
fn reference_summary() -> String {
    let dir = temp_dir("ref");
    let out =
        runner::run(&scenario(), &dir, &RunnerConfig { threads: 1, ..RunnerConfig::default() })
            .expect("reference run");
    assert!(out.complete());
    let text = summary(&dir);
    std::fs::remove_dir_all(&dir).ok();
    text
}

#[test]
fn every_swept_injection_point_preserves_summary_bytes() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reference = reference_summary();

    for (mode, cfg) in modes(60_000) {
        // Pass 1 — count the fault-free run's operations: a rate=0 spec
        // injects nothing but numbers every instrumented operation.
        let ops = {
            let _armed = Armed::arm(ChaosSpec { seed: 0, ..ChaosSpec::default() });
            let dir = temp_dir("count");
            let out = runner::run(&scenario(), &dir, &cfg).expect("count run");
            assert!(out.complete());
            assert_eq!(summary(&dir), reference, "{mode}: rate=0 chaos must be inert");
            std::fs::remove_dir_all(&dir).ok();
            let ops = chaos::ops();
            assert_eq!(chaos::injected(), 0);
            ops
        };
        // A shared run adds the claim log's appends and reads.
        let floor = if mode == "shared" { 20 } else { 12 };
        assert!(
            ops > floor,
            "a {mode} 2-trial campaign performs over {floor} instrumented I/O operations, \
             counted {ops} — did the shim get bypassed?"
        );

        // Pass 2 — sweep the injection point across every operation
        // index. Each injected fault is transient (a latency spike, or
        // an error the retry policy recovers), so every run must
        // complete with the identical summary. CI sets
        // CHAOS_SWEEP_QUICK=1 to sample the space; the full sweep is
        // the default.
        let stride: u64 = match std::env::var("CHAOS_SWEEP_STRIDE") {
            Ok(v) => v.parse().expect("CHAOS_SWEEP_STRIDE"),
            Err(_) if std::env::var("CHAOS_SWEEP_QUICK").is_ok_and(|v| v == "1") => {
                (ops / 12).max(1)
            }
            Err(_) => 1,
        };
        let mut swept = 0u64;
        for k in (0..ops).step_by(stride as usize) {
            let _armed =
                Armed::arm(ChaosSpec { seed: k ^ 0xC4A05, op: Some(k), ..ChaosSpec::default() });
            let dir = temp_dir("sweep");
            let out = runner::run(&scenario(), &dir, &cfg)
                .unwrap_or_else(|e| panic!("{mode}: run with fault at op {k} must recover: {e}"));
            assert!(out.complete(), "{mode}: fault at op {k} left the campaign incomplete");
            assert!(out.quarantined.is_empty(), "a single transient fault must never quarantine");
            assert_eq!(
                summary(&dir),
                reference,
                "{mode}: summary.txt diverged with a fault injected at op {k}"
            );
            std::fs::remove_dir_all(&dir).ok();
            swept += 1;
        }
        println!("{mode}: swept {swept} of {ops} injection points (stride {stride})");
    }
}

#[test]
fn persistent_fault_quarantines_deterministically_and_a_healthy_resume_recovers() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reference = reference_summary();

    // A persistently failing trial log: every `trials.append`
    // operation faults, retries included — the retry budget exhausts
    // and both trials must be quarantined.
    let poison = || ChaosSpec {
        seed: 7,
        tag: Some("trials.append".into()),
        persist: true,
        ..ChaosSpec::default()
    };
    // A short lease, so the shared healthy resume below reaps the
    // poisoned run's abandoned claims instead of waiting them out.
    for (mode, cfg) in modes(300) {
        let run_poisoned = |dir: &Path, allow_partial: bool| {
            let _armed = Armed::arm(poison());
            runner::run(&scenario(), dir, &RunnerConfig { allow_partial, ..cfg.clone() })
        };

        let dir_a = temp_dir("poison-a");
        let err = run_poisoned(&dir_a, false).expect_err("exhausted retries must fail the run");
        assert!(err.contains("quarantined"), "{mode}: {err}");
        assert!(err.contains("--allow-partial"), "{mode}: {err}");
        let records = quarantine::load(&dir_a).expect("quarantine log");
        assert_eq!(records.len(), 2, "{mode}: both trials must be quarantined: {records:?}");
        assert!(records[0].error.contains("chaos"), "{mode}: {}", records[0].error);
        let degraded = summary(&dir_a);
        assert!(degraded.contains("DEGRADED"), "{degraded}");
        assert!(degraded.contains("0/2 trials completed"), "{degraded}");
        assert!(degraded.contains("(0, 0)") && degraded.contains("(0, 1)"), "{degraded}");

        // Deterministic degradation: the same fault in a fresh
        // directory produces a byte-identical degraded summary.
        let dir_b = temp_dir("poison-b");
        run_poisoned(&dir_b, false).expect_err("same fault, same failure");
        assert_eq!(summary(&dir_b), degraded, "{mode}: degraded summaries must be deterministic");

        // --allow-partial accepts the same degraded outcome as success;
        // quarantined trials are not counted as new.
        let dir_c = temp_dir("poison-c");
        let out = run_poisoned(&dir_c, true).expect("--allow-partial accepts a degraded outcome");
        assert_eq!(out.quarantined, vec![0, 1]);
        assert_eq!(out.new_trials, 0, "{mode}: nothing was committed");
        assert!(!out.complete());
        assert_eq!(summary(&dir_c), degraded);

        // Graceful degradation is not the end state: a healthy run over
        // the same directory reclaims the quarantined trials
        // (bitwise-identically) and replaces the degraded summary with
        // the real one.
        let healed = runner::run(&scenario(), &dir_a, &cfg).expect("healthy resume");
        assert!(healed.complete());
        assert_eq!(healed.new_trials, 2, "{mode}: both quarantined trials re-run");
        assert_eq!(
            summary(&dir_a),
            reference,
            "{mode}: recovery must restore the byte-identical summary"
        );

        for dir in [dir_a, dir_b, dir_c] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn a_persistent_sync_fault_fails_the_exclusive_run_and_a_healthy_resume_recovers() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reference = reference_summary();

    // Every sync of the strict trial log faults, retries included. The
    // appends land, so the trials are not quarantined: the run fails
    // on the sync and publishes no summary over an unsynced log.
    let cfg = RunnerConfig { threads: 1, ..RunnerConfig::default() };
    let dir = temp_dir("sync-poison");
    let err = {
        let _armed = Armed::arm(ChaosSpec {
            seed: 13,
            tag: Some("trials.sync".into()),
            persist: true,
            ..ChaosSpec::default()
        });
        runner::run(&scenario(), &dir, &cfg).expect_err("a sync whose retries run out fails")
    };
    assert!(err.contains("sync trial log"), "the error must name the sync: {err}");
    assert!(err.contains("chaos"), "{err}");
    assert!(quarantine::load(&dir).expect("quarantine log").is_empty(), "nothing quarantined");
    assert!(!dir.join("summary.txt").exists(), "no summary may be published");

    // The written records stay in the log: a healthy resume keeps them,
    // syncs them, runs whatever the failed call never reached and
    // publishes the reference bytes.
    let healed = runner::resume(&dir, &cfg).expect("healthy resume");
    assert!(healed.complete());
    assert!(healed.new_trials <= 1, "the failed run's first record must survive");
    assert_eq!(summary(&dir), reference, "recovery must restore the byte-identical summary");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_faults_recover_via_retry_and_surface_in_the_profile() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reference = reference_summary();

    // Every third `trials.append` operation faults: each commit's
    // first write attempt fails and its retry lands — the
    // transient-then-recover shape — while the obs recorder is on so
    // the retry counters reach the profile.
    let dir = temp_dir("retry");
    {
        let _armed = Armed::arm(ChaosSpec {
            seed: 11,
            tag: Some("trials.append".into()),
            every: 3,
            ..ChaosSpec::default()
        });
        let out = runner::run(&scenario(), &dir, &RunnerConfig { obs: true, ..shared_cfg() })
            .expect("retries must absorb periodic transients");
        assert!(out.complete());
        assert!(out.quarantined.is_empty());
        assert!(chaos::injected() > 0, "the periodic fault must actually have fired");
    }
    assert_eq!(summary(&dir), reference, "retried commits must not change a byte");

    // `campaign profile` surfaces what the run endured: injected
    // faults and recovered retries, counted per worker.
    let p = profile::load_dir(&dir, profile::CheckMode::Lenient).expect("profile");
    let count = |name: &str| -> u64 {
        p.workers.iter().map(|w| w.counters.get(name).copied().unwrap_or(0)).sum()
    };
    assert!(count("io.retry") > 0, "io.retry must surface in the profile");
    assert!(count("io.retry.recovered") > 0, "recoveries must surface in the profile");
    assert_eq!(count("io.retry.exhausted"), 0, "nothing should have exhausted");
    assert!(
        count("chaos.inject.eio")
            + count("chaos.inject.short_write")
            + count("chaos.inject.fsync")
            + count("chaos.inject.latency")
            > 0,
        "injections must be counted"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The task-DAG artifact path under chaos: `fig4` is the smallest
/// builtin study (two train tasks publishing weight artifacts, thirty
/// artifact-gated eval trials).
fn study_scenario() -> Scenario {
    registry::builtin("fig4", Scale::Smoke).expect("fig4 builtin")
}

/// Fault-free single-thread reference for the study campaign.
fn study_reference() -> String {
    let dir = temp_dir("study-ref");
    let out = runner::run(
        &study_scenario(),
        &dir,
        &RunnerConfig { threads: 1, ..RunnerConfig::default() },
    )
    .expect("reference study run");
    assert!(out.complete());
    let text = summary(&dir);
    std::fs::remove_dir_all(&dir).ok();
    text
}

/// Every chaos-instrumented operation site on the artifact publish /
/// consume path, in publish-protocol order.
const ARTIFACT_SITES: [&str; 7] = [
    "artifact.create",
    "artifact.write",
    "artifact.fsync",
    "artifact.rename",
    "artifacts.append",
    "artifacts.read",
    "artifact.read",
];

/// `CHAOS_SWEEP_QUICK=1` samples every other site, mirroring the
/// strided main sweep.
fn artifact_sites() -> Vec<&'static str> {
    let stride = if std::env::var("CHAOS_SWEEP_QUICK").is_ok_and(|v| v == "1") { 2 } else { 1 };
    ARTIFACT_SITES.iter().copied().step_by(stride).collect()
}

#[test]
fn a_transient_fault_at_every_artifact_site_recovers_byte_identically() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reference = study_reference();

    // `every = u64::MAX` faults exactly the first matching operation:
    // one transient fault per site, which the retry budget (or the
    // digest-verified retrain fallback) must absorb without moving a
    // byte of the final summary.
    for (mode, cfg) in modes(60_000) {
        for site in artifact_sites() {
            let _armed = Armed::arm(ChaosSpec {
                seed: 0x417,
                tag: Some(site.into()),
                every: u64::MAX,
                ..ChaosSpec::default()
            });
            let dir = temp_dir("art-transient");
            let out = runner::run(&study_scenario(), &dir, &cfg).unwrap_or_else(|e| {
                panic!("{mode}: transient fault at {site} must recover, got: {e}")
            });
            assert!(
                out.complete(),
                "{mode}: transient fault at {site} left the campaign incomplete"
            );
            assert!(
                out.quarantined.is_empty(),
                "{mode}: a single transient at {site} must never quarantine"
            );
            assert!(chaos::injected() > 0, "{mode}: the {site} fault never fired — tag drift?");
            assert_eq!(
                summary(&dir),
                reference,
                "{mode}: summary diverged with a transient fault at {site}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn a_persistent_fault_at_every_artifact_site_quarantines_deterministically_or_completes() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reference = study_reference();

    for site in artifact_sites() {
        let poison = || ChaosSpec {
            seed: 0x77,
            tag: Some(site.into()),
            persist: true,
            ..ChaosSpec::default()
        };
        let run_poisoned = |dir: &Path| {
            let _armed = Armed::arm(poison());
            runner::run(&study_scenario(), dir, &shared_cfg_lease(300))
        };

        let dir_a = temp_dir("art-poison-a");
        match run_poisoned(&dir_a) {
            // Consume-side sites have a pure fallback — retrain the
            // model in-process, bitwise-identically — so the campaign
            // must complete with the reference bytes despite every
            // read of the artifact failing.
            Ok(out) => {
                assert!(out.complete(), "persistent {site}: fallback run incomplete");
                assert_eq!(summary(&dir_a), reference, "persistent {site}: summary diverged");
            }
            // Publish-side sites exhaust the retry budget: the train
            // task is quarantined, which deterministically poisons
            // every dependent eval trial.
            Err(err) if err.contains("quarantined") => {
                let records = quarantine::load(&dir_a).expect("quarantine log");
                assert!(
                    records.iter().any(|r| r.kind == QuarantineKind::Train),
                    "persistent {site}: a train task must be quarantined, got {records:?}"
                );
                let degraded = summary(&dir_a);
                assert!(degraded.contains("DEGRADED"), "persistent {site}: {degraded}");
                // Same fault, fresh directory: byte-identical
                // degradation.
                let dir_b = temp_dir("art-poison-b");
                run_poisoned(&dir_b).expect_err("same fault, same failure");
                assert_eq!(
                    summary(&dir_b),
                    degraded,
                    "persistent {site}: degraded summaries must be deterministic"
                );
                std::fs::remove_dir_all(&dir_b).ok();
            }
            // Losing the publication log itself is an infrastructure
            // failure with no graceful half-state: the run reports the
            // I/O error without fabricating a summary.
            Err(err) => {
                assert!(err.contains("chaos"), "persistent {site}: unexpected error: {err}");
            }
        }

        // Whatever the degraded shape, a healthy run over the same
        // directory must converge on the reference bytes.
        let healed = runner::run(&study_scenario(), &dir_a, &shared_cfg_lease(300))
            .unwrap_or_else(|e| panic!("healthy resume after persistent {site}: {e}"));
        assert!(healed.complete(), "healthy resume after persistent {site} incomplete");
        assert_eq!(
            summary(&dir_a),
            reference,
            "healthy resume after persistent {site} must restore the byte-identical summary"
        );
        std::fs::remove_dir_all(&dir_a).ok();
    }
}
