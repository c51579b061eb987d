//! Golden equivalence for the task-DAG study campaigns.
//!
//! The train-once / eval-many builtins (`fig4`, `fig8a`, `fig8b`,
//! `datatypes`, `layers`) expand into a task DAG — train tasks publish
//! weight artifacts, eval tasks load them — and the bar is the same
//! one every other campaign has pinned: the completed `summary.txt`
//! must be **byte-identical** to the sequential figure driver's table,
//! across thread counts, interrupt/resume, artifact corruption,
//! batched vs per-observation evaluation, and shared-mode
//! coordination, while every model trains exactly once per campaign
//! directory (asserted from the append-only `artifacts.jsonl`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use frlfi::experiments::study::StudyKind;
use frlfi::Scale;
use frlfi_campaign::{artifacts, profile, registry, runner, CoordConfig, CoordMode, RunnerConfig};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "frlfi-study-dag-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The sequential reference: the study's rendered table, as the
/// sequential `StudyGeometry::run` computes it at smoke scale.
fn driver_table(kind: StudyKind) -> String {
    kind.geometry(Scale::Smoke)
        .expect("study geometry")
        .run()
        .expect("sequential driver run")
        .render()
}

fn summary(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("summary.txt"))
        .unwrap_or_else(|e| panic!("summary.txt in {}: {e}", dir.display()))
}

/// Model ids from `artifacts.jsonl`, in publication order.
fn trained_models(dir: &Path) -> Vec<usize> {
    artifacts::load_records(dir).expect("artifacts.jsonl").iter().map(|r| r.model).collect()
}

fn assert_trained_exactly_once(dir: &Path, n_models: usize, what: &str) {
    let mut trained = trained_models(dir);
    trained.sort_unstable();
    assert_eq!(
        trained,
        (0..n_models).collect::<Vec<_>>(),
        "{what}: every model must train exactly once"
    );
}

#[test]
fn grid_study_builtins_match_their_sequential_drivers_byte_for_byte() {
    for (name, kind, n_models) in [
        ("fig4", StudyKind::Fig4, 2),
        ("fig8a", StudyKind::Fig8Grid, 1),
        ("datatypes", StudyKind::Datatypes, 1),
        ("layers", StudyKind::Layers, 1),
    ] {
        let reference = driver_table(kind);
        let scenario = registry::builtin(name, Scale::Smoke).expect(name);
        let dir = temp_dir(name);
        let out = runner::run(&scenario, &dir, &RunnerConfig { threads: 2, ..Default::default() })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.complete(), "{name}: campaign incomplete");
        assert_eq!(
            out.table.as_ref().expect("complete table").render(),
            reference,
            "{name}: rendered statistics diverged from the sequential driver"
        );
        assert_eq!(
            summary(&dir),
            reference,
            "{name}: summary.txt diverged from the sequential driver"
        );
        assert_trained_exactly_once(&dir, n_models, name);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn fig8b_drone_study_matches_its_sequential_driver_byte_for_byte() {
    let reference = driver_table(StudyKind::Fig8Drone);
    let scenario = registry::builtin("fig8b", Scale::Smoke).expect("fig8b");
    let dir = temp_dir("fig8b");
    let out = runner::run(&scenario, &dir, &RunnerConfig { threads: 2, ..Default::default() })
        .expect("fig8b campaign");
    assert!(out.complete());
    assert_eq!(summary(&dir), reference, "fig8b summary diverged from the sequential driver");
    assert_trained_exactly_once(&dir, 1, "fig8b");
    std::fs::remove_dir_all(&dir).ok();
}

/// The committed goldens CI diffs `campaign run <name> --scale smoke`
/// against. They were rendered on the sequential evaluators the
/// lock-step ones replaced, so they pin the study results
/// independently of the `eval_cell` path that the campaign and the
/// sequential driver share. `layers` reads 100.0 in every cell at
/// smoke, so it has none. If a deliberate change moves these numbers,
/// regenerate `tests/data/<name>_smoke_summary.txt` and say so in its
/// change log entry.
#[test]
fn committed_study_goldens_match_the_sequential_driver() {
    for (name, kind) in [
        ("fig4", StudyKind::Fig4),
        ("fig8a", StudyKind::Fig8Grid),
        ("fig8b", StudyKind::Fig8Drone),
        ("datatypes", StudyKind::Datatypes),
    ] {
        let path =
            format!("{}/../../tests/data/{name}_smoke_summary.txt", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("committed golden {path}: {e}"));
        assert_eq!(
            driver_table(kind),
            committed,
            "{path} is stale — regenerate it if the change is intended"
        );
    }
}

#[test]
fn interrupted_study_resumes_across_modes_and_a_torn_artifact_to_identical_bytes() {
    let reference = driver_table(StudyKind::Fig4);
    let scenario = registry::builtin("fig4", Scale::Smoke).expect("fig4");
    let total = scenario.expand().expect("expand").total_trials();
    let dir = temp_dir("fig4-resume");

    // Leg 1, per-observation: a trial budget interrupts the campaign
    // after three eval trials — but both train tasks run up front, so
    // the artifacts have already landed.
    let leg1 = runner::run(
        &scenario,
        &dir,
        &RunnerConfig { threads: 1, max_new_trials: Some(3), ..Default::default() },
    )
    .expect("interrupted leg");
    assert!(!leg1.complete(), "the trial budget must interrupt the campaign");
    assert_eq!(leg1.new_trials, 3);
    assert_trained_exactly_once(&dir, 2, "interrupted leg");
    let digests_before = artifacts::load_records(&dir).expect("records");

    // Tear an artifact between legs — the simulated kill-mid-publish.
    // The resume's digest check must reject it and retrain, not crash
    // and not silently evaluate a corrupt model.
    std::fs::write(artifacts::model_path(&dir, 0), b"torn mid-write").expect("corrupt artifact");

    // Leg 2, batched: evaluation modes mix freely across resume
    // sessions, and the final bytes must not care about any of it.
    let leg2 = runner::run(
        &scenario,
        &dir,
        &RunnerConfig { threads: 2, batched: true, ..Default::default() },
    )
    .expect("resume leg");
    assert!(leg2.complete());
    assert_eq!(leg2.new_trials, total - 3, "resume must skip the persisted trials");
    assert_eq!(
        summary(&dir),
        reference,
        "interrupt + mode switch + torn artifact must not change a byte"
    );

    // The retrain republished model 0; deterministic training means
    // the fresh record carries the original digest.
    let records = artifacts::load_records(&dir).expect("records");
    assert!(records.len() > 2, "the torn artifact must have been republished: {records:?}");
    for r in &records {
        let original = digests_before.iter().find(|o| o.model == r.model).expect("model");
        assert_eq!(r.digest, original.digest, "retraining model {} must be bitwise", r.model);
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shared_workers_train_each_model_exactly_once_and_match_the_driver() {
    let reference = driver_table(StudyKind::Fig4);
    let scenario = registry::builtin("fig4", Scale::Smoke).expect("fig4");
    let dir = temp_dir("fig4-shared");
    let cfg = RunnerConfig {
        threads: 2,
        coord: CoordMode::Shared(CoordConfig {
            worker_id: "study-w".into(),
            lease_ms: 60_000,
            poll_ms: 20,
        }),
        ..Default::default()
    };
    let out = runner::run(&scenario, &dir, &cfg).expect("shared study run");
    assert!(out.complete());
    assert_eq!(summary(&dir), reference, "shared-mode study summary diverged from the driver");
    // Train tasks are claim-gated: two eval threads racing through the
    // claims log must still train each model exactly once.
    assert_trained_exactly_once(&dir, 2, "shared run");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every train task runs under one `train_task` span, in shared mode as
/// in exclusive mode. The run goes through the CLI in a process of its
/// own: the obs recorder is process-global, and the other tests here
/// run concurrently in this one.
#[test]
fn shared_study_run_records_one_train_task_span_per_model() {
    let dir = temp_dir("fig4-shared-obs");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["run", "fig4", "--scale", "smoke", "--out"])
        .arg(&dir)
        .args(["--shared", "--threads", "2", "--worker-id", "study-obs", "--obs"])
        .output()
        .expect("spawn the campaign CLI");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(summary(&dir), driver_table(StudyKind::Fig4));

    let p = profile::load_dir(&dir, profile::CheckMode::Strict).expect("strict profile");
    let train_tasks: u64 =
        p.workers.iter().map(|w| w.spans.get("train_task").map_or(0, |s| s.0)).sum();
    assert_eq!(train_tasks, 2, "fig4 has two models, so two train tasks");
    std::fs::remove_dir_all(&dir).ok();
}
