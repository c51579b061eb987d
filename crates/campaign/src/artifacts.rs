//! Model-weight artifacts: the **train** half of the task-DAG queue.
//!
//! A study campaign (train-once / eval-many) splits its work into
//! *train tasks* — one per [`frlfi::experiments::study::StudyModel`] —
//! and *eval tasks* that only become claimable once every artifact has
//! landed. This module owns the on-disk artifact contract:
//!
//! ```text
//! <dir>/artifacts/model-<m>.bin — serialized weight planes (FRLW codec)
//! <dir>/artifacts.jsonl         — append-only publication records
//! ```
//!
//! ## Publish protocol
//!
//! [`publish`] writes the encoded planes to a worker-unique temp file
//! inside `artifacts/`, fsyncs it, and **renames** it into place — an
//! atomic publish through the chaos-aware [`crate::io`] shim (tags
//! `artifact.create` / `artifact.write` / `artifact.fsync` /
//! `artifact.rename`, whole unit retried under `artifact.publish`).
//! Only then is an [`ArtifactRecord`] appended to `artifacts.jsonl`
//! (tag `artifacts.append`), so a record implies a fully durable
//! artifact file. Readers therefore gate on the *record*, and verify
//! the file against the record's digest before trusting it.
//!
//! ## Why duplicate publishes are benign
//!
//! Training is a pure function of the study geometry (fixed model,
//! fixed seeds), so two workers racing the same train task — a reaped
//! lease, a slow trainer finishing late — produce **byte-identical**
//! artifacts. The loser's rename atomically replaces the file with
//! the same bytes, its record appends with the same digest, and
//! readers take the first record per model. "Train exactly once" is
//! the no-fault guarantee the claim log provides; under faults the
//! fallback is "train again, bitwise-identically", never "corrupt".

use std::path::{Path, PathBuf};

use frlfi::nn::{decode_weight_planes, encode_weight_planes, weight_digest};
use serde::{Map, Value};

use crate::coord::{append_jsonl_line, now_ms, FoldError, JsonlTailReader};
use crate::fmt::json;
use crate::io;

/// File name of the artifact publication log inside a campaign
/// directory.
pub(crate) const ARTIFACTS_FILE: &str = "artifacts.jsonl";

/// Directory name of the weight-artifact files inside a campaign
/// directory.
pub(crate) const ARTIFACTS_DIR: &str = "artifacts";

/// Path of model `m`'s weight artifact inside campaign directory
/// `dir`.
pub fn model_path(dir: &Path, m: usize) -> PathBuf {
    dir.join(ARTIFACTS_DIR).join(format!("model-{m}.bin"))
}

/// One publication record: which model landed, the FNV-1a digest of
/// its artifact bytes, who trained it, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactRecord {
    /// Model index into the study geometry's
    /// [`models`](frlfi::experiments::study::StudyGeometry::models).
    pub model: usize,
    /// [`weight_digest`] of the artifact file's bytes — what readers
    /// verify before trusting the file.
    pub digest: u64,
    /// Worker that trained and published the model.
    pub(crate) worker: String,
    /// Publication time (ms since the Unix epoch). Informational.
    pub(crate) ts_ms: u64,
}

impl ArtifactRecord {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("model".into(), Value::Int(self.model as i64));
        // u64 digests round-trip through JSON i64 bit-exactly, the
        // same convention trial-record seeds use.
        m.insert("digest".into(), Value::Int(self.digest as i64));
        m.insert("worker".into(), Value::Str(self.worker.clone()));
        m.insert("ts_ms".into(), Value::Int(self.ts_ms as i64));
        Value::Table(m)
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let get_int = |k: &str| {
            v.get(k)
                .and_then(Value::as_int)
                .ok_or_else(|| format!("artifact record missing integer `{k}`"))
        };
        let model = get_int("model")?;
        if model < 0 {
            return Err(format!("artifact record `model` must be ≥ 0, got {model}"));
        }
        let worker = match v.get("worker") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("artifact record missing string `worker`".into()),
        };
        Ok(ArtifactRecord {
            model: model as usize,
            digest: get_int("digest")? as u64,
            worker,
            ts_ms: get_int("ts_ms")? as u64,
        })
    }
}

/// Atomically publishes model `m`'s trained weight planes into
/// campaign directory `dir` and records the publication: encode →
/// temp file → write → fsync → rename → append + fsync the record.
/// Returns the digest recorded (and verified by every reader).
///
/// # Errors
///
/// Returns a message once the [`crate::io`] retry budget is spent on
/// any step — the caller's cue to quarantine the train task (which
/// deterministically poisons its dependent eval tasks).
pub fn publish(dir: &Path, model: usize, planes: &[Vec<f32>], worker: &str) -> Result<u64, String> {
    let bytes = encode_weight_planes(planes);
    let digest = weight_digest(&bytes);
    let final_path = model_path(dir, model);
    let tmp_path = dir.join(ARTIFACTS_DIR).join(format!(".model-{model}.tmp-{}", worker));
    io::with_retry("artifact.publish", || {
        // The whole unit is idempotent: a retry recreates the temp
        // file from scratch, and rename atomically replaces whatever
        // landed before (byte-identical by purity of training).
        io::create_dir_all("artifact.create", &dir.join(ARTIFACTS_DIR))?;
        let mut file = io::create_trunc("artifact.create", &tmp_path)?;
        io::write_all("artifact.write", &mut file, &bytes)?;
        io::sync_all("artifact.fsync", &file)?;
        io::rename("artifact.rename", &tmp_path, &final_path)
    })
    .map_err(|e| format!("publish {}: {e}", final_path.display()))?;
    let record = ArtifactRecord { model, digest, worker: worker.to_owned(), ts_ms: now_ms() };
    let line = json::render(&record.to_value());
    let log_path = dir.join(ARTIFACTS_FILE);
    io::with_retry("artifacts.append", || {
        let mut file = io::open_append("artifacts.append", &log_path)?;
        append_jsonl_line("artifacts.append", &mut file, &line)
    })
    .map_err(|e| format!("append {}: {e}", log_path.display()))?;
    Ok(digest)
}

/// What skipping a bad artifact-log line costs.
const ARTIFACT_SKIP: &str =
    "a lost artifact record only costs retraining its model, which republishes identical weights";

/// Loads every parseable artifact record (lenient, like every shared
/// log: torn or healed garbage lines are skipped with a warning).
/// Missing file means nothing published yet.
///
/// # Errors
///
/// Returns a message only for I/O failures.
pub fn load_records(dir: &Path) -> Result<Vec<ArtifactRecord>, String> {
    let mut records = Vec::new();
    let mut tail = JsonlTailReader::new(dir.join(ARTIFACTS_FILE), "artifacts.read");
    tail.refresh(ARTIFACT_SKIP, |v| {
        records.push(ArtifactRecord::from_value(&v?)?);
        Ok(())
    })?;
    Ok(records)
}

/// An incrementally folded view of the publication log: which of a
/// study's models have landed, and with which digest. The first
/// record per model wins (later duplicates are byte-identical by
/// purity of training — see the module docs).
pub struct ArtifactTracker {
    tail: JsonlTailReader,
    published: Vec<Option<u64>>,
}

impl ArtifactTracker {
    /// A tracker over campaign directory `dir` for a study with
    /// `n_models` models.
    pub fn new(dir: &Path, n_models: usize) -> Self {
        ArtifactTracker {
            tail: JsonlTailReader::new(dir.join(ARTIFACTS_FILE), "artifacts.read"),
            published: vec![None; n_models],
        }
    }

    /// Folds every record appended since the last refresh. Records
    /// naming a model outside the study are skipped with a warning
    /// (advisory log, same policy as claims).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failures.
    pub fn refresh(&mut self) -> Result<(), String> {
        let published = &mut self.published;
        self.tail.refresh(ARTIFACT_SKIP, |v| {
            let r = ArtifactRecord::from_value(&v?)?;
            match published.get_mut(r.model) {
                None => Err(FoldError::Skip(format!(
                    "artifact record names model {} outside the study's {} model(s)",
                    r.model,
                    published.len()
                ))),
                Some(slot) => {
                    slot.get_or_insert(r.digest);
                    Ok(())
                }
            }
        })?;
        Ok(())
    }

    /// The recorded digest of model `m`, if published.
    pub fn digest(&self, m: usize) -> Option<u64> {
        self.published.get(m).copied().flatten()
    }

    /// Model indices still missing a publication record — the
    /// unsatisfied dependencies blocking every eval task.
    pub(crate) fn missing(&self) -> Vec<usize> {
        (0..self.published.len()).filter(|&m| self.published[m].is_none()).collect()
    }
}

/// Loads and verifies model `m`'s weight artifact: reads the file,
/// checks its bytes against `expect_digest` (from the publication
/// record), and decodes the planes.
///
/// # Errors
///
/// Returns a message on I/O failure, digest mismatch (a torn or
/// foreign file — the record, not the file, is the source of truth),
/// or codec corruption. Callers fall back to retraining in-process,
/// which is bitwise-identical by purity.
pub fn load_planes(dir: &Path, m: usize, expect_digest: u64) -> Result<Vec<Vec<f32>>, String> {
    let path = model_path(dir, m);
    let bytes = io::with_retry("artifact.read", || {
        let mut file = io::open_read("artifact.read", &path)?;
        let mut buf = Vec::new();
        io::read_to_end("artifact.read", &mut file, &mut buf)?;
        Ok(buf)
    })
    .map_err(|e| format!("read {}: {e}", path.display()))?;
    let digest = weight_digest(&bytes);
    if digest != expect_digest {
        return Err(format!(
            "{}: digest {digest:#018x} does not match the published record {expect_digest:#018x} \
             (torn or stale artifact file)",
            path.display()
        ));
    }
    decode_weight_planes(&bytes).map_err(|e| format!("decode {}: {e}", path.display()))
}

#[cfg(test)]
impl ArtifactTracker {
    /// Log bytes consumed so far.
    pub(crate) fn consumed(&self) -> u64 {
        self.tail.offset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "frlfi-artifacts-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn planes(salt: f32) -> Vec<Vec<f32>> {
        vec![vec![1.5 + salt, -2.25, 0.0], vec![salt; 5]]
    }

    #[test]
    fn publish_then_load_round_trips_bitwise() {
        let dir = temp_dir("roundtrip");
        let digest = publish(&dir, 0, &planes(0.5), "w1").expect("publish");
        let records = load_records(&dir).expect("records");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].model, 0);
        assert_eq!(records[0].digest, digest);
        assert_eq!(records[0].worker, "w1");
        let back = load_planes(&dir, 0, digest).expect("load");
        assert_eq!(back, planes(0.5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_publish_is_benign_and_first_record_wins() {
        let dir = temp_dir("dup");
        let d1 = publish(&dir, 0, &planes(1.0), "w1").expect("publish");
        let d2 = publish(&dir, 0, &planes(1.0), "w2").expect("republish");
        assert_eq!(d1, d2, "identical planes publish identical digests");
        let mut tracker = ArtifactTracker::new(&dir, 1);
        tracker.refresh().expect("refresh");
        assert_eq!(tracker.digest(0), Some(d1));
        assert!(tracker.missing().is_empty());
        assert_eq!(load_records(&dir).expect("records").len(), 2, "the log keeps both");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tracker_gates_on_every_model_and_skips_foreign_records() {
        let dir = temp_dir("gate");
        let mut tracker = ArtifactTracker::new(&dir, 2);
        tracker.refresh().expect("empty");
        assert_eq!(tracker.missing(), vec![0, 1]);
        publish(&dir, 1, &planes(2.0), "w1").expect("publish");
        // A record naming a model outside the study is advisory noise.
        let mut f =
            std::fs::OpenOptions::new().append(true).open(dir.join(ARTIFACTS_FILE)).expect("open");
        writeln!(f, "{{\"model\":9,\"digest\":1,\"worker\":\"x\",\"ts_ms\":0}}").expect("write");
        drop(f);
        tracker.refresh().expect("refresh");
        assert_eq!(tracker.missing(), vec![0], "model 1 landed, model 0 still blocks");
        publish(&dir, 0, &planes(3.0), "w2").expect("publish");
        tracker.refresh().expect("refresh");
        assert!(tracker.missing().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digest_mismatch_and_codec_corruption_are_typed_failures() {
        let dir = temp_dir("verify");
        let digest = publish(&dir, 0, &planes(4.0), "w1").expect("publish");
        let err = load_planes(&dir, 0, digest ^ 1).expect_err("wrong digest");
        assert!(err.contains("digest"), "{err}");
        // Truncate the artifact: the digest check catches it before
        // the codec ever runs.
        let path = model_path(&dir, 0);
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let err = load_planes(&dir, 0, digest).expect_err("torn file");
        assert!(err.contains("digest"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
