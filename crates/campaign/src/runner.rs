//! The resumable campaign runner: one worker loop over one claim source.
//!
//! A campaign directory is the unit of persistence:
//!
//! ```text
//! <dir>/campaign.toml    — scenario snapshot (written once, verified on resume)
//! <dir>/trials.jsonl     — one JSON record per completed (cell, repeat) trial
//! <dir>/artifacts/       — study campaigns: one frozen weight file per model
//! <dir>/artifacts.jsonl  — study campaigns: append-only publication records
//! <dir>/summary.txt      — rendered result table (written when complete)
//! ```
//!
//! Every run call's worker threads drive the same loop: claim a task,
//! run it, commit its record (or quarantine it), release the claim.
//! Only the **claim source** depends on the [`CoordMode`]: exclusive
//! mode hands out the work pending at start through in-memory atomic
//! cursors (trials in ascending flat order, no claim log, heartbeat or
//! lease expiry); shared mode acquires leases through the
//! `claims.jsonl` protocol of [`crate::coord`]. Every trial's seed
//! follows the campaign's [`Campaign::trial_seed`] scheme
//! (`derive_seed(master, cell * repeats + repeat)` for classic sweeps,
//! the study geometry's row-seed streams for studies), so a campaign
//! interrupted at any point and resumed — with any thread count, in
//! either mode — replays the missing trials with identical seeds.
//! Final per-cell statistics fold the persisted values in repeat order
//! through [`frlfi_fault::aggregate_in_order`], so they depend on
//! neither the thread count nor the order trials finished in.
//!
//! The trial log's integrity policy is data chosen once per call (see
//! `LogPolicy`): a directory that never ran shared is a strict
//! single-writer log (torn tails truncated, every append retry
//! truncated back to the committed length), any other a lenient
//! shared-queue log (torn tails healed into their own skippable line).
//! A lenient log syncs every record. A strict log writes each record
//! at commit but syncs at most once per 50 ms sync interval (group
//! commit), and once more before the call returns: a process kill
//! loses nothing that was written, and a machine crash loses at most
//! about one interval of commits, which the next call truncates as a
//! torn tail and re-runs with the same seeds.
//!
//! **Study campaigns** (`fig4`, `fig8a/b`, `datatypes`, `layers`)
//! expand into a small task DAG instead of a flat sweep: task ids
//! `0..n_models` are **train** tasks, which publish each model's
//! weights atomically through [`crate::artifacts`], and ids
//! `n_models + flat` are **eval** trials, claimable only once every
//! artifact record has landed — the weights are loaded
//! (digest-verified) instead of retrained, so each model trains
//! exactly once per campaign however many workers join. A failed
//! train task is quarantined and deterministically poisons its
//! dependent evals (degraded summary, nonzero exit); because training
//! is a pure function of the geometry, a later healthy run retrains
//! bitwise-identically and completes the campaign.

use std::collections::BTreeSet;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use frlfi::experiments::study::StudyGeometry;
use frlfi::report::Table;
use frlfi_fault::{aggregate_in_order, CellStats};
use serde::{Map, Value};

use crate::artifacts::ArtifactTracker;
use crate::coord::{CoordConfig, Coordinator, TrialTracker};
use crate::fmt::json;
use crate::io::{self, lock_recover};
use crate::quarantine::{self, QuarantineKind, QuarantineRecord};
use crate::spec::{Campaign, CellGrid, Scenario};

/// How a runner coordinates trial ownership with other processes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CoordMode {
    /// This process assumes it is the only writer of the campaign
    /// directory: tasks are claimed from in-memory cursors, with no
    /// claim log.
    #[default]
    Exclusive,
    /// The campaign directory is a shared work queue: trials are
    /// acquired through the `claims.jsonl` lease protocol (see
    /// [`crate::coord`]), so any number of `campaign run --shared` /
    /// `campaign worker` processes — across cores, cgroups or machines
    /// sharing the filesystem — split one campaign. Statistics and
    /// `summary.txt` are byte-identical to an [`CoordMode::Exclusive`]
    /// single-thread run.
    Shared(CoordConfig),
}

/// Runner options.
#[derive(Debug, Clone, Default)]
pub struct RunnerConfig {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Stop after this many *new* trials (used to exercise the
    /// interrupt/resume path; `None` = run to completion).
    pub max_new_trials: Option<usize>,
    /// Ignored. Every trial runs on the one arena path
    /// ([`crate::Campaign::run_trial`]): training routes its
    /// forwards/backwards through the [`frlfi::nn::BatchInferCtx`]
    /// cached-activation kernels, and the post-training evaluation
    /// runs its episodes in lock-step on the same arena. Kept so
    /// existing callers still build; setting it changes nothing.
    pub batched: bool,
    /// Append the wide per-cell statistics table (mean / min / max /
    /// 95% CI half-width over repeats) to `summary.txt` after the
    /// standard means grid.
    pub wide_summary: bool,
    /// Multi-process coordination mode: which claim source the worker
    /// loop draws from. Trials run the same way in either mode.
    pub coord: CoordMode,
    /// Stream structured observability events — trial/train/eval
    /// spans, io/aggregate timers, kernel-dispatch counters (see
    /// [`frlfi_obs`]) — to `<dir>/obs/worker-<id>.jsonl` for the
    /// duration of this call. Purely additive: trial values, the
    /// persisted trial log and `summary.txt` stay byte-identical
    /// whether the recorder is on or off.
    pub obs: bool,
    /// Treat a degraded outcome (some trials quarantined after their
    /// I/O retries exhausted, queue otherwise drained) as success:
    /// the run returns `Ok` with the explicitly marked degraded
    /// `summary.txt` in place, instead of the default nonzero-exit
    /// error. The quarantined trials stay reclaimable either way.
    pub allow_partial: bool,
}

/// RAII guard for the process-global [`frlfi_obs`] recorder: when
/// [`RunnerConfig::obs`] is set, installs a JSONL sink at
/// `<dir>/obs/worker-<id>.jsonl` for the duration of one run call,
/// under the call's worker id — the coordinator's in shared mode, so
/// profile rows line up with the claim log; `x<pid>` in exclusive
/// mode. Dropping the guard flushes and closes the sink, so events
/// never leak into a later campaign run in the same process.
struct ObsSession {
    active: bool,
}

impl ObsSession {
    fn start(dir: &Path, enabled: bool, worker: &str) -> Result<ObsSession, String> {
        if !enabled {
            return Ok(ObsSession { active: false });
        }
        let path = dir.join(crate::profile::OBS_DIR).join(format!("worker-{worker}.jsonl"));
        frlfi_obs::install(&path, worker)
            .map_err(|e| format!("open obs stream {}: {e}", path.display()))?;
        Ok(ObsSession { active: true })
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        if self.active {
            frlfi_obs::uninstall();
        }
    }
}

/// One persisted trial result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrialRecord {
    /// Cell index (row-major in the campaign's grid).
    pub(crate) cell: usize,
    /// Repeat index within the cell.
    pub(crate) repeat: usize,
    /// The derived seed the trial ran with.
    pub(crate) seed: u64,
    /// The trial's metric value.
    pub(crate) value: f64,
}

impl TrialRecord {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("cell".into(), Value::Int(self.cell as i64));
        m.insert("repeat".into(), Value::Int(self.repeat as i64));
        m.insert("seed".into(), Value::Int(self.seed as i64));
        m.insert("value".into(), Value::Float(self.value));
        Value::Table(m)
    }

    pub(crate) fn from_value(v: &Value) -> Result<Self, String> {
        let get_int = |k: &str| {
            v.get(k)
                .and_then(Value::as_int)
                .ok_or_else(|| format!("trial record missing integer `{k}`"))
        };
        // `cell` / `repeat` are indices: a negative value in a corrupt
        // log must be rejected here, not wrapped by an `as usize` cast
        // into a huge index that [`record_flat_index`] then blames on
        // the wrong campaign. (`seed` legitimately round-trips through
        // i64: u64 seeds above i64::MAX serialize negative.)
        let get_index = |k: &str| -> Result<usize, String> {
            let i = get_int(k)?;
            usize::try_from(i)
                .map_err(|_| format!("trial record `{k}` = {i} is negative — corrupt record"))
        };
        let value = match v.get("value") {
            Some(Value::Float(f)) => *f,
            Some(Value::Int(i)) => *i as f64,
            _ => return Err("trial record missing number `value`".into()),
        };
        Ok(TrialRecord {
            cell: get_index("cell")?,
            repeat: get_index("repeat")?,
            seed: get_int("seed")? as u64,
            value,
        })
    }
}

/// The outcome of a run/resume call.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Trials completed across all sessions (persisted).
    pub completed_trials: usize,
    /// Trials the whole campaign needs.
    pub total_trials: usize,
    /// Trials this call committed to the trial log. Quarantined trials
    /// and study train tasks do not count.
    pub new_trials: usize,
    /// Per-cell statistics — present only when the campaign completed.
    pub stats: Option<Vec<CellStats>>,
    /// Rendered result table — present only when the campaign completed.
    pub table: Option<Table>,
    /// Wide per-cell spread table — present only when the campaign
    /// completed *and* [`RunnerConfig::wide_summary`] was set.
    pub wide_table: Option<Table>,
    /// Flat indices of trials *this call* quarantined after
    /// exhausting their I/O retry budget (sorted). Non-empty only on
    /// degraded outcomes — which return `Ok` solely under
    /// [`RunnerConfig::allow_partial`].
    pub quarantined: Vec<usize>,
}

impl CampaignOutcome {
    /// Whether every (cell × repeat) trial is persisted.
    pub fn complete(&self) -> bool {
        self.completed_trials == self.total_trials
    }
}

/// Runs a scenario in `dir`, resuming any persisted progress.
///
/// First call writes `campaign.toml`; later calls verify the stored
/// scenario matches and skip completed `(cell, repeat)` trials. A
/// scenario that fails expansion writes nothing.
///
/// # Errors
///
/// Returns a message on I/O failures, scenario mismatches, or corrupt
/// trial logs.
pub fn run(scenario: &Scenario, dir: &Path, cfg: &RunnerConfig) -> Result<CampaignOutcome, String> {
    io::with_retry("campaign.create", || io::create_dir_all("campaign.create", dir))
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    let campaign = scenario.expand().map_err(|e| e.to_string())?;
    let manifest = dir.join("campaign.toml");
    if manifest.exists() {
        let stored = load_scenario(&manifest)?;
        if &stored != scenario {
            return Err(format!(
                "{} holds a different campaign ({} @ {:?}); refusing to mix trial logs",
                dir.display(),
                stored.name,
                stored.scale,
            ));
        }
    } else {
        // Atomic publish: a concurrently joining worker either sees
        // no manifest yet or a complete one, never a torn prefix. Two
        // processes racing `run --shared` both publish identical
        // bytes, so last-rename-wins is harmless.
        write_atomic(dir, "campaign.toml", &scenario.to_toml())?;
    }
    run_expanded(&campaign, dir, cfg)
}

/// Resumes the campaign persisted in `dir`.
///
/// # Errors
///
/// As for [`run`]; additionally errors if `dir` has no manifest.
pub fn resume(dir: &Path, cfg: &RunnerConfig) -> Result<CampaignOutcome, String> {
    let scenario = load_scenario(&dir.join("campaign.toml"))?;
    run(&scenario, dir, cfg)
}

/// Loads the scenario manifest of a campaign directory.
///
/// # Errors
///
/// Returns a message if the manifest is missing or malformed.
pub fn load_scenario(manifest: &Path) -> Result<Scenario, String> {
    let text = io::with_retry("manifest.read", || io::read_to_string("manifest.read", manifest))
        .map_err(|e| format!("read {}: {e}", manifest.display()))?;
    Scenario::from_toml(&text).map_err(|e| format!("{}: {e}", manifest.display()))
}

/// File name of the trial log inside a campaign directory.
pub(crate) const TRIALS_FILE: &str = "trials.jsonl";

fn trials_path(dir: &Path) -> PathBuf {
    dir.join(TRIALS_FILE)
}

/// How one run call reads and appends `trials.jsonl`. Chosen once per
/// call from the *directory's history*, not the call's mode: a
/// campaign that has ever run shared (`claims.jsonl` present) may
/// carry healed interior fragments from killed workers, so its log
/// stays lenient even on an exclusive resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LogPolicy {
    /// A never-shared, single-writer log: a torn *trailing* line (the
    /// crash-interrupted write) is skipped with a warning and
    /// truncated off before the first append, and every append retry
    /// first truncates back to the committed length — so the log
    /// stays the clean record-per-line prefix this check demands. A
    /// corrupt *interior* line is a hard error naming its line number:
    /// with one writer, interior damage means the log was edited or
    /// belongs to something else.
    Strict,
    /// A shared-queue log: any unparseable line is skipped with a
    /// warning naming its line number, and every append goes through
    /// [`crate::coord::append_jsonl_line`], which heals a torn tail
    /// into its own line. With concurrent writers a killed process's
    /// torn tail becomes an interior line, so interior damage is
    /// expected; skipping is safe because the dropped trial re-runs
    /// bitwise-identically.
    Lenient,
}

/// Reads the persisted trial log under `policy`. Returns the records
/// plus the byte length of the parsed prefix — what a strict
/// [`TrialSink`] truncates any torn tail back to before appending, so
/// the fragment can never merge with the next record into one
/// corrupt interior line.
fn load_records(dir: &Path, policy: LogPolicy) -> Result<(Vec<TrialRecord>, u64), String> {
    let path = trials_path(dir);
    let text = match io::with_retry("trials.read", || match io::open_read("trials.read", &path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
        Ok(mut f) => {
            let mut text = String::new();
            f.read_to_string(&mut text)?;
            Ok(Some(text))
        }
    }) {
        Err(e) => return Err(format!("read {}: {e}", path.display())),
        Ok(None) => return Ok((Vec::new(), 0)),
        Ok(Some(text)) => text,
    };
    let mut records = Vec::new();
    let mut valid_len = 0u64;
    let pieces: Vec<&str> = text.split_inclusive('\n').collect();
    for (i, piece) in pieces.iter().enumerate() {
        let line = piece.trim();
        if line.is_empty() {
            valid_len += piece.len() as u64;
            continue;
        }
        match json::parse(line).map_err(|e| e.to_string()).and_then(|v| TrialRecord::from_value(&v))
        {
            Ok(r) => {
                records.push(r);
                valid_len += piece.len() as u64;
            }
            Err(e) if i + 1 == pieces.len() || policy == LogPolicy::Lenient => {
                frlfi_obs::warn!(
                    "{} line {}: {e}; skipping record (the trial will \
                     re-run with an identical seed, so statistics are unaffected)",
                    path.display(),
                    i + 1
                );
            }
            Err(e) => return Err(format!("{} line {}: {e}", path.display(), i + 1)),
        }
    }
    Ok((records, valid_len))
}

/// The longest a strict log's appended records wait for their sync:
/// a commit syncs once this much time has passed since the last sync
/// (group commit). A record lost to a machine crash costs only its
/// bit-identical re-run, so a time bound is the right bound; trials
/// slower than this still sync at every commit.
const TRIAL_LOG_SYNC_INTERVAL: Duration = Duration::from_millis(50);

/// The trial log's append handle under one call's [`LogPolicy`]. One
/// [`TrialSink::append`] is one attempt; callers run it under the
/// retry policy, then [`TrialSink::sync`] as a step of its own.
struct TrialSink {
    file: std::fs::File,
    policy: LogPolicy,
    /// Byte length of the committed record-per-line prefix (what a
    /// strict append truncates back to).
    committed: u64,
    /// Whether records have landed since the last sync (strict only:
    /// a lenient append syncs itself).
    dirty: bool,
    /// When the log was last synced (or opened).
    synced_at: Instant,
}

impl TrialSink {
    /// Opens the log for appending; under the strict policy first chops
    /// any torn tail past `valid_len`, the parsed prefix. (A lenient
    /// append heals a torn tail itself.) A strict log that already
    /// holds records starts dirty: a previous call's appends may never
    /// have been synced, so this call's closing sync covers them.
    fn open(dir: &Path, policy: LogPolicy, valid_len: u64) -> Result<TrialSink, String> {
        let path = trials_path(dir);
        let file = io::with_retry("trials.open", || io::open_append("trials.open", &path))
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        let strict = policy == LogPolicy::Strict;
        let mut sink = TrialSink {
            file,
            policy,
            committed: valid_len,
            dirty: strict && valid_len > 0,
            synced_at: Instant::now(),
        };
        if strict {
            sink.truncate_uncommitted().map_err(|e| format!("truncate torn trial log: {e}"))?;
        }
        Ok(sink)
    }

    fn truncate_uncommitted(&mut self) -> std::io::Result<()> {
        if self.file.metadata()?.len() > self.committed {
            self.file.set_len(self.committed)?;
        }
        Ok(())
    }

    /// Appends one record line. A strict append only writes: the record
    /// is visible to readers and survives a process kill at once, and
    /// [`TrialSink::sync`] makes it durable. A strict retry truncates
    /// the failed attempt's short-written fragment off before
    /// rewriting; a lenient append heals it into its own skippable line
    /// and syncs every record.
    fn append(&mut self, line: &str) -> std::io::Result<()> {
        match self.policy {
            LogPolicy::Strict => {
                self.truncate_uncommitted()?;
                let buf = format!("{line}\n");
                io::write_all("trials.append", &mut self.file, buf.as_bytes())?;
                self.committed += buf.len() as u64;
                self.dirty = true;
                Ok(())
            }
            LogPolicy::Lenient => {
                crate::coord::append_jsonl_line("trials.append", &mut self.file, line)
            }
        }
    }

    /// Syncs the appended records under the retry policy if any are
    /// unsynced and either `force` is set or
    /// [`TRIAL_LOG_SYNC_INTERVAL`] has passed since the last sync.
    /// Returns whether it synced.
    fn sync(&mut self, force: bool) -> Result<bool, String> {
        if !self.dirty || !(force || self.synced_at.elapsed() >= TRIAL_LOG_SYNC_INTERVAL) {
            return Ok(false);
        }
        io::with_retry("trials.sync", || io::sync_data("trials.sync", &self.file))
            .map_err(|e| format!("sync trial log: {e}"))?;
        self.dirty = false;
        self.synced_at = Instant::now();
        frlfi_obs::count("trials.sync", 1);
        Ok(true)
    }
}

/// Validates one persisted record's coordinates and seed against the
/// campaign's seed scheme (a mismatch means the log belongs to a
/// different campaign) and returns its flat trial index.
pub(crate) fn record_flat_index(campaign: &Campaign, r: &TrialRecord) -> Result<usize, String> {
    let n_cells = campaign.trials.len();
    let repeats = campaign.repeats;
    if r.cell >= n_cells || r.repeat >= repeats {
        return Err(format!(
            "trial log refers to (cell {}, repeat {}) outside the {}×{} campaign — \
             wrong directory?",
            r.cell, r.repeat, n_cells, repeats
        ));
    }
    let flat = r.cell * repeats + r.repeat;
    let expect_seed = campaign.trial_seed(flat);
    if r.seed != expect_seed {
        return Err(format!(
            "trial log seed {:#x} for (cell {}, repeat {}) does not match the campaign \
             master seed scheme (expected {:#x})",
            r.seed, r.cell, r.repeat, expect_seed
        ));
    }
    Ok(flat)
}

/// Folds persisted records into the per-`(cell, repeat)` completion
/// map. Duplicate records — possible when a reaped shared-mode trial
/// was finished by both workers — are benign: determinism makes them
/// bitwise-identical, and later ones overwrite.
fn fold_records(
    campaign: &Campaign,
    records: Vec<TrialRecord>,
) -> Result<Vec<Vec<Option<f64>>>, String> {
    let mut done: Vec<Vec<Option<f64>>> = vec![vec![None; campaign.repeats]; campaign.trials.len()];
    for r in records {
        record_flat_index(campaign, &r)?;
        done[r.cell][r.repeat] = Some(r.value);
    }
    Ok(done)
}

/// Resolves a thread-count option (0 = available parallelism).
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        threads
    }
}

/// Publishes `dir/<name>` atomically (unique temp file, fsync,
/// rename), so a reader — or a concurrent shared-mode process
/// publishing the identical bytes — never observes a torn file, and
/// a machine-level crash after the rename cannot surface an empty
/// one (the data is durable before the name is).
fn write_atomic(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    let tmp = dir.join(format!(".{name}.tmp-{}", std::process::id()));
    // The whole create-write-fsync-rename step retries as one unit:
    // it is idempotent (the temp file is recreated from scratch each
    // attempt), so a transient fault at any of its operations — a
    // short write included — never publishes a torn file.
    io::with_retry("publish", || {
        let mut f = io::create_trunc("publish.create", &tmp)?;
        io::write_all("publish.write", &mut f, text.as_bytes())?;
        io::sync_all("publish.fsync", &f)?;
        drop(f);
        io::rename("publish.rename", &tmp, &dir.join(name))
    })
    .map_err(|e| format!("publish {name}: {e}"))
}

/// One claim attempt's result.
enum Claim {
    /// The worker now owns this task id.
    Task(usize),
    /// Nothing is claimable right now, but tasks other workers hold may
    /// still land or be released.
    Wait,
    /// No trial is left for this call.
    Drained,
}

/// Where the worker loop takes task ids from. Both sources number
/// tasks the same way: ids `0..n_models` are train tasks and
/// `n_models + flat` are eval trials (`n_models` is 0 for classic
/// campaigns, so classic claim logs are untouched).
enum ClaimSource {
    /// Exclusive mode — this process is the directory's only writer:
    /// atomic cursors over the train tasks and over the trials pending
    /// at start, in ascending order (the order the training-prefix
    /// cache is built around). No claim log, heartbeat or lease
    /// expiry.
    Cursor { n_models: usize, next_train: AtomicUsize, trials: Vec<usize>, next_trial: AtomicUsize },
    /// Shared mode — the directory is a work queue: leases through the
    /// `claims.jsonl` protocol of [`crate::coord`], with completion
    /// folded from the trial log's tail.
    Leases { coordinator: Box<Coordinator>, tracker: Mutex<TrialTracker>, poll: Duration },
}

impl ClaimSource {
    /// Claims one of the `claimable` train tasks ([`Claim::Task`] or
    /// [`Claim::Wait`]).
    fn claim_train(&self, claimable: &[usize], offset: usize) -> Result<Claim, String> {
        match self {
            ClaimSource::Cursor { n_models, next_train, .. } => loop {
                let model = next_train.fetch_add(1, Ordering::Relaxed);
                if model >= *n_models {
                    // Every train task is handed out; the rest are in
                    // flight on this process's other threads.
                    return Ok(Claim::Wait);
                }
                if claimable.contains(&model) {
                    return Ok(Claim::Task(model));
                }
            },
            ClaimSource::Leases { coordinator, .. } => {
                Ok(coordinator.claim_next(claimable, offset)?.map_or(Claim::Wait, Claim::Task))
            }
        }
    }

    /// Claims an eval trial this call has not quarantined (`skip`).
    fn claim_trial(
        &self,
        campaign: &Campaign,
        skip: &Mutex<BTreeSet<usize>>,
        offset: usize,
    ) -> Result<Claim, String> {
        match self {
            ClaimSource::Cursor { trials, next_trial, .. } => Ok(trials
                .get(next_trial.fetch_add(1, Ordering::Relaxed))
                .map_or(Claim::Drained, |&task| Claim::Task(task))),
            ClaimSource::Leases { coordinator, tracker, .. } => {
                let open = lock_recover(tracker).open(campaign, &lock_recover(skip))?;
                if open.is_empty() {
                    return Ok(Claim::Drained);
                }
                Ok(coordinator.claim_next(&open, offset)?.map_or(Claim::Wait, Claim::Task))
            }
        }
    }

    /// Whether no eval trial is left for this call to claim.
    fn drained(&self, campaign: &Campaign, skip: &Mutex<BTreeSet<usize>>) -> Result<bool, String> {
        match self {
            ClaimSource::Cursor { trials, next_trial, .. } => {
                Ok(next_trial.load(Ordering::Relaxed) >= trials.len())
            }
            ClaimSource::Leases { tracker, .. } => {
                Ok(lock_recover(tracker).open(campaign, &lock_recover(skip))?.is_empty())
            }
        }
    }

    /// Releases a claimed task (a no-op for a cursor: nobody else can
    /// claim it).
    fn complete(&self, task: usize) {
        if let ClaimSource::Leases { coordinator, .. } = self {
            coordinator.complete(task);
        }
    }

    /// Sleeps before the next claim attempt: the shared poll interval,
    /// or a short nap while this process's own train tasks land.
    fn wait(&self) {
        std::thread::sleep(match self {
            ClaimSource::Cursor { .. } => Duration::from_millis(5),
            ClaimSource::Leases { poll, .. } => *poll,
        });
    }
}

/// What one run call's worker threads share.
struct RunState<'a> {
    campaign: &'a Campaign,
    dir: &'a Path,
    cfg: &'a RunnerConfig,
    /// The id this call's quarantine records and artifact publications
    /// carry (the coordinator's in shared mode, `x<pid>` otherwise).
    worker: String,
    source: ClaimSource,
    sink: Mutex<TrialSink>,
    /// The completion map, kept current by this call's commits.
    done: Mutex<Vec<Vec<Option<f64>>>>,
    /// Remaining interrupt budget ([`RunnerConfig::max_new_trials`]).
    budget: AtomicUsize,
    /// Trials this call committed.
    committed: AtomicUsize,
    failed: AtomicBool,
    errors: Mutex<Vec<String>>,
    /// Trials this call quarantined: skipped from then on (another,
    /// healthier worker may still reclaim them).
    poisoned: Mutex<BTreeSet<usize>>,
    /// Train tasks this call quarantined (train or publish failed).
    train_poisoned: Mutex<BTreeSet<usize>>,
    artifacts: Mutex<ArtifactTracker>,
    /// The study artifact gate: set once every artifact record has
    /// landed. Records are append-only, so it never closes again and
    /// the log need not be polled past it.
    gate_open: AtomicBool,
    planes: PlanesCache,
}

fn run_expanded(
    campaign: &Campaign,
    dir: &Path,
    cfg: &RunnerConfig,
) -> Result<CampaignOutcome, String> {
    let worker = match &cfg.coord {
        CoordMode::Shared(c) => c.worker_id.clone(),
        CoordMode::Exclusive => format!("x{}", std::process::id()),
    };
    let _obs = ObsSession::start(dir, cfg.obs, &worker)?;
    let shared = matches!(cfg.coord, CoordMode::Shared(_));
    if shared && cfg.wide_summary {
        // The published summary must be a pure function of the trial
        // log — with several finalizer processes carrying different
        // flags, a per-call rendering option would make summary.txt
        // depend on which process renames last.
        return Err("--wide is an exclusive-mode rendering option; render the spread table \
                    after completion with `campaign resume <dir> --wide`"
            .into());
    }
    let policy = if shared || dir.join(crate::coord::CLAIMS_FILE).exists() {
        LogPolicy::Lenient
    } else {
        LogPolicy::Strict
    };
    let (records, valid_len) = load_records(dir, policy)?;
    let done = fold_records(campaign, records)?;
    let sink = Mutex::new(TrialSink::open(dir, policy, valid_len)?);
    let (repeats, total, n_models) =
        (campaign.repeats, campaign.total_trials(), campaign.n_models());
    let source = match &cfg.coord {
        CoordMode::Exclusive => ClaimSource::Cursor {
            n_models,
            next_train: AtomicUsize::new(0),
            trials: undone_flats(&done, repeats).into_iter().map(|t| t + n_models).collect(),
            next_trial: AtomicUsize::new(0),
        },
        CoordMode::Shared(c) => ClaimSource::Leases {
            coordinator: Box::new(Coordinator::new(dir, c.clone())),
            tracker: Mutex::new(TrialTracker::new(dir, total)),
            poll: Duration::from_millis(c.poll_ms),
        },
    };
    let state = RunState {
        campaign,
        dir,
        cfg,
        worker,
        source,
        sink,
        done: Mutex::new(done),
        budget: AtomicUsize::new(cfg.max_new_trials.unwrap_or(usize::MAX)),
        committed: AtomicUsize::new(0),
        failed: AtomicBool::new(false),
        errors: Mutex::new(Vec::new()),
        poisoned: Mutex::new(BTreeSet::new()),
        train_poisoned: Mutex::new(BTreeSet::new()),
        artifacts: Mutex::new(ArtifactTracker::new(dir, n_models)),
        gate_open: AtomicBool::new(n_models == 0),
        planes: Mutex::new(None),
    };
    std::thread::scope(|scope| {
        for thread_idx in 0..resolve_threads(cfg.threads).min(total.max(1)) {
            let state = &state;
            scope.spawn(move || {
                if let Err(e) = state.work(thread_idx) {
                    state.failed.store(true, Ordering::Relaxed);
                    lock_recover(&state.errors).push(e);
                }
            });
        }
    });
    let RunState { source, sink, done, errors, poisoned, train_poisoned, committed, .. } = state;
    // The closing sync: whatever this call appended is durable before
    // it returns, error returns included. (Every fatal error is in
    // `errors`.)
    let mut errors = errors.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Err(e) = sink.into_inner().unwrap_or_else(PoisonError::into_inner).sync(true) {
        errors.push(e);
    }
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    let done = match source {
        // The only writer's own view is final, and re-parsing a large
        // log here would cost a study campaign a few percent of its
        // trial throughput.
        ClaimSource::Cursor { .. } => done.into_inner().unwrap_or_else(PoisonError::into_inner),
        // Re-read the log: trials other workers committed count toward
        // completion (and toward publishing the summary) even though
        // this process never ran them.
        leases => {
            drop(leases); // stop the heartbeat before reporting
            fold_records(campaign, load_records(dir, policy)?.0)?
        }
    };
    let completed = done.iter().flatten().filter(|v| v.is_some()).count();
    let train_poisoned = train_poisoned.into_inner().unwrap_or_else(PoisonError::into_inner);
    let quarantined = if !train_poisoned.is_empty() && completed < total {
        // A quarantined train task deterministically poisons every
        // dependent eval trial that never got its record — they all
        // gate on the artifact that failed to land.
        undone_flats(&done, repeats)
    } else {
        poisoned
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            // Another worker may have committed a trial we quarantined;
            // the completed record overrides the advisory quarantine.
            .filter(|&t| done[t / repeats][t % repeats].is_none())
            .collect()
    };
    finalize(campaign, dir, cfg, &done, completed, committed.into_inner(), quarantined)
}

impl RunState<'_> {
    /// The one worker loop: claim a task, run it (train and publish,
    /// or one trial), commit its record or quarantine it, release the
    /// claim — until the source drains, the interrupt budget is spent
    /// or some thread hits a fatal error. With no budget a shared call
    /// blocks until the whole campaign completes: trials claimed by
    /// other live workers are waited out (and reaped if their worker
    /// dies).
    fn work(&self, thread_idx: usize) -> Result<(), String> {
        let campaign = self.campaign;
        let study = campaign.study();
        let budgeted = self.cfg.max_new_trials.is_some();
        let mut study_ctx = None;
        // The training and inference arena, reused across every trial
        // this worker runs.
        let mut batch_ctx = frlfi::nn::BatchInferCtx::new();
        // Stagger each lease claimer's scan start so workers spread
        // over the queue instead of racing for trial 0 (any claim
        // order is correct; this only reduces contention).
        let offset = fxhash(self.worker.as_bytes()) as usize + thread_idx * 7919;
        while !self.failed.load(Ordering::Relaxed) {
            // Study train phase: until every artifact record has
            // landed, the only claimable tasks are the missing models'
            // train tasks — the gate that keeps eval tasks unclaimable.
            if let Some(g) = study.filter(|_| !self.gate_open.load(Ordering::Relaxed)) {
                if self.source.drained(campaign, &self.poisoned)? {
                    break;
                }
                let missing = {
                    let mut a = lock_recover(&self.artifacts);
                    a.refresh()?;
                    a.missing()
                };
                if missing.is_empty() {
                    self.gate_open.store(true, Ordering::Relaxed);
                    continue;
                }
                let claimable: Vec<usize> = {
                    let tp = lock_recover(&self.train_poisoned);
                    missing.into_iter().filter(|m| !tp.contains(m)).collect()
                };
                if claimable.is_empty() {
                    // Every missing artifact's train task is poisoned
                    // here: its dependent evals can never unblock in
                    // this call. Degrade deterministically; a healthier
                    // worker may still publish the artifacts.
                    break;
                }
                match self.source.claim_train(&claimable, offset)? {
                    Claim::Task(model) => self.train(g, model),
                    // Budgeted calls never wait on other workers' train
                    // tasks.
                    _ if budgeted => break,
                    _ => self.source.wait(),
                }
                continue;
            }
            // Reserve one unit of the interrupt budget before claiming
            // (returned if no claim lands), so a budgeted call executes
            // exactly `max_new_trials` new trials however many threads
            // race here. Train tasks never consume it.
            if !reserve(&self.budget) {
                break;
            }
            let task = match self.source.claim_trial(campaign, &self.poisoned, offset)? {
                Claim::Task(task) => task,
                claim => {
                    self.budget.fetch_add(1, Ordering::Relaxed);
                    // Budgeted calls never wait on other workers' leases.
                    if budgeted || matches!(claim, Claim::Drained) {
                        break;
                    }
                    // Everything open is claimed by live workers: wait
                    // for completions or lease expiries.
                    self.source.wait();
                    continue;
                }
            };
            // Study evals run against a per-thread context restored
            // from the published artifacts, built on this thread's
            // first eval (the gate is open, so every record is in place).
            if let Some(g) = study.filter(|_| study_ctx.is_none()) {
                let built =
                    eval_planes(g, self.dir, &self.planes, &self.worker).and_then(|planes| {
                        g.context(&planes).map_err(|e| format!("restore eval context: {e}"))
                    });
                match built {
                    Ok(ctx) => study_ctx = Some(ctx),
                    Err(e) => {
                        self.source.complete(task);
                        return Err(e);
                    }
                }
            }
            let trial = task - campaign.n_models();
            let (cell, repeat) = (trial / campaign.repeats, trial % campaign.repeats);
            let seed = campaign.trial_seed(trial);
            // The trial span stays live across the commit so the io
            // timer and any retry/quarantine events are parented to
            // the trial in the causal tree.
            let span = frlfi_obs::span_trial("trial", trial as u64);
            let value = match (study, study_ctx.as_mut()) {
                (Some(g), Some(ctx)) => g.eval_cell(ctx, cell, seed),
                _ => campaign.run_trial(cell, seed, &mut batch_ctx),
            };
            // A failed trial (e.g. a mis-shaped observation reaching
            // the policy network) or a commit whose retries ran out is
            // quarantined: durably recorded, skipped by this call from
            // now on and released, so a worker on a fixed build or
            // healthy I/O may still reclaim it.
            let committed = value
                .map_err(|e| format!("trial failed: {e}"))
                .and_then(|value| self.commit(&TrialRecord { cell, repeat, seed, value }));
            match committed {
                Ok(()) => {
                    self.committed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => self.quarantine(QuarantineKind::Trial, trial, e),
            }
            self.source.complete(task);
            // Per-trial event flush once the span has closed: a killed
            // worker's obs stream still covers every committed trial.
            drop(span);
            frlfi_obs::flush();
        }
        Ok(())
    }

    /// Train task `model`: trains the model and publishes its artifact,
    /// or quarantines the task, which poisons its dependent evals.
    fn train(&self, g: &StudyGeometry, model: usize) {
        let span = frlfi_obs::span_trial("train_task", model as u64);
        let published = g.models()[model]
            .train()
            .map_err(|e| format!("train failed: {e}"))
            .and_then(|planes| crate::artifacts::publish(self.dir, model, &planes, &self.worker));
        match published {
            Ok(_) => frlfi_obs::count("artifact.published", 1),
            Err(e) => self.quarantine(QuarantineKind::Train, model, e),
        }
        self.source.complete(model);
        drop(span);
        frlfi_obs::flush();
    }

    /// Persists one finished trial: a line-atomic append under the
    /// retry policy, so a kill between records loses at most the torn
    /// tail and a transient I/O error costs only a backoff sleep. Then,
    /// as a separate retried step, the log is synced if the sync
    /// interval has passed (group commit): a machine crash loses at
    /// most about one interval of commits, which re-run bit-identically.
    /// An append whose retries run out is the trial's error (it is
    /// quarantined); a sync whose retries run out fails the run, with
    /// the record committed.
    fn commit(&self, record: &TrialRecord) -> Result<(), String> {
        let line = json::render(&record.to_value());
        let _io = frlfi_obs::timed("io");
        let mut sink = lock_recover(&self.sink);
        io::with_retry("trials.append", || sink.append(&line))
            .map_err(|e| format!("append {}: {e}", trials_path(self.dir).display()))?;
        lock_recover(&self.done)[record.cell][record.repeat] = Some(record.value);
        if let Err(e) = sink.sync(false) {
            self.failed.store(true, Ordering::Relaxed);
            lock_recover(&self.errors).push(e);
        }
        Ok(())
    }

    /// Gives up on a task (a trial's flat index or a train task's
    /// model): records it durably in `quarantine.jsonl` (best-effort)
    /// and marks it poisoned for this call. The degraded summary and
    /// exit code report the damage, and a later healthy run re-runs
    /// the task bitwise-identically.
    fn quarantine(&self, kind: QuarantineKind, task: usize, error: String) {
        let repeats = self.campaign.repeats;
        let (cell, repeat, counter, poisoned) = match kind {
            QuarantineKind::Trial => {
                (task / repeats, task % repeats, "trial.quarantined", &self.poisoned)
            }
            QuarantineKind::Train => (task, 0, "train.quarantined", &self.train_poisoned),
        };
        frlfi_obs::count(counter, 1);
        frlfi_obs::warn!(
            "quarantining {kind:?} task {task} (cell {cell}, repeat {repeat}): {error}"
        );
        let record = QuarantineRecord {
            kind,
            trial: task,
            cell,
            repeat,
            worker: self.worker.clone(),
            error,
            ts_ms: crate::coord::now_ms(),
        };
        if let Err(qe) = quarantine::append(self.dir, &record) {
            frlfi_obs::warn!(
                "{qe} (quarantine record lost; the degraded exit still reports the task)"
            );
        }
        lock_recover(poisoned).insert(task);
        // An erroring worker may be about to die: its buffered events
        // describe the failure and must reach disk now.
        frlfi_obs::flush();
    }
}

/// Folds the completion map into the outcome; when every trial is
/// persisted, renders and publishes `summary.txt` — per-cell stats
/// folded in repeat order by [`aggregate_in_order`].
///
/// When the queue drained but some trials were **quarantined**
/// (their I/O retries exhausted), publishes an explicitly marked
/// degraded summary instead and errors unless
/// [`RunnerConfig::allow_partial`] — graceful degradation, not
/// silence: the exit code says partial, the summary says partial,
/// and a later healthy `resume`/`worker` run reclaims the missing
/// trials (bitwise-identically) and replaces the summary with the
/// real one.
fn finalize(
    campaign: &Campaign,
    dir: &Path,
    cfg: &RunnerConfig,
    done: &[Vec<Option<f64>>],
    completed: usize,
    new_trials: usize,
    quarantined: Vec<usize>,
) -> Result<CampaignOutcome, String> {
    let total = campaign.total_trials();
    let (stats, table, wide_table) = if completed == total {
        let stats: Vec<CellStats> = done
            .iter()
            .map(|cell| {
                let values: Vec<f64> = cell.iter().map(|v| v.expect("campaign complete")).collect();
                aggregate_in_order(&values)
            })
            .collect();
        // Study campaigns render through the geometry's own figure
        // renderer on plain in-order means — the exact fold of
        // `StudyGeometry::run` — so summary.txt is byte-identical to
        // the sequential study. (The chunked-Welford
        // `CellStats` mean is not bit-identical to a plain mean, so
        // it stays informational in `outcome.stats`.)
        let table = match campaign.study() {
            Some(g) => {
                let means: Vec<f64> = done
                    .iter()
                    .map(|cell| {
                        let mut sum = 0.0;
                        for v in cell {
                            sum += v.expect("campaign complete");
                        }
                        sum / campaign.repeats as f64
                    })
                    .collect();
                g.render(&means)
            }
            None => render_table(campaign, &stats),
        };
        let wide_table = cfg.wide_summary.then(|| render_wide_table(campaign, &stats));
        let mut text = table.render();
        if let Some(wide) = &wide_table {
            text.push('\n');
            text.push_str(&wide.render());
        }
        write_atomic(dir, "summary.txt", &text)?;
        (Some(stats), Some(table), wide_table)
    } else if !quarantined.is_empty() {
        let text = render_degraded_summary(campaign, done, completed);
        write_atomic(dir, "summary.txt", &text)?;
        if !cfg.allow_partial {
            return Err(format!(
                "campaign degraded: {} of {total} trials missing after {} were quarantined \
                 (I/O retries exhausted — see quarantine.jsonl); summary.txt is marked \
                 DEGRADED. Re-run `campaign resume`/`campaign worker` on healthy I/O to \
                 reclaim them, or pass --allow-partial to accept partial results",
                total - completed,
                quarantined.len(),
            ));
        }
        (None, None, None)
    } else {
        (None, None, None)
    };

    Ok(CampaignOutcome {
        completed_trials: completed,
        total_trials: total,
        new_trials,
        stats,
        table,
        wide_table,
        quarantined,
    })
}

/// Renders the explicitly marked partial summary a degraded campaign
/// publishes. Deliberately a pure function of the scenario identity
/// and the completion map — no paths, timestamps, error strings or
/// worker ids — so a deterministic fault produces a byte-identical
/// degraded summary on every run (the bar the chaos torture harness
/// holds it to). The errors themselves live in `quarantine.jsonl`
/// and the warning log.
fn render_degraded_summary(
    campaign: &Campaign,
    done: &[Vec<Option<f64>>],
    completed: usize,
) -> String {
    let mut text = String::new();
    text.push_str("!! DEGRADED CAMPAIGN SUMMARY — PARTIAL RESULTS !!\n");
    text.push_str(&format!(
        "Campaign {} ({:?} scale): {completed}/{} trials completed.\n",
        campaign.scenario.name,
        campaign.scenario.scale,
        campaign.total_trials(),
    ));
    text.push_str(
        "Missing trials were quarantined after exhausting I/O retries\n\
         (quarantine.jsonl has details). They remain reclaimable: re-run\n\
         `campaign resume` or `campaign worker` on healthy I/O to complete\n\
         the campaign and replace this summary with the real one.\n\n\
         missing (cell, repeat):\n",
    );
    for (cell, cell_done) in done.iter().enumerate() {
        for (rep, slot) in cell_done.iter().enumerate() {
            if slot.is_none() {
                text.push_str(&format!("  ({cell}, {rep})\n"));
            }
        }
    }
    text
}

/// Flat indices of every not-yet-persisted trial, ascending — an
/// exclusive call's pending work, and the dependents a failed train
/// task poisons.
fn undone_flats(done: &[Vec<Option<f64>>], repeats: usize) -> Vec<usize> {
    let mut flats = Vec::new();
    for (cell, cell_done) in done.iter().enumerate() {
        for (rep, slot) in cell_done.iter().enumerate() {
            if slot.is_none() {
                flats.push(cell * repeats + rep);
            }
        }
    }
    flats
}

/// Every study model's decoded weight planes, in model order (outer:
/// model, inner: the model's per-agent planes).
type ModelPlanes = Vec<Vec<Vec<f32>>>;

/// Once-per-call cache of the decoded artifact planes, shared by every
/// eval thread.
type PlanesCache = Mutex<Option<std::sync::Arc<ModelPlanes>>>;

/// The decoded artifact planes for study evals — the one artifact
/// loader — loaded once per call and shared across its worker threads.
///
/// Every plane set is digest-verified against its publication record;
/// a torn, deleted or corrupted artifact file falls back to in-process
/// retraining (bitwise-identical — training is a pure function of the
/// geometry) with a best-effort republish to heal the file for other
/// workers and later resumes.
fn eval_planes(
    g: &StudyGeometry,
    dir: &Path,
    cache: &PlanesCache,
    worker: &str,
) -> Result<std::sync::Arc<ModelPlanes>, String> {
    let mut guard = lock_recover(cache);
    if let Some(planes) = guard.as_ref() {
        return Ok(std::sync::Arc::clone(planes));
    }
    let mut tracker = ArtifactTracker::new(dir, g.models().len());
    tracker.refresh()?;
    let mut all = Vec::with_capacity(g.models().len());
    for (model, spec) in g.models().iter().enumerate() {
        let Some(digest) = tracker.digest(model) else {
            return Err(format!(
                "model {model} ({}) has no publication record — eval tasks gate on artifacts",
                spec.label()
            ));
        };
        match crate::artifacts::load_planes(dir, model, digest) {
            Ok(planes) => {
                frlfi_obs::count("artifact.reused", 1);
                all.push(planes);
            }
            Err(e) => {
                frlfi_obs::warn!(
                    "model {model} ({}): {e}; retraining in-process (bitwise-identical — \
                     training is pure)",
                    spec.label()
                );
                let planes = spec.train().map_err(|te| format!("retrain model {model}: {te}"))?;
                if let Err(pe) = crate::artifacts::publish(dir, model, &planes, worker) {
                    frlfi_obs::warn!(
                        "republish model {model}: {pe} (continuing with in-memory weights)"
                    );
                }
                all.push(planes);
            }
        }
    }
    let planes = std::sync::Arc::new(all);
    *guard = Some(std::sync::Arc::clone(&planes));
    Ok(planes)
}

/// Atomically takes one unit of the interrupt budget; `false` means
/// the budget is exhausted.
fn reserve(budget: &AtomicUsize) -> bool {
    budget.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1)).is_ok()
}

/// A tiny FNV-1a over bytes — worker-id scan staggering only (no
/// correctness weight whatsoever).
fn fxhash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders the wide per-cell spread table: one row per campaign cell
/// (row-major in the scenario's grid), with the PR 2 `CellStats`
/// spread columns — mean, min, max and the 95% confidence-interval
/// half-width of the mean — that the standard means grid omits.
pub(crate) fn render_wide_table(campaign: &Campaign, stats: &[CellStats]) -> Table {
    let title = format!(
        "Campaign {} ({:?} scale): per-cell spread over {} repeats",
        campaign.scenario.name, campaign.scenario.scale, campaign.repeats,
    );
    let mut table =
        Table::new(title, "cell", vec!["mean".into(), "min".into(), "max".into(), "ci95".into()])
            .with_precision(2);
    let labels: Vec<String> = match &campaign.grid {
        CellGrid::BerByEpisode { bers, episodes } => bers
            .iter()
            .flat_map(|&b| {
                episodes
                    .iter()
                    .map(move |&e| format!("ber {} @ ep{e}", frlfi::experiments::ber_label(b)))
            })
            .collect(),
        CellGrid::Labelled { rows, cols, .. } => {
            rows.iter().flat_map(|r| cols.iter().map(move |c| format!("{r} @ {c}"))).collect()
        }
    };
    for (label, s) in labels.into_iter().zip(stats.iter()) {
        table.push_row(label, vec![s.mean, s.min, s.max, s.ci95_half_width()]);
    }
    table
}

/// Renders campaign statistics in the scenario's grid layout.
pub(crate) fn render_table(campaign: &Campaign, stats: &[CellStats]) -> Table {
    let title = format!(
        "Campaign {} ({:?} scale): {}",
        campaign.scenario.name,
        campaign.scenario.scale,
        match campaign.trials {
            crate::spec::Trials::Grid(_) if campaign.scenario.train.metric.is_some() => {
                "episodes to converge"
            }
            crate::spec::Trials::Grid(_) => "success rate (%)",
            crate::spec::Trials::Drone(_) => "flight distance (m)",
            crate::spec::Trials::Study(_) => "study metric",
        }
    );
    match &campaign.grid {
        CellGrid::BerByEpisode { bers, episodes } => {
            frlfi::experiments::harness::heatmap_table(&title, bers, episodes, stats, 1)
        }
        // A study renders its own figure layout (`finalize`'s
        // byte-exact path is `StudyGeometry::render` over plain in-order
        // means; here it renders over the stats means). Fleet, side and
        // comm sweeps render the labelled grid.
        CellGrid::Labelled { axis, rows, cols } => match campaign.study() {
            Some(g) => g.render(&stats.iter().map(|s| s.mean).collect::<Vec<f64>>()),
            None => {
                let mut table = Table::new(title, axis.clone(), cols.clone());
                for (ri, key) in rows.iter().enumerate() {
                    let row: Vec<f64> =
                        (0..cols.len()).map(|ci| stats[ri * cols.len() + ci].mean).collect();
                    table.push_row(key.clone(), row);
                }
                table
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_line(i: usize) -> String {
        json::render(&TrialRecord { cell: 0, repeat: i, seed: i as u64, value: 1.0 }.to_value())
    }

    #[test]
    fn quick_commits_share_syncs_and_spaced_commits_each_sync() {
        let dir = std::env::temp_dir().join(format!("frlfi-runner-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut sink = TrialSink::open(&dir, LogPolicy::Strict, 0).expect("open");

        // Commits far quicker than the interval: one write each, and
        // fewer syncs than commits.
        let quick = 200;
        let mut syncs = 0;
        for i in 0..quick {
            sink.append(&record_line(i)).expect("append");
            syncs += usize::from(sink.sync(false).expect("sync"));
        }
        assert!(syncs < quick, "{quick} quick commits synced {syncs} times");
        assert!(sink.sync(true).expect("closing sync"), "unsynced commits force a sync");
        assert!(!sink.sync(true).expect("sync"), "a synced log has nothing to sync");

        // Commits spaced further apart than the interval sync every time.
        let spaced = 3;
        for i in quick..quick + spaced {
            std::thread::sleep(TRIAL_LOG_SYNC_INTERVAL + Duration::from_millis(5));
            sink.append(&record_line(i)).expect("append");
            assert!(sink.sync(false).expect("sync"), "a commit after the interval syncs");
        }
        drop(sink);

        let (records, _) = load_records(&dir, LogPolicy::Strict).expect("load");
        assert_eq!(records.len(), quick + spaced, "every commit is written once");
        assert!(records.iter().enumerate().all(|(i, r)| r.repeat == i));
        std::fs::remove_dir_all(&dir).ok();
    }
}
