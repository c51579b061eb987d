//! Multi-process campaign coordination: the worker/lease subsystem.
//!
//! A campaign directory doubles as a **shared work queue**: N runner
//! processes (`campaign run --shared`, `campaign worker`) point at one
//! directory and split its `(cell × repeat)` trials between them
//! through an append-only claim log:
//!
//! ```text
//! <dir>/claims.jsonl — one JSON record per claim/renewal, append-only
//! ```
//!
//! ## Claim protocol
//!
//! Claim acquisition is **lock-free append + re-read arbitration** on
//! the fsync'd log — there is no lock file to leak when a worker dies:
//!
//! 1. read `trials.jsonl` (completed set) and `claims.jsonl`;
//! 2. pick an incomplete trial that is unclaimed, or whose winning
//!    claim's lease deadline has passed;
//! 3. append a `ClaimRecord` carrying this worker's id and a lease
//!    deadline (`now + lease_ms`), and fsync it;
//! 4. re-read the log and arbitrate: the worker owns the trial iff
//!    its record won. Losers simply move on to another trial.
//!
//! Arbitration is a pure function of log order: for each trial, the
//! highest claim *generation* wins, and within a generation the first
//! record in the log wins. A fresh claim uses generation 0; reaping an
//! expired lease appends generation `g + 1`. Because appends with
//! `O_APPEND` are atomic for these short records, every process that
//! re-reads the log agrees on the winner.
//!
//! ## Leases, heartbeats and reaping
//!
//! A claim is a *lease*, not a lock. The `Coordinator`'s heartbeat
//! thread appends renewal records (same trial, same generation, later
//! deadline) at `lease_ms / 3` cadence for every trial its process has
//! in flight, so healthy workers keep their claims indefinitely. When
//! a worker is SIGKILLed its renewals stop, the lease expires, and any
//! other worker re-claims the trial at the next generation.
//!
//! ## Why every race is benign
//!
//! Trial evaluation is a pure function of `(cell, seed)` with the seed
//! derived from the campaign master seed, so the worst outcome of any
//! coordination race — two workers running the same trial after a
//! clock-skewed reap, a slow worker finishing a trial that was already
//! re-claimed — is a **duplicate, bitwise-identical** record in
//! `trials.jsonl`, which the trial log's one reader, `TrialTracker`,
//! dedupes. Coordination affects who burns the CPU, never what
//! `summary.txt` says: an N-process campaign is byte-identical to the
//! single-process, single-thread run.

use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Map, Value};

use crate::artifacts::ArtifactTracker;
use crate::fmt::json;
use crate::io::{self, lock_recover};
use crate::quarantine::{QuarantineKind, QuarantineReader};
use crate::runner::{LogPolicy, TrialRecord};
use crate::spec::Campaign;

/// File name of the claim log inside a campaign directory.
pub(crate) const CLAIMS_FILE: &str = "claims.jsonl";

/// The shortest usable lease: the heartbeat renews at `lease_ms / 3`
/// cadence on a 25 ms tick, so a lease below ~6 ticks cannot be
/// renewed reliably and the worker pathologically self-reaps —
/// every claim expires before its own heartbeat lands, burning CPU
/// on generation bumps and duplicate (if still bitwise-identical)
/// trial runs. [`CoordConfig::validate`] rejects such leases at
/// CLI/config level with a typed error.
pub(crate) const MIN_LEASE_MS: u64 = 150;

/// A rejected [`CoordConfig`] — the typed error `--lease-ms`
/// validation surfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordConfigError {
    message: String,
}

impl std::fmt::Display for CoordConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CoordConfigError {}

/// Milliseconds since the Unix epoch. Leases compare wall-clock time
/// across processes (and possibly machines); modest clock skew only
/// shifts *when* a stale lease is reaped, never what the campaign
/// computes.
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One appended claim-log record: a claim or a heartbeat renewal
/// (renewals are claims for a trial/generation the worker already
/// holds; arbitration folds them into the winner's deadline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClaimRecord {
    /// Flat trial index: `cell * repeats + repeat`.
    pub(crate) trial: usize,
    /// Claim generation: 0 for a fresh trial, `g + 1` when reaping the
    /// expired generation-`g` lease.
    pub(crate) generation: u64,
    /// Claiming worker's id.
    pub(crate) worker: String,
    /// Lease deadline, milliseconds since the Unix epoch.
    pub(crate) deadline_ms: u64,
    /// When the record was issued (ms since the Unix epoch). Purely
    /// informational — arbitration never reads it — it is what lets
    /// `campaign status` show per-worker elapsed time and heartbeat
    /// age. `0` on records from builds that predate the field.
    pub(crate) ts_ms: u64,
}

impl ClaimRecord {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("trial".into(), Value::Int(self.trial as i64));
        m.insert("gen".into(), Value::Int(self.generation as i64));
        m.insert("worker".into(), Value::Str(self.worker.clone()));
        m.insert("deadline_ms".into(), Value::Int(self.deadline_ms as i64));
        m.insert("ts_ms".into(), Value::Int(self.ts_ms as i64));
        Value::Table(m)
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let get_int = |k: &str| {
            v.get(k)
                .and_then(Value::as_int)
                .ok_or_else(|| format!("claim record missing integer `{k}`"))
        };
        let worker = match v.get("worker") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("claim record missing string `worker`".into()),
        };
        Ok(ClaimRecord {
            trial: get_int("trial")? as usize,
            generation: get_int("gen")? as u64,
            worker,
            deadline_ms: get_int("deadline_ms")? as u64,
            // Older logs predate the field; 0 reads as "unknown".
            ts_ms: v.get("ts_ms").and_then(Value::as_int).unwrap_or(0) as u64,
        })
    }
}

/// The arbitration winner for one trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TrialClaim {
    /// Winning generation.
    pub(crate) generation: u64,
    /// Winning worker id.
    pub(crate) worker: String,
    /// Effective lease deadline: the maximum over the winner's records
    /// at the winning generation, so renewals extend the lease.
    pub(crate) deadline_ms: u64,
}

impl TrialClaim {
    /// Whether the lease has passed at wall-clock `now_ms`.
    pub(crate) fn expired(&self, now_ms: u64) -> bool {
        self.deadline_ms <= now_ms
    }
}

/// Folds one claim record into the arbitration state, in log order.
fn fold_claim(winners: &mut HashMap<usize, TrialClaim>, r: &ClaimRecord) {
    match winners.get_mut(&r.trial) {
        None => {
            winners.insert(
                r.trial,
                TrialClaim {
                    generation: r.generation,
                    worker: r.worker.clone(),
                    deadline_ms: r.deadline_ms,
                },
            );
        }
        Some(w) => {
            if r.generation > w.generation {
                *w = TrialClaim {
                    generation: r.generation,
                    worker: r.worker.clone(),
                    deadline_ms: r.deadline_ms,
                };
            } else if r.generation == w.generation && r.worker == w.worker {
                w.deadline_ms = w.deadline_ms.max(r.deadline_ms);
            }
            // Same generation, different worker: first in log order
            // already won; the later record is a lost race.
        }
    }
}

/// Splits `buf` into complete lines (each **excluding** its trailing
/// `\n`), returning them plus the number of bytes consumed. An
/// incomplete trailing piece — a record some writer is mid-append on,
/// or a dead writer's torn tail — is left unconsumed so the caller
/// retries it once it is completed (or healed into a full line).
fn complete_lines(buf: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut lines = Vec::new();
    let mut consumed = 0;
    while let Some(pos) = buf[consumed..].iter().position(|&b| b == b'\n') {
        lines.push(&buf[consumed..consumed + pos]);
        consumed += pos + 1;
    }
    (lines, consumed)
}

/// How a [`JsonlTailReader`] fold rejects a line.
pub(crate) enum FoldError {
    /// The line is not JSON or not a valid record, but safely
    /// ignorable: warn with the line number and the call site's
    /// stated consequence, and keep going.
    Skip(String),
    /// The record proves the log is not this campaign's (wrong
    /// coordinates or seed scheme), or a strict reader refuses it:
    /// abort the refresh.
    Fatal(String),
    /// The line is bad, and only a single writer's crash-cut tail may
    /// be: if it is the last complete line read, warn and leave it
    /// unconsumed, like an unterminated tail (so the writer truncates
    /// it off); anywhere else it is [`FoldError::Fatal`].
    Tail(String),
}

/// A bare message rejects leniently: `?` on a `Result<_, String>`
/// inside a fold skips the line.
impl From<String> for FoldError {
    fn from(e: String) -> Self {
        FoldError::Skip(e)
    }
}

/// The incremental JSONL tail reader behind every log view in a
/// campaign directory: the one typed reader each log has (trials,
/// claims, artifacts, quarantine; see [`StatusView`]) and every obs
/// stream reader. It remembers the byte offset of the last complete
/// line parsed and, on refresh, reads and folds **only the appended
/// tail** — so a per-claim poll costs O(new records), not O(log),
/// however large the append-only log grows (heartbeat renewals grow
/// `claims.jsonl` without bound). Old bytes are never re-read, so a
/// permanently corrupt line warns once per process, not once per
/// poll; an incomplete trailing piece stays unconsumed until its
/// writer completes it (or a healer turns it into a full line).
pub(crate) struct JsonlTailReader {
    path: PathBuf,
    /// The retry/chaos tag of this log's reads (`claims.read`,
    /// `trials.read`); `None` reads with plain `std::fs`, outside the
    /// chaos shim and its retry loop.
    tag: Option<&'static str>,
    offset: u64,
    line_no: usize,
}

impl JsonlTailReader {
    pub(crate) fn new(path: PathBuf, tag: &'static str) -> Self {
        JsonlTailReader { path, tag: Some(tag), offset: 0, line_no: 0 }
    }

    /// A reader whose reads bypass the [`crate::io`] chaos shim and
    /// retry loop: for the quarantine log, which is written *because*
    /// instrumented I/O failed and must stay readable while the
    /// injector is armed.
    pub(crate) fn uninstrumented(path: PathBuf) -> Self {
        JsonlTailReader { path, tag: None, offset: 0, line_no: 0 }
    }

    /// Hands every complete line appended since the last refresh to
    /// `fold` as its JSON parse: `Err` for a line that is not JSON at
    /// all (a torn fragment healed into an interior line). `fold`
    /// decides whether a bad line is a [`FoldError::Skip`] — warned
    /// about with `skip_note`, the call site's statement of what
    /// losing the line costs — a [`FoldError::Fatal`], or a
    /// [`FoldError::Tail`]. Returns whether a trailing piece (a torn
    /// tail, a record mid-append, or a last line the fold calls
    /// [`FoldError::Tail`]) was left unconsumed. The read runs under
    /// the [`crate::io`] retry policy; the offset only advances on
    /// success, so a retried read re-reads the same tail.
    pub(crate) fn refresh(
        &mut self,
        skip_note: &str,
        mut fold: impl FnMut(Result<Value, String>) -> Result<(), FoldError>,
    ) -> Result<bool, String> {
        let (tag, path, offset) = (self.tag, &self.path, self.offset);
        let read_tail = || {
            let opened = match tag {
                Some(tag) => io::open_read(tag, path),
                None => std::fs::File::open(path),
            };
            let mut file = match opened {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
                Err(e) => return Err(e),
                Ok(f) => f,
            };
            let len = file.metadata()?.len();
            if len <= offset {
                return Ok(Some(Vec::new()));
            }
            file.seek(SeekFrom::Start(offset))?;
            let mut buf = Vec::with_capacity((len - offset) as usize);
            match tag {
                Some(tag) => io::read_to_end(tag, &mut file, &mut buf)?,
                None => {
                    file.read_to_end(&mut buf)?;
                }
            }
            Ok(Some(buf))
        };
        let buf = match tag {
            Some(tag) => io::with_retry(tag, read_tail),
            None => read_tail(),
        }
        .map_err(|e| format!("read {}: {e}", self.path.display()))?;
        let Some(buf) = buf else { return Ok(false) }; // no log yet
        let (lines, consumed) = complete_lines(&buf);
        self.offset += consumed as u64;
        let n_lines = lines.len();
        for (i, raw) in lines.into_iter().enumerate() {
            self.line_no += 1;
            let line = String::from_utf8_lossy(raw);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (e, tail) = match fold(json::parse(line).map_err(|e| e.to_string())) {
                Ok(()) => continue,
                Err(FoldError::Skip(e)) => (e, false),
                Err(FoldError::Tail(e)) if i + 1 == n_lines => (e, true),
                Err(FoldError::Fatal(e) | FoldError::Tail(e)) => {
                    return Err(format!("{} line {}: {e}", self.path.display(), self.line_no))
                }
            };
            frlfi_obs::warn!(
                "{} line {}: {e}; skipping line ({skip_note})",
                self.path.display(),
                self.line_no
            );
            if tail {
                self.offset -= raw.len() as u64 + 1;
                self.line_no -= 1;
                return Ok(true);
            }
        }
        Ok(consumed < buf.len())
    }
}

/// What skipping a bad claim-log line costs.
const CLAIM_SKIP: &str =
    "claims are advisory: a lost claim at worst re-runs its trial bitwise-identically";

/// The one typed reader of the claim log: a [`JsonlTailReader`]
/// whose fold is `fold_claim` — exact, because arbitration is an
/// order-based fold — plus each worker's first and last record issue
/// times over the whole log (completed trials' claims and heartbeat
/// renewals count toward a worker's elapsed time and heartbeat age).
struct ClaimReader {
    tail: JsonlTailReader,
    state: HashMap<usize, TrialClaim>,
    /// Per worker: `(first, last)` record `ts_ms`, over the records
    /// that carry one.
    seen: HashMap<String, (u64, u64)>,
}

impl ClaimReader {
    fn new(dir: &Path) -> Self {
        ClaimReader {
            tail: JsonlTailReader::new(dir.join(CLAIMS_FILE), "claims.read"),
            state: HashMap::new(),
            seen: HashMap::new(),
        }
    }

    /// Folds every complete line appended since the last refresh.
    fn refresh(&mut self) -> Result<(), String> {
        let (state, seen) = (&mut self.state, &mut self.seen);
        self.tail.refresh(CLAIM_SKIP, |v| {
            let r = ClaimRecord::from_value(&v?)?;
            fold_claim(state, &r);
            // A record that predates the `ts_ms` field has no stamp.
            if r.ts_ms > 0 {
                let (first, last) = seen.entry(r.worker).or_insert((r.ts_ms, r.ts_ms));
                *first = (*first).min(r.ts_ms);
                *last = (*last).max(r.ts_ms);
            }
            Ok(())
        })?;
        Ok(())
    }
}

/// The append-only claim log of one campaign directory.
#[derive(Debug, Clone)]
pub(crate) struct ClaimLog {
    path: PathBuf,
}

impl ClaimLog {
    /// The claim log of campaign directory `dir`.
    pub(crate) fn in_dir(dir: &Path) -> Self {
        ClaimLog { path: dir.join(CLAIMS_FILE) }
    }

    /// Appends one record and fsyncs it — the durability the re-read
    /// arbitration step relies on. If the log does not end in a
    /// newline (a writer died mid-append), a newline is written first
    /// so the torn fragment becomes its own skippable line instead of
    /// merging with this record. The whole open-heal-append-fsync
    /// step runs under the [`crate::io`] retry policy — it is
    /// idempotent at line granularity (a short-written fragment gets
    /// healed into its own skippable line by the retry).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failures.
    pub(crate) fn append(&self, record: &ClaimRecord) -> Result<(), String> {
        let line = json::render(&record.to_value());
        io::with_retry("claims.append", || {
            let mut file = io::open_append("claims.append", &self.path)?;
            append_jsonl_line("claims.append", &mut file, &line)
        })
        .map_err(|e| format!("append {}: {e}", self.path.display()))
    }
}

/// The one shared-log durability protocol, used for `claims.jsonl`
/// and shared-mode `trials.jsonl` alike: if the log does not end in a
/// newline (a writer died mid-append), write one first so the torn
/// fragment becomes its own skippable line instead of merging with
/// this record; then append the record as a **single** `O_APPEND`
/// write (so concurrent processes interleave line-atomically) and
/// fsync it (the durability the re-read arbitration and crash-resume
/// guarantees rest on). `file` must be open in append+read mode.
/// `tag` names the logical operation to the [`crate::io`] chaos
/// injector and retry counters (`claims.append`, `trials.append`).
pub(crate) fn append_jsonl_line(
    tag: &'static str,
    file: &mut std::fs::File,
    json_line: &str,
) -> std::io::Result<()> {
    let mut buf = String::with_capacity(json_line.len() + 2);
    if !ends_with_newline(file)? {
        buf.push('\n');
    }
    buf.push_str(json_line);
    buf.push('\n');
    io::write_all(tag, file, buf.as_bytes())?;
    io::sync_data(tag, file)
}

/// Whether `file` is empty or its last byte is `\n` (read via a seek
/// that does not disturb the `O_APPEND` write position — appends
/// ignore the seek cursor).
pub(crate) fn ends_with_newline(file: &mut std::fs::File) -> std::io::Result<bool> {
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(true);
    }
    file.seek(SeekFrom::Start(len - 1))?;
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte)?;
    Ok(byte[0] == b'\n')
}

/// Options of one shared-mode worker process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordConfig {
    /// This worker's id, as recorded in claim records. Must be unique
    /// per process instance (reusing a live worker's id makes the two
    /// fight over leases; results stay correct, CPU is wasted).
    pub worker_id: String,
    /// Lease duration in milliseconds. A claim not renewed within this
    /// window counts as stale and may be reaped by any worker. Must
    /// comfortably exceed the heartbeat cadence (`lease_ms / 3`);
    /// trials longer than the lease are covered by renewals.
    pub lease_ms: u64,
    /// How long a worker sleeps between queue polls when every
    /// incomplete trial is validly claimed by someone else.
    pub poll_ms: u64,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig { worker_id: default_worker_id(), lease_ms: 30_000, poll_ms: 500 }
    }
}

impl CoordConfig {
    /// Validates user-facing knobs — what the CLI/config layer calls
    /// before constructing a `Coordinator`. Rejects leases shorter
    /// than `MIN_LEASE_MS` (too short for the `lease_ms / 3`
    /// heartbeat cadence: the worker would self-reap — see the
    /// constant's docs) and empty worker ids.
    ///
    /// Library tests that deliberately build pathological configs
    /// (e.g. a 1 ms lease to simulate a crashed worker) construct
    /// the struct directly and skip this.
    ///
    /// # Errors
    ///
    /// Returns a [`CoordConfigError`] naming the offending knob.
    pub fn validate(&self) -> Result<(), CoordConfigError> {
        if self.lease_ms < MIN_LEASE_MS {
            return Err(CoordConfigError {
                message: format!(
                    "--lease-ms {} is below the minimum {MIN_LEASE_MS}: the heartbeat renews \
                     at lease/3 cadence on a 25 ms tick, so shorter leases expire before \
                     their own renewals land and the worker pathologically self-reaps",
                    self.lease_ms
                ),
            });
        }
        if self.worker_id.is_empty() {
            return Err(CoordConfigError {
                message: "--worker-id must not be empty (claim records need an owner)".into(),
            });
        }
        Ok(())
    }
}

/// A worker id unique per process instance: pid plus startup clock, so
/// a SIGKILLed worker's replacement (same pid space, same host) never
/// collides with the corpse's claims.
pub(crate) fn default_worker_id() -> String {
    format!("w{}-{:x}", std::process::id(), now_ms() & 0xFFFF_FFFF)
}

struct CoordShared {
    log: ClaimLog,
    worker_id: String,
    lease_ms: u64,
    /// Trials this process currently has in flight, with the
    /// generation each was won at — the heartbeat renewal set.
    active: Mutex<HashMap<usize, u64>>,
}

/// The per-process coordination handle: claim acquisition for worker
/// threads plus the background heartbeat that keeps this process's
/// leases alive. Dropping the coordinator stops the heartbeat (any
/// leases still held then simply expire).
pub(crate) struct Coordinator {
    shared: Arc<CoordShared>,
    cfg: CoordConfig,
    /// The process-wide incremental view of the claim log. Locking it
    /// also serializes claim attempts across this process's worker
    /// threads so they never race each other for the same trial
    /// (cross-process races are settled by log arbitration).
    reader: Mutex<ClaimReader>,
    stop: Arc<AtomicBool>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

impl Coordinator {
    /// Creates the coordination handle for campaign directory `dir`
    /// and starts the heartbeat thread.
    pub(crate) fn new(dir: &Path, cfg: CoordConfig) -> Self {
        let shared = Arc::new(CoordShared {
            log: ClaimLog::in_dir(dir),
            worker_id: cfg.worker_id.clone(),
            lease_ms: cfg.lease_ms,
            active: Mutex::new(HashMap::new()),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let heartbeat = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || heartbeat_loop(&shared, &stop))
        };
        Coordinator {
            shared,
            cfg,
            reader: Mutex::new(ClaimReader::new(dir)),
            stop,
            heartbeat: Some(heartbeat),
        }
    }

    /// Claims the first acquirable trial out of `pending`, scanning
    /// from `offset` (callers stagger offsets to spread workers over
    /// the queue). The claim log is loaded and arbitrated **once per
    /// call**, not once per candidate — candidates that are validly
    /// claimed by others are skipped against that snapshot, and only
    /// an actual acquisition attempt costs an append + one re-read
    /// (which also refreshes the snapshot for the remaining
    /// candidates if the attempt loses its race).
    ///
    /// # Errors
    ///
    /// Returns a message on claim-log I/O failures.
    pub(crate) fn claim_next(
        &self,
        pending: &[usize],
        offset: usize,
    ) -> Result<Option<usize>, String> {
        if pending.is_empty() {
            return Ok(None);
        }
        // Poison recovery, not `.expect`: a worker thread that
        // panicked mid-claim must not cascade into killing this
        // process's other claim holders (the reader re-reads the log
        // tail idempotently; the active set holds independent
        // entries — both stay consistent under an interrupted
        // update).
        let mut reader = lock_recover(&self.reader);
        reader.refresh()?;
        for k in 0..pending.len() {
            let trial = pending[(k + offset) % pending.len()];
            if lock_recover(&self.shared.active).contains_key(&trial) {
                // Another thread of this process is already running it.
                continue;
            }
            let now = now_ms();
            let generation = match reader.state.get(&trial) {
                None => 0,
                Some(w) if w.expired(now) => {
                    frlfi_obs::count("coord.reap", 1);
                    frlfi_obs::info!(
                        "reaping stale lease on trial {trial} (worker {} went quiet)",
                        w.worker
                    );
                    w.generation + 1
                }
                Some(_) => continue,
            };
            frlfi_obs::count("coord.claim.attempt", 1);
            self.shared.log.append(&ClaimRecord {
                trial,
                generation,
                worker: self.cfg.worker_id.clone(),
                deadline_ms: now + self.cfg.lease_ms,
                ts_ms: now,
            })?;
            // Re-read arbitration (tail only): did our record win its
            // generation? The refresh also folds any concurrent
            // appends, keeping the snapshot fresh for the remaining
            // candidates if this attempt lost its race.
            reader.refresh()?;
            let won = matches!(
                reader.state.get(&trial),
                Some(w) if w.generation == generation && w.worker == self.cfg.worker_id
            );
            if won {
                frlfi_obs::count("coord.claim.won", 1);
                lock_recover(&self.shared.active).insert(trial, generation);
                return Ok(Some(trial));
            }
            // Arbitration loss: another process's append beat ours.
            frlfi_obs::count("coord.claim.lost", 1);
        }
        Ok(None)
    }

    /// Marks `trial` finished: drops it from the heartbeat set (its
    /// lease simply expires; completion itself is what the trial log
    /// records).
    pub(crate) fn complete(&self, trial: usize) {
        lock_recover(&self.shared.active).remove(&trial);
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
    }
}

/// Renews every in-flight lease at `lease_ms / 3` cadence until told
/// to stop. Renewal failures are non-fatal: a missed heartbeat at
/// worst lets another worker duplicate a trial bitwise-identically.
fn heartbeat_loop(shared: &CoordShared, stop: &AtomicBool) {
    let interval = (shared.lease_ms / 3).max(50);
    let tick = std::time::Duration::from_millis(25);
    let mut elapsed = 0u64;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        elapsed += tick.as_millis() as u64;
        if elapsed < interval {
            continue;
        }
        elapsed = 0;
        let renewals: Vec<(usize, u64)> = {
            let active = lock_recover(&shared.active);
            active.iter().map(|(&t, &g)| (t, g)).collect()
        };
        let now = now_ms();
        for (trial, generation) in renewals {
            frlfi_obs::count("coord.heartbeat", 1);
            let _ = shared.log.append(&ClaimRecord {
                trial,
                generation,
                worker: shared.worker_id.clone(),
                deadline_ms: now + shared.lease_ms,
                ts_ms: now,
            });
        }
        // The heartbeat thread never runs trials, so it drains its own
        // counters each renewal round instead of relying on trial-end
        // flushes.
        frlfi_obs::flush();
    }
}

/// One worker's live footprint in a campaign directory, as seen by
/// [`status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStatus {
    /// Worker id.
    pub worker: String,
    /// Incomplete trials this worker holds an unexpired lease on.
    pub active_trials: Vec<usize>,
    /// Latest lease deadline across those trials (ms since epoch).
    pub latest_deadline_ms: u64,
    /// When this worker's first claim record was issued (ms since
    /// epoch; 0 when every record predates the `ts_ms` field) — the
    /// basis of the status table's per-worker elapsed column.
    pub first_seen_ms: u64,
    /// When this worker's most recent record (claim or heartbeat
    /// renewal) was issued — the basis of the last-heartbeat-age
    /// column. 0 when unknown.
    pub last_seen_ms: u64,
}

/// Counts of one task kind in a study campaign, bucketed by state.
///
/// Buckets are disjoint: `done` wins over everything, an unexpired
/// claim wins over quarantine, and `pending` is the remainder —
/// `pending + claimed + quarantined + done` covers the kind's whole
/// task count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Not done, unclaimed, unquarantined — free for any worker.
    pub pending: usize,
    /// Held under an unexpired lease.
    pub claimed: usize,
    /// Durably complete (a trial record / an artifact record).
    pub done: usize,
    /// Carrying an advisory quarantine record and still incomplete.
    pub quarantined: usize,
}

/// The per-task-kind breakdown of a study (task-DAG) campaign: train
/// tasks publish model artifacts, eval trials gate on them. `None` on
/// classic flat-sweep campaigns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskKinds {
    /// Model-training tasks (claim ids `0..n_models`).
    pub train: KindCounts,
    /// Eval trials (claim ids `n_models + flat`).
    pub eval: KindCounts,
    /// Unsatisfied dependencies blocking every pending eval task:
    /// models whose artifact record has not landed, as
    /// `model-<i> (<label>)`. Empty once the artifact gate is open.
    pub unsatisfied: Vec<String>,
}

/// A point-in-time snapshot of a campaign directory's coordination
/// state: progress plus who is working on what.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStatus {
    /// Scenario name.
    pub name: String,
    /// Scenario scale, rendered (`Smoke`/`Bench`/`Full`).
    pub scale: String,
    /// Cells in the campaign grid.
    pub cells: usize,
    /// Repeats per cell.
    pub repeats: usize,
    /// Trials persisted in `trials.jsonl`.
    pub completed_trials: usize,
    /// Total `(cell × repeat)` trials.
    pub total_trials: usize,
    /// Workers holding unexpired leases on incomplete trials.
    pub workers: Vec<WorkerStatus>,
    /// Incomplete trials whose lease has expired — work a crashed
    /// worker left behind, re-claimable by anyone.
    pub stale_claims: usize,
    /// Incomplete trials with a `quarantine.jsonl` record — work some
    /// worker exhausted its I/O retries on. Advisory: a healthy
    /// worker re-runs them bitwise-identically (completed trials with
    /// stale quarantine records are not counted).
    pub quarantined: usize,
    /// Whether `summary.txt` has been written.
    pub summary_written: bool,
    /// Study campaigns only: the per-task-kind breakdown (train vs
    /// eval) plus the dependencies blocking eval tasks.
    pub tasks: Option<TaskKinds>,
}

impl CampaignStatus {
    /// Completion as a percentage.
    pub fn percent(&self) -> f64 {
        if self.total_trials == 0 {
            100.0
        } else {
            100.0 * self.completed_trials as f64 / self.total_trials as f64
        }
    }
}

/// What skipping a bad trial-log line costs.
const TRIAL_SKIP: &str =
    "a lost trial record only costs a bitwise-identical re-run, so statistics are unaffected";

/// Validates one persisted record's coordinates and seed against the
/// campaign's seed scheme (a mismatch means the log belongs to a
/// different campaign) and returns its flat trial index.
fn record_flat_index(campaign: &Campaign, r: &TrialRecord) -> Result<usize, String> {
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

/// The one typed reader of `trials.jsonl` and the one completion map
/// of a campaign: each flat trial's value, `None` until its record is
/// read or committed. A [`JsonlTailReader`] whose fold validates each
/// record against the campaign's seed scheme, so a shared worker's
/// per-claim poll costs O(new records), not O(log); safe because a
/// log is only ever truncated at open, before anything past the
/// reader's offset is kept. A record with wrong coordinates or seed is
/// fatal wherever it sits — the log belongs to a different campaign.
/// Any other bad line is read under the [`LogPolicy`]: skipped
/// (lenient), or fatal unless it is the last complete line, which is
/// left unconsumed like an unterminated tail (strict). An unterminated
/// tail is never counted. Duplicate records (a reaped trial finished
/// by two workers) are bitwise-identical; the later one overwrites.
pub(crate) struct TrialTracker {
    tail: JsonlTailReader,
    policy: LogPolicy,
    values: Vec<Option<f64>>,
}

impl TrialTracker {
    pub(crate) fn new(dir: &Path, campaign: &Campaign, policy: LogPolicy) -> Self {
        TrialTracker {
            tail: JsonlTailReader::new(dir.join(crate::runner::TRIALS_FILE), "trials.read"),
            policy,
            values: vec![None; campaign.total_trials()],
        }
    }

    /// Folds every complete line appended since the last refresh.
    pub(crate) fn refresh(&mut self, campaign: &Campaign) -> Result<(), String> {
        let (values, policy) = (&mut self.values, self.policy);
        self.tail.refresh(TRIAL_SKIP, |v| {
            let r = v.and_then(|v| TrialRecord::from_value(&v)).map_err(|e| match policy {
                LogPolicy::Strict => FoldError::Tail(e),
                LogPolicy::Lenient => FoldError::Skip(e),
            })?;
            values[record_flat_index(campaign, &r).map_err(FoldError::Fatal)?] = Some(r.value);
            Ok(())
        })?;
        Ok(())
    }

    /// Byte length of the log prefix read so far: every complete line
    /// but a bad last one under [`LogPolicy::Strict`]. What a strict
    /// writer truncates the log back to before appending.
    pub(crate) fn consumed(&self) -> u64 {
        self.tail.offset
    }

    /// Records a trial this process committed, without reading it back.
    pub(crate) fn mark(&mut self, trial: usize, value: f64) {
        self.values[trial] = Some(value);
    }

    /// Each flat trial's value, `None` while it is missing.
    pub(crate) fn values(&self) -> &[Option<f64>] {
        &self.values
    }

    /// How many trials have a value.
    pub(crate) fn completed(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    /// Flat indices of the trials still missing, ascending.
    pub(crate) fn missing(&self) -> impl Iterator<Item = usize> + '_ {
        self.values.iter().enumerate().filter(|(_, v)| v.is_none()).map(|(t, _)| t)
    }
}

/// The live view of a campaign directory behind `campaign status` and
/// `campaign top`: the expanded campaign, loaded once, plus the one
/// typed reader of each of its logs. [`StatusView::refresh`] folds
/// only the bytes appended since the last call, so refreshing an idle
/// campaign reads no log bytes.
pub(crate) struct StatusView {
    dir: PathBuf,
    campaign: Campaign,
    trials: TrialTracker,
    claims: ClaimReader,
    artifacts: ArtifactTracker,
    quarantine: QuarantineReader,
}

impl StatusView {
    /// Opens campaign directory `dir`: reads and expands its manifest
    /// once. No log is read until [`StatusView::refresh`].
    ///
    /// # Errors
    ///
    /// A directory without a readable, expandable `campaign.toml`.
    pub(crate) fn open(dir: &Path) -> Result<StatusView, String> {
        let scenario = crate::runner::load_scenario(&dir.join("campaign.toml"))?;
        let campaign = scenario.expand().map_err(|e| e.to_string())?;
        Ok(StatusView {
            dir: dir.to_path_buf(),
            // A bystander reads shared logs too, whose healed fragments
            // are interior lines: it skips every bad line.
            trials: TrialTracker::new(dir, &campaign, LogPolicy::Lenient),
            claims: ClaimReader::new(dir),
            artifacts: ArtifactTracker::new(dir, campaign.n_models()),
            quarantine: QuarantineReader::new(dir),
            campaign,
        })
    }

    /// Folds what every log gained since the last refresh.
    ///
    /// # Errors
    ///
    /// I/O failures, or a trial record of another campaign.
    pub(crate) fn refresh(&mut self) -> Result<(), String> {
        self.trials.refresh(&self.campaign)?;
        self.claims.refresh()?;
        if self.campaign.n_models() > 0 {
            self.artifacts.refresh()?;
        }
        self.quarantine.refresh()
    }

    /// The latest claim-log record stamp of `worker` (ms since epoch),
    /// if any of its records carries one.
    pub(crate) fn last_claim_ms(&self, worker: &str) -> Option<u64> {
        self.claims.seen.get(worker).map(|&(_, last)| last)
    }

    /// The status snapshot as of the last refresh, leases judged at
    /// the current wall-clock time.
    pub(crate) fn status(&self) -> CampaignStatus {
        let campaign = &self.campaign;
        let total = campaign.total_trials();
        let done = |t: usize| self.trials.values[t].is_some();
        let completed = self.trials.completed();

        // Study campaigns put *tasks* in the claim log, not bare trials:
        // ids below `n_models` are train tasks — done once their artifact
        // record lands — and eval trials sit at `n_models + flat`.
        // `n_models` is 0 for classic campaigns, so nothing shifts there.
        let n_models = campaign.n_models();
        let published = |m: usize| self.artifacts.digest(m).is_some();

        let now = now_ms();
        let mut workers: HashMap<String, WorkerStatus> = HashMap::new();
        let mut stale = 0usize;
        let mut train_claimed = 0usize;
        let mut eval_claimed = 0usize;
        for (&task, claim) in &self.claims.state {
            let is_train = task < n_models;
            let moot = if is_train {
                published(task) // artifact landed
            } else {
                let trial = task - n_models;
                trial >= total || done(trial) // finished or foreign
            };
            if moot {
                continue;
            }
            if claim.expired(now) {
                stale += 1;
                continue;
            }
            if is_train {
                train_claimed += 1;
            } else {
                eval_claimed += 1;
            }
            let w = workers.entry(claim.worker.clone()).or_insert_with(|| {
                let (first, last) = self.claims.seen.get(&claim.worker).copied().unwrap_or((0, 0));
                WorkerStatus {
                    worker: claim.worker.clone(),
                    active_trials: Vec::new(),
                    latest_deadline_ms: 0,
                    first_seen_ms: first,
                    last_seen_ms: last,
                }
            });
            w.active_trials.push(task);
            w.latest_deadline_ms = w.latest_deadline_ms.max(claim.deadline_ms);
        }
        let mut workers: Vec<WorkerStatus> = workers.into_values().collect();
        for w in &mut workers {
            w.active_trials.sort_unstable();
        }
        workers.sort_by(|a, b| a.worker.cmp(&b.worker));

        // Quarantine records are advisory — only those naming a task
        // that is still incomplete count (a completed trial record / a
        // published artifact overrides).
        let eval_quarantined =
            self.quarantine.count(QuarantineKind::Trial, |t| t < total && !done(t));
        let train_quarantined =
            self.quarantine.count(QuarantineKind::Train, |m| m < n_models && !published(m));

        let tasks = campaign.study().map(|g| {
            let train_done = (0..n_models).filter(|&m| published(m)).count();
            let eval_done = completed;
            TaskKinds {
                train: KindCounts {
                    pending: n_models
                        .saturating_sub(train_done + train_claimed + train_quarantined),
                    claimed: train_claimed,
                    done: train_done,
                    quarantined: train_quarantined,
                },
                eval: KindCounts {
                    pending: total.saturating_sub(eval_done + eval_claimed + eval_quarantined),
                    claimed: eval_claimed,
                    done: eval_done,
                    quarantined: eval_quarantined,
                },
                unsatisfied: (0..n_models)
                    .filter(|&m| !published(m))
                    .map(|m| format!("model-{m} ({})", g.models()[m].label()))
                    .collect(),
            }
        });

        CampaignStatus {
            name: campaign.scenario.name.clone(),
            scale: format!("{:?}", campaign.scenario.scale),
            cells: campaign.trials.len(),
            repeats: campaign.repeats,
            completed_trials: completed,
            total_trials: total,
            workers,
            stale_claims: stale,
            quarantined: eval_quarantined + train_quarantined,
            summary_written: self.dir.join("summary.txt").exists(),
            tasks,
        }
    }
}

/// Reads the live coordination state of campaign directory `dir` (the
/// `campaign status` command): a `StatusView` opened and refreshed
/// once.
///
/// # Errors
///
/// Returns a message if the directory is not a campaign directory, a
/// log is unreadable, or the trial log belongs to another campaign.
pub fn status(dir: &Path) -> Result<CampaignStatus, String> {
    let mut view = StatusView::open(dir)?;
    view.refresh()?;
    Ok(view.status())
}

#[cfg(test)]
impl JsonlTailReader {
    /// Byte offset of the last complete line consumed: everything
    /// before it is never read again. The `campaign top` tests sum
    /// offset deltas to check per-tick read cost.
    pub(crate) fn offset(&self) -> u64 {
        self.offset
    }
}

#[cfg(test)]
impl StatusView {
    /// Log bytes consumed so far across the view's four readers.
    pub(crate) fn consumed(&self) -> u64 {
        self.trials.consumed()
            + self.claims.tail.offset()
            + self.artifacts.consumed()
            + self.quarantine.consumed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::atomic::AtomicUsize;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "frlfi-coord-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn rec(trial: usize, generation: u64, worker: &str, deadline_ms: u64) -> ClaimRecord {
        ClaimRecord { trial, generation, worker: worker.into(), deadline_ms, ts_ms: 0 }
    }

    /// The arbitration oracle: `fold_claim` over whole records in log
    /// order, one winner per trial.
    fn arbitrate(records: &[ClaimRecord]) -> HashMap<usize, TrialClaim> {
        let mut winners = HashMap::new();
        for r in records {
            fold_claim(&mut winners, r);
        }
        winners
    }

    /// Every parseable record of `dir`'s claim log, read in one pass.
    fn load(dir: &Path) -> Vec<ClaimRecord> {
        let mut records = Vec::new();
        JsonlTailReader::new(dir.join(CLAIMS_FILE), "claims.read")
            .refresh(CLAIM_SKIP, |v| {
                records.push(ClaimRecord::from_value(&v?)?);
                Ok(())
            })
            .expect("read claim log");
        records
    }

    #[test]
    fn first_record_wins_within_a_generation() {
        let w = arbitrate(&[rec(3, 0, "a", 100), rec(3, 0, "b", 999)]);
        assert_eq!(w[&3].worker, "a");
        assert_eq!(w[&3].deadline_ms, 100);
    }

    #[test]
    fn higher_generation_supersedes() {
        let w = arbitrate(&[rec(3, 0, "a", 100), rec(3, 1, "b", 200), rec(3, 0, "a", 999)]);
        assert_eq!(w[&3].worker, "b");
        assert_eq!(w[&3].generation, 1);
        // The stale generation-0 renewal cannot resurrect `a`.
        assert_eq!(w[&3].deadline_ms, 200);
    }

    #[test]
    fn renewals_extend_the_winners_deadline() {
        let w = arbitrate(&[rec(5, 0, "a", 100), rec(5, 0, "a", 300), rec(5, 0, "b", 400)]);
        assert_eq!(w[&5].worker, "a");
        assert_eq!(w[&5].deadline_ms, 300, "b's lost race must not extend a's lease");
    }

    #[test]
    fn claim_log_round_trips_and_skips_garbage() {
        let dir = temp_dir("log");
        let log = ClaimLog::in_dir(&dir);
        assert_eq!(load(&dir), Vec::new());
        log.append(&rec(1, 0, "a", 10)).expect("append");
        log.append(&rec(2, 1, "b", 20)).expect("append");
        // A torn tail from a killed writer...
        let mut f =
            std::fs::OpenOptions::new().append(true).open(dir.join(CLAIMS_FILE)).expect("open");
        write!(f, "{{\"trial\":9,\"ge").expect("torn tail");
        drop(f);
        // ...is skipped on load, and healed into its own line by the
        // next append instead of merging with it.
        assert_eq!(load(&dir), vec![rec(1, 0, "a", 10), rec(2, 1, "b", 20)]);
        log.append(&rec(3, 0, "c", 30)).expect("append heals");
        assert_eq!(load(&dir), vec![rec(1, 0, "a", 10), rec(2, 1, "b", 20), rec(3, 0, "c", 30)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Tries to acquire the lease on one trial.
    fn try_claim(c: &Coordinator, trial: usize) -> bool {
        c.claim_next(&[trial], 0).expect("claim").is_some()
    }

    #[test]
    fn coordinator_claims_arbitrates_and_reaps() {
        let dir = temp_dir("coordinator");
        let mk = |id: &str, lease_ms: u64| {
            Coordinator::new(
                &dir,
                CoordConfig { worker_id: id.into(), lease_ms, ..CoordConfig::default() },
            )
        };
        let a = mk("a", 60_000);
        let b = mk("b", 60_000);
        assert!(try_claim(&a, 0), "fresh trial must be claimable");
        assert!(!try_claim(&b, 0), "live lease must repel other workers");
        assert!(!try_claim(&a, 0), "own in-flight trial is not re-claimable");
        assert!(try_claim(&b, 1), "other trials stay claimable");

        // A crashed worker: lease expires without renewal, any worker
        // reaps at the next generation.
        let c = mk("c", 1);
        assert!(try_claim(&c, 2));
        drop(c); // heartbeat stops; the 1 ms lease is long gone
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(try_claim(&b, 2), "expired lease must be re-claimable");
        let state = arbitrate(&load(&dir));
        assert_eq!(state[&2].generation, 1, "reaping bumps the generation");
        assert_eq!(state[&2].worker, "b");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn claim_next_scans_past_live_leases_from_one_snapshot() {
        let dir = temp_dir("claim-next");
        let mk = |id: &str| {
            Coordinator::new(
                &dir,
                CoordConfig { worker_id: id.into(), lease_ms: 60_000, ..CoordConfig::default() },
            )
        };
        let a = mk("a");
        let b = mk("b");
        assert_eq!(a.claim_next(&[0, 1, 2], 0).expect("claim"), Some(0));
        // b's scan starts at 0 but skips a's live lease and wins 1.
        assert_eq!(b.claim_next(&[0, 1, 2], 0).expect("claim"), Some(1));
        // a skips its own in-flight trial and b's lease; offset wraps.
        assert_eq!(a.claim_next(&[0, 1, 2], 2).expect("claim"), Some(2));
        assert_eq!(b.claim_next(&[0, 1, 2], 0).expect("claim"), None, "queue exhausted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_validation_rejects_pathological_leases() {
        let ok = CoordConfig { worker_id: "w".into(), lease_ms: MIN_LEASE_MS, poll_ms: 50 };
        assert!(ok.validate().is_ok());
        let short = CoordConfig { lease_ms: MIN_LEASE_MS - 1, ..ok.clone() };
        let err = short.validate().expect_err("short lease");
        assert!(err.to_string().contains("self-reap"), "{err}");
        assert!(err.to_string().contains("--lease-ms"), "{err}");
        let anon = CoordConfig { worker_id: String::new(), ..ok };
        assert!(anon.validate().is_err(), "empty worker id");
    }

    #[test]
    fn heartbeat_renews_in_flight_leases() {
        let dir = temp_dir("heartbeat");
        let coordinator = Coordinator::new(
            &dir,
            CoordConfig { worker_id: "hb".into(), lease_ms: 180, ..CoordConfig::default() },
        );
        assert!(try_claim(&coordinator, 0));
        let first = arbitrate(&load(&dir))[&0].deadline_ms;
        // Well past the original 180 ms lease, renewals (every ~60 ms)
        // must have pushed the deadline forward.
        std::thread::sleep(std::time::Duration::from_millis(400));
        let state = arbitrate(&load(&dir));
        assert!(!state[&0].expired(now_ms()), "heartbeat must keep the lease alive");
        assert!(state[&0].deadline_ms > first, "renewals must extend the deadline");
        // Completion drops the trial from the renewal set.
        coordinator.complete(0);
        let last = arbitrate(&load(&dir))[&0].deadline_ms;
        std::thread::sleep(std::time::Duration::from_millis(200));
        let state = arbitrate(&load(&dir));
        assert_eq!(state[&0].deadline_ms, last, "completed trials are not renewed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
