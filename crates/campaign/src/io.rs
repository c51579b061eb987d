//! Chaos-aware campaign I/O: deterministic infrastructure fault
//! injection and bounded retry with backoff.
//!
//! The campaign stack injects faults into the *modeled* system (BER
//! bit flips, dropout) as a matter of course; this module gives the
//! stack's own infrastructure the same treatment. Every file
//! operation the runner / coord / profile paths perform — open, read,
//! append, write, fsync, rename — routes through the wrappers here,
//! and when chaos mode is **armed** ([`chaos::arm`], the
//! `--chaos-seed` flag or the `CAMPAIGN_CHAOS` environment variable)
//! the wrappers inject seed-derived faults at chosen operation
//! indices:
//!
//! * **transient EIO** — the operation fails once with an I/O error;
//! * **short writes** — a prefix of the buffer really reaches the
//!   file, then the write errors (the torn-tail shape a failing disk
//!   or a full filesystem produces);
//! * **failed fsyncs** — `sync_data`/`sync_all` errors after the
//!   write succeeded;
//! * **latency spikes** — the operation sleeps, then succeeds.
//!
//! Every injection is counted via [`frlfi_obs`]
//! (`chaos.inject.eio` / `.short_write` / `.fsync` / `.latency`), so
//! `campaign profile` shows exactly what a chaos run endured.
//!
//! **Disarmed — the default — each wrapper costs one relaxed atomic
//! load and a predictable branch** before the real `std::fs` call;
//! no lock, no clock read, no allocation.
//!
//! ## Retry policy
//!
//! `with_retry` classifies errors transient-vs-fatal and retries
//! transients with bounded exponential backoff plus seeded jitter.
//! Transient: injected chaos faults marked transient, `Interrupted` /
//! `TimedOut` / `WouldBlock`, and raw `EIO`/`EAGAIN` — the classes a
//! flaky network filesystem or overloaded host produces. Everything
//! else (`NotFound`, `PermissionDenied`, …) fails immediately.
//! Retries are counted (`io.retry`, `io.retry.recovered`,
//! `io.retry.exhausted`) so they surface in `campaign profile`. The
//! policy is tunable via `CAMPAIGN_RETRY=attempts,base_ms,cap_ms`.
//!
//! Callers wrap **logical** operations (one whole
//! append-heal-fsync protocol step, one whole-file read), not raw
//! syscalls, so a retry always re-runs a self-contained, idempotent
//! recovery path.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks a mutex, recovering from poison: a worker thread that
/// panicked while holding the lock must not cascade into killing the
/// process's other claim holders. Every value these mutexes guard
/// stays consistent under a mid-update panic (append-only vectors,
/// maps of independent entries, files whose partial writes the load
/// paths already heal), so continuing with the inner value is safe.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// SplitMix64 — the seed-derivation mix behind every injection
/// decision (deterministic, no global RNG state).
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What kind of filesystem operation a wrapper performs — bounds
/// which fault kinds can be injected into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpClass {
    /// Opening or creating a file / directory.
    Open,
    /// A bulk read.
    Read,
    /// A write (short-write eligible).
    Write,
    /// A durability barrier.
    Fsync,
    /// An atomic publish.
    Rename,
}

/// Deterministic infrastructure fault injection.
pub mod chaos {
    use super::*;

    /// Declarative chaos configuration. Parsed from the
    /// `CAMPAIGN_CHAOS` grammar: comma-separated `key=value` pairs
    /// plus the bare flag `persist` —
    /// `seed=7,rate=20,op=17,tag=trials.append,every=3,persist,latency-ms=5`.
    ///
    /// * `seed` — master seed; every injection decision and fault
    ///   kind derives from it.
    /// * `rate` — percent (0–100) of eligible operations hit with a
    ///   seed-derived fault.
    /// * `op` — force one fault at exactly this global operation
    ///   index (what the torture harness sweeps).
    /// * `tag` — restrict injection to operations whose tag contains
    ///   this substring (e.g. `trials.append`, `claims`, `publish`).
    /// * `every` — fault every Nth *matching* operation (first match
    ///   faults, its retry passes — the deterministic
    ///   transient-then-recover shape).
    /// * `persist` — injected faults recur on retry (every matching
    ///   operation fails, retries included): the quarantine trigger.
    /// * `latency-ms` — duration of injected latency spikes.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ChaosSpec {
        /// Master seed for injection decisions and fault kinds.
        pub seed: u64,
        /// Percent (0–100) of eligible operations faulted.
        pub rate: u8,
        /// Force one fault at exactly this operation index.
        pub op: Option<u64>,
        /// Restrict injection to tags containing this substring.
        pub tag: Option<String>,
        /// Fault every Nth matching operation (0 = off).
        pub every: u64,
        /// Faults recur on retry instead of clearing.
        pub persist: bool,
        /// Injected latency spike duration (ms).
        pub latency_ms: u64,
    }

    impl Default for ChaosSpec {
        fn default() -> Self {
            ChaosSpec {
                seed: 0,
                rate: 0,
                op: None,
                tag: None,
                every: 0,
                persist: false,
                latency_ms: 2,
            }
        }
    }

    impl ChaosSpec {
        /// A seed-only spec with the default fault rate — what
        /// `--chaos-seed N` arms.
        pub fn seeded(seed: u64) -> Self {
            ChaosSpec { seed, rate: 10, ..ChaosSpec::default() }
        }

        /// Parses the `CAMPAIGN_CHAOS` grammar.
        ///
        /// # Errors
        ///
        /// Returns a message naming the offending key or value.
        pub fn parse(text: &str) -> Result<Self, String> {
            let mut spec = ChaosSpec::default();
            for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                let (key, value) = part.split_once('=').unwrap_or((part, ""));
                let int = || -> Result<u64, String> {
                    value.parse().map_err(|e| format!("chaos spec `{key}`: {e}"))
                };
                match key {
                    "seed" => spec.seed = int()?,
                    "rate" => {
                        let r = int()?;
                        if r > 100 {
                            return Err(format!("chaos spec `rate` must be 0–100, got {r}"));
                        }
                        spec.rate = r as u8;
                    }
                    "op" => spec.op = Some(int()?),
                    "every" => spec.every = int()?,
                    "latency-ms" | "latency_ms" => spec.latency_ms = int()?,
                    "tag" => spec.tag = Some(value.to_owned()),
                    "persist" => spec.persist = true,
                    other => return Err(format!("unknown chaos spec key `{other}`")),
                }
            }
            if spec.persist && spec.tag.is_none() && spec.op.is_none() {
                return Err("chaos spec `persist` needs a `tag` (or `op`) to bound the blast \
                            radius — persistent faults on every operation would also break \
                            the recovery paths under test"
                    .into());
            }
            Ok(spec)
        }
    }

    /// The fault kinds the injector produces.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum FaultKind {
        Eio,
        ShortWrite,
        FsyncFail,
        Latency,
    }

    impl FaultKind {
        pub(super) fn counter(self) -> &'static str {
            match self {
                FaultKind::Eio => "chaos.inject.eio",
                FaultKind::ShortWrite => "chaos.inject.short_write",
                FaultKind::FsyncFail => "chaos.inject.fsync",
                FaultKind::Latency => "chaos.inject.latency",
            }
        }
    }

    struct ChaosState {
        spec: ChaosSpec,
        /// Global operation index: every injection-eligible operation
        /// (every attempt, retries included) takes the next index.
        ops: u64,
        /// Tag-matching operation count — the `every` denominator.
        matched: u64,
        /// Faults injected since arm.
        injected: u64,
        /// The one thread whose operations the injector sees (`None`:
        /// every thread, as [`arm`] sets it).
        owner: Option<std::thread::ThreadId>,
    }

    /// One relaxed load on the disarmed fast path.
    static ARMED: AtomicBool = AtomicBool::new(false);
    static STATE: Mutex<Option<ChaosState>> = Mutex::new(None);

    /// Arms chaos mode: subsequent campaign I/O routes every
    /// operation through the injector. Resets the operation counter.
    pub fn arm(spec: ChaosSpec) {
        arm_for(spec, None);
    }

    /// [`arm`], seen only by the operations of thread `owner` when it
    /// is set: other threads' operations run clean and take no
    /// operation index. Unit tests share their process with other
    /// tests doing campaign I/O, so they arm for their own thread.
    pub(super) fn arm_for(spec: ChaosSpec, owner: Option<std::thread::ThreadId>) {
        *lock_recover(&STATE) = Some(ChaosState { spec, ops: 0, matched: 0, injected: 0, owner });
        ARMED.store(true, Ordering::Release);
    }

    /// Disarms chaos mode; campaign I/O reverts to plain `std::fs`
    /// behind one branch.
    pub fn disarm() {
        ARMED.store(false, Ordering::Release);
        *lock_recover(&STATE) = None;
    }

    /// Whether chaos mode is armed.
    pub(crate) fn armed() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    /// Operations counted since [`arm`] (attempts, retries included).
    /// Arm a `rate=0` spec to count a fault-free run's operations —
    /// how the torture harness sizes its sweep.
    pub fn ops() -> u64 {
        lock_recover(&STATE).as_ref().map_or(0, |s| s.ops)
    }

    /// Faults injected since [`arm`].
    pub fn injected() -> u64 {
        lock_recover(&STATE).as_ref().map_or(0, |s| s.injected)
    }

    /// The injection decision for one operation. `None` = run the
    /// real operation.
    pub(super) fn decide(tag: &str, class: OpClass) -> Option<FaultKind> {
        let mut guard = lock_recover(&STATE);
        let state = guard.as_mut()?;
        if state.owner.is_some_and(|t| t != std::thread::current().id()) {
            return None;
        }
        let idx = state.ops;
        state.ops += 1;
        if let Some(want) = &state.spec.tag {
            if !tag.contains(want.as_str()) {
                return None;
            }
        }
        let matched = state.matched;
        state.matched += 1;
        let h = mix(state.spec.seed, idx);
        let hit = state.spec.persist
            || state.spec.op == Some(idx)
            || (state.spec.every > 0 && matched % state.spec.every == 0)
            || (state.spec.rate > 0 && h % 100 < state.spec.rate as u64);
        if !hit {
            return None;
        }
        // Fault kind derives from the seed too, bounded by what the
        // operation class can physically exhibit. Persistent faults
        // never inject latency (a spike always "recovers", which
        // would defeat the quarantine trigger under test).
        let pick = (h >> 8) % 4;
        let kind = match class {
            OpClass::Write => match pick {
                0 if !state.spec.persist => FaultKind::Latency,
                1 => FaultKind::ShortWrite,
                _ => FaultKind::Eio,
            },
            OpClass::Fsync => {
                if pick == 0 && !state.spec.persist {
                    FaultKind::Latency
                } else {
                    FaultKind::FsyncFail
                }
            }
            OpClass::Open | OpClass::Read | OpClass::Rename => {
                if pick == 0 && !state.spec.persist {
                    FaultKind::Latency
                } else {
                    FaultKind::Eio
                }
            }
        };
        state.injected += 1;
        frlfi_obs::count(kind.counter(), 1);
        Some(kind)
    }

    /// Latency spike duration from the armed spec.
    pub(super) fn latency_ms() -> u64 {
        lock_recover(&STATE).as_ref().map_or(0, |s| s.spec.latency_ms)
    }
}

/// The error payload of an injected fault: carries the transient
/// classification [`with_retry`] reads, and names the injection in
/// error chains (`injected transient EIO (chaos)`).
#[derive(Debug)]
struct ChaosFault {
    what: &'static str,
}

impl std::fmt::Display for ChaosFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected transient {} (chaos)", self.what)
    }
}

impl std::error::Error for ChaosFault {}

fn chaos_error(what: &'static str) -> std::io::Error {
    std::io::Error::other(ChaosFault { what })
}

/// Consults the injector before a non-write operation; sleeps through
/// latency spikes, turns EIO/fsync faults into errors.
fn check(tag: &str, class: OpClass) -> std::io::Result<()> {
    if !chaos::armed() {
        return Ok(());
    }
    match chaos::decide(tag, class) {
        None => Ok(()),
        Some(chaos::FaultKind::Latency) => {
            std::thread::sleep(std::time::Duration::from_millis(chaos::latency_ms()));
            Ok(())
        }
        Some(chaos::FaultKind::FsyncFail) => Err(chaos_error("fsync failure")),
        Some(chaos::FaultKind::ShortWrite) | Some(chaos::FaultKind::Eio) => Err(chaos_error("EIO")),
    }
}

/// Classifies an error transient (worth retrying) vs fatal. Injected
/// chaos faults are transient by construction — persistence is
/// modeled by the injector re-faulting the retry, exactly like a
/// genuinely failing disk.
pub(crate) fn is_transient(e: &std::io::Error) -> bool {
    if e.get_ref().is_some_and(|inner| inner.is::<ChaosFault>()) {
        return true;
    }
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
    ) || matches!(e.raw_os_error(), Some(5 /* EIO */) | Some(11 /* EAGAIN */))
}

/// Bounded-retry policy: `attempts` total tries, exponential backoff
/// from `base_ms` capped at `cap_ms`, seeded jitter on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub(crate) attempts: u32,
    /// First backoff sleep (ms); doubles per retry.
    pub(crate) base_ms: u64,
    /// Backoff ceiling (ms).
    pub(crate) cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 4, base_ms: 5, cap_ms: 80 }
    }
}

impl RetryPolicy {
    /// Parses the `CAMPAIGN_RETRY=attempts,base_ms,cap_ms` grammar.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed values or zero attempts.
    pub(crate) fn parse(text: &str) -> Result<Self, String> {
        let parts: Vec<&str> = text.split(',').map(str::trim).collect();
        let [attempts, base_ms, cap_ms] = parts[..] else {
            return Err("CAMPAIGN_RETRY wants `attempts,base_ms,cap_ms`".into());
        };
        let policy = RetryPolicy {
            attempts: attempts.parse().map_err(|e| format!("CAMPAIGN_RETRY attempts: {e}"))?,
            base_ms: base_ms.parse().map_err(|e| format!("CAMPAIGN_RETRY base_ms: {e}"))?,
            cap_ms: cap_ms.parse().map_err(|e| format!("CAMPAIGN_RETRY cap_ms: {e}"))?,
        };
        if policy.attempts == 0 {
            return Err("CAMPAIGN_RETRY attempts must be ≥ 1".into());
        }
        Ok(policy)
    }
}

/// The process retry policy: `CAMPAIGN_RETRY` or the default.
/// (A malformed value falls back to the default with a warning —
/// a typo must not disable retries.)
pub(crate) fn retry_policy() -> RetryPolicy {
    static POLICY: OnceLock<RetryPolicy> = OnceLock::new();
    *POLICY.get_or_init(|| match std::env::var("CAMPAIGN_RETRY") {
        Err(_) => RetryPolicy::default(),
        Ok(text) => RetryPolicy::parse(&text).unwrap_or_else(|e| {
            frlfi_obs::warn!("{e}; using the default retry policy");
            RetryPolicy::default()
        }),
    })
}

/// Monotonic retry sequence — the jitter stream index.
static RETRY_SEQ: AtomicU64 = AtomicU64::new(0);

/// Runs a **logical, idempotent** I/O operation under the process
/// retry policy: transient failures ([`is_transient`]) back off
/// exponentially with seeded jitter and re-run the whole closure;
/// fatal errors and exhausted budgets propagate. Counted via
/// [`frlfi_obs`]: `io.retry` per retry sleep, `io.retry.recovered`
/// per operation that succeeded after retrying, `io.retry.exhausted`
/// per operation that ran out of attempts.
///
/// # Errors
///
/// The first fatal error, or the last transient error once the
/// attempt budget is spent.
pub(crate) fn with_retry<T>(
    tag: &'static str,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let policy = retry_policy();
    let mut attempt: u32 = 1;
    loop {
        match op() {
            Ok(v) => {
                if attempt > 1 {
                    frlfi_obs::count("io.retry.recovered", 1);
                }
                return Ok(v);
            }
            Err(e) if !is_transient(&e) => return Err(e),
            Err(e) if attempt >= policy.attempts => {
                frlfi_obs::count("io.retry.exhausted", 1);
                frlfi_obs::warn!(
                    "{tag}: transient I/O error persisted through {attempt} attempts: {e}"
                );
                return Err(e);
            }
            Err(e) => {
                frlfi_obs::count("io.retry", 1);
                frlfi_obs::info!("{tag}: transient I/O error (attempt {attempt}): {e}; retrying");
                let exp = policy.base_ms.saturating_shl(attempt - 1).min(policy.cap_ms);
                let jitter =
                    mix(0x0C4A_05F1, RETRY_SEQ.fetch_add(1, Ordering::Relaxed)) % (exp.max(1));
                std::thread::sleep(std::time::Duration::from_millis(exp + jitter / 2));
                attempt += 1;
            }
        }
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if shift >= 63 {
            u64::MAX
        } else {
            self.checked_shl(shift).unwrap_or(u64::MAX)
        }
    }
}

// ---- Chaos-aware operation wrappers -------------------------------
//
// Each wrapper consults the injector once (one branch when disarmed)
// and then performs the real `std::fs` operation. Callers compose
// them inside `with_retry` closures at logical-operation granularity.

/// `std::fs::create_dir_all` behind the injector.
///
/// # Errors
///
/// Injected faults or real I/O errors.
pub(crate) fn create_dir_all(tag: &'static str, path: &Path) -> std::io::Result<()> {
    check(tag, OpClass::Open)?;
    std::fs::create_dir_all(path)
}

/// `File::open` (read-only) behind the injector.
///
/// # Errors
///
/// Injected faults or real I/O errors.
pub(crate) fn open_read(tag: &'static str, path: &Path) -> std::io::Result<File> {
    check(tag, OpClass::Open)?;
    File::open(path)
}

/// Opens (creating if needed) in append+read mode behind the
/// injector — the shared-log handle shape.
///
/// # Errors
///
/// Injected faults or real I/O errors.
pub(crate) fn open_append(tag: &'static str, path: &Path) -> std::io::Result<File> {
    check(tag, OpClass::Open)?;
    std::fs::OpenOptions::new().create(true).append(true).read(true).open(path)
}

/// `File::create` (truncating) behind the injector.
///
/// # Errors
///
/// Injected faults or real I/O errors.
pub(crate) fn create_trunc(tag: &'static str, path: &Path) -> std::io::Result<File> {
    check(tag, OpClass::Open)?;
    File::create(path)
}

/// Reads a whole file to a string behind the injector.
///
/// # Errors
///
/// Injected faults or real I/O errors.
pub(crate) fn read_to_string(tag: &'static str, path: &Path) -> std::io::Result<String> {
    check(tag, OpClass::Read)?;
    std::fs::read_to_string(path)
}

/// `Read::read_to_end` behind the injector.
///
/// # Errors
///
/// Injected faults or real I/O errors.
pub(crate) fn read_to_end(
    tag: &'static str,
    file: &mut File,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    check(tag, OpClass::Read)?;
    file.read_to_end(buf).map(|_| ())
}

/// `Write::write_all` behind the injector. A **short-write** fault
/// really persists a prefix of `buf` before erroring — the torn
/// shape every loader in the campaign directory already heals — so
/// the retrying caller must re-establish its framing (truncate back,
/// or heal the fragment into its own line) rather than resume
/// mid-buffer.
///
/// # Errors
///
/// Injected faults or real I/O errors.
pub(crate) fn write_all(tag: &'static str, file: &mut File, buf: &[u8]) -> std::io::Result<()> {
    if chaos::armed() {
        match chaos::decide(tag, OpClass::Write) {
            None => {}
            Some(chaos::FaultKind::Latency) => {
                std::thread::sleep(std::time::Duration::from_millis(chaos::latency_ms()));
            }
            Some(chaos::FaultKind::ShortWrite) => {
                file.write_all(&buf[..buf.len() / 2])?;
                return Err(chaos_error("short write"));
            }
            Some(_) => return Err(chaos_error("EIO")),
        }
    }
    file.write_all(buf)
}

/// `File::sync_data` behind the injector.
///
/// # Errors
///
/// Injected faults or real I/O errors.
pub(crate) fn sync_data(tag: &'static str, file: &File) -> std::io::Result<()> {
    check(tag, OpClass::Fsync)?;
    file.sync_data()
}

/// `File::sync_all` behind the injector.
///
/// # Errors
///
/// Injected faults or real I/O errors.
pub(crate) fn sync_all(tag: &'static str, file: &File) -> std::io::Result<()> {
    check(tag, OpClass::Fsync)?;
    file.sync_all()
}

/// `std::fs::rename` behind the injector.
///
/// # Errors
///
/// Injected faults or real I/O errors.
pub(crate) fn rename(tag: &'static str, from: &Path, to: &Path) -> std::io::Result<()> {
    check(tag, OpClass::Rename)?;
    std::fs::rename(from, to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Chaos state is process-global; tests that arm it serialize.
    static CHAOS_LOCK: Mutex<()> = Mutex::new(());

    /// Arms `spec` for the calling test's thread only, so the I/O of
    /// tests running on other threads neither takes operation indices
    /// nor meets an injected fault.
    fn arm_this_thread(spec: chaos::ChaosSpec) {
        chaos::arm_for(spec, Some(std::thread::current().id()));
    }

    #[test]
    fn spec_parses_the_full_grammar() {
        let spec =
            chaos::ChaosSpec::parse("seed=7, rate=20, op=3, tag=trials, every=2, persist").unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.rate, 20);
        assert_eq!(spec.op, Some(3));
        assert_eq!(spec.tag.as_deref(), Some("trials"));
        assert_eq!(spec.every, 2);
        assert!(spec.persist);
        assert_eq!(chaos::ChaosSpec::parse("").unwrap(), chaos::ChaosSpec::default());
        assert!(chaos::ChaosSpec::parse("rate=200").is_err());
        assert!(chaos::ChaosSpec::parse("wat=1").is_err());
        assert!(
            chaos::ChaosSpec::parse("persist").is_err(),
            "unbounded persistent faults must be rejected"
        );
    }

    #[test]
    fn retry_policy_parses_and_rejects() {
        assert_eq!(
            RetryPolicy::parse("3,10,100").unwrap(),
            RetryPolicy { attempts: 3, base_ms: 10, cap_ms: 100 }
        );
        assert!(RetryPolicy::parse("0,1,1").is_err());
        assert!(RetryPolicy::parse("3,10").is_err());
    }

    #[test]
    fn transient_classification() {
        assert!(is_transient(&std::io::Error::from(std::io::ErrorKind::Interrupted)));
        assert!(is_transient(&std::io::Error::from(std::io::ErrorKind::TimedOut)));
        assert!(is_transient(&std::io::Error::from_raw_os_error(5)));
        assert!(is_transient(&chaos_error("EIO")));
        assert!(!is_transient(&std::io::Error::from(std::io::ErrorKind::NotFound)));
        assert!(!is_transient(&std::io::Error::from(std::io::ErrorKind::PermissionDenied)));
    }

    #[test]
    fn with_retry_recovers_transients_and_fails_fast_on_fatal() {
        let calls = AtomicUsize::new(0);
        let out = with_retry("test", || {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(chaos_error("EIO"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls.load(Ordering::Relaxed), 3);

        let calls = AtomicUsize::new(0);
        let out: std::io::Result<()> = with_retry("test", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(std::io::Error::from(std::io::ErrorKind::NotFound))
        });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1, "fatal errors must not retry");

        let calls = AtomicUsize::new(0);
        let out: std::io::Result<()> = with_retry("test", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(chaos_error("EIO"))
        });
        assert!(out.is_err());
        assert_eq!(
            calls.load(Ordering::Relaxed) as u32,
            retry_policy().attempts,
            "transient errors must exhaust the attempt budget"
        );
    }

    #[test]
    fn injection_is_deterministic_and_counted() {
        let _serial = lock_recover(&CHAOS_LOCK);
        let dir = std::env::temp_dir().join(format!("frlfi-io-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.jsonl");

        // rate=0: every op succeeds, ops are counted.
        arm_this_thread(chaos::ChaosSpec { seed: 1, ..chaos::ChaosSpec::default() });
        let mut f = open_append("t.open", &path).unwrap();
        write_all("t.write", &mut f, b"hello\n").unwrap();
        sync_data("t.fsync", &f).unwrap();
        let ops = chaos::ops();
        assert_eq!(ops, 3);
        assert_eq!(chaos::injected(), 0);

        // op=K: exactly one fault at index K (an error, or a latency
        // spike that succeeds after sleeping — both count), then clean.
        arm_this_thread(chaos::ChaosSpec { seed: 1, op: Some(1), ..chaos::ChaosSpec::default() });
        let mut f = open_append("t.open", &path).unwrap();
        // (an Ok here means the seed-derived fault kind was a latency
        // spike, which sleeps and succeeds — it still counts)
        if let Err(e) = write_all("t.write", &mut f, b"hello\n") {
            assert!(is_transient(&e), "{e}");
        }
        assert_eq!(chaos::injected(), 1);
        write_all("t.write", &mut f, b"hello\n").unwrap();
        assert_eq!(chaos::injected(), 1, "an op-targeted fault must not recur");

        // tag+persist: every matching op faults, others run clean.
        arm_this_thread(chaos::ChaosSpec {
            seed: 1,
            tag: Some("t.write".into()),
            persist: true,
            ..chaos::ChaosSpec::default()
        });
        let mut f = open_append("t.open", &path).unwrap();
        assert!(write_all("t.write", &mut f, b"x\n").is_err());
        assert!(write_all("t.write", &mut f, b"x\n").is_err(), "persistent faults recur");
        sync_data("t.fsync", &f).unwrap();

        // every=2 on a tag: first matching op faults, retry recovers.
        arm_this_thread(chaos::ChaosSpec {
            seed: 9,
            tag: Some("t.write".into()),
            every: 2,
            ..chaos::ChaosSpec::default()
        });
        let mut f = open_append("t.open", &path).unwrap();
        assert!(write_all("t.write", &mut f, b"x\n").is_err());
        assert!(write_all("t.write", &mut f, b"x\n").is_ok());
        assert!(write_all("t.write", &mut f, b"x\n").is_err());

        chaos::disarm();
        assert!(!chaos::armed());
        let mut f = open_append("t.open", &path).unwrap();
        write_all("t.write", &mut f, b"clean\n").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_persists_a_prefix() {
        let _serial = lock_recover(&CHAOS_LOCK);
        let dir = std::env::temp_dir().join(format!("frlfi-io-short-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.jsonl");
        // Find a seed whose first write op injects a short write.
        let mut found = false;
        for seed in 0..64 {
            arm_this_thread(chaos::ChaosSpec {
                seed,
                tag: Some("s.write".into()),
                persist: true,
                ..chaos::ChaosSpec::default()
            });
            let _ = std::fs::remove_file(&path);
            let mut f = open_append("s.open", &path).unwrap();
            let err = write_all("s.write", &mut f, b"0123456789\n").unwrap_err();
            let len = std::fs::metadata(&path).unwrap().len();
            if err.to_string().contains("short write") {
                assert_eq!(len, 5, "a short write must persist exactly half the buffer");
                found = true;
                break;
            }
            assert_eq!(len, 0, "a plain EIO must persist nothing");
        }
        chaos::disarm();
        assert!(found, "no seed in 0..64 produced a short write — kind derivation broken?");
        std::fs::remove_dir_all(&dir).ok();
    }
}
