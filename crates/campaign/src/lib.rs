//! # frlfi-campaign
//!
//! Declarative scenario & campaign orchestration for the FRL-FI
//! reproduction.
//!
//! The paper's entire evaluation is a family of fault-injection
//! campaigns — `(cell × repeat)` grids of independent trials. This
//! crate makes those campaigns *data* instead of code:
//!
//! * [`Scenario`] — a serde-backed, TOML-loadable description of one
//!   campaign: system, fleet, quantization, fault model, mitigation,
//!   [`Scale`](frlfi::Scale);
//! * [`registry`] — named built-ins covering the paper's two systems
//!   (`fig3a/b/c/e`, `fig5a/b/c`, `fig6a/b`, `fig7a/b`) plus new variants
//!   (`grid-dynamic`, `grid-dropout`, `grid-fleet`), and the
//!   train-once / eval-many studies (`fig4`, `fig8a/b`, `datatypes`,
//!   `layers`) that expand into task DAGs instead of flat sweeps;
//! * [`artifacts`] — the DAG's train half: model-weight artifacts
//!   published atomically into `<dir>/artifacts/` and recorded in
//!   append-only `artifacts.jsonl`; eval tasks gate on the records
//!   and load frozen weights instead of retraining;
//! * [`runner`] — [`runner::run`]: one multi-threaded worker loop over
//!   a claim source (in-memory cursors, or `claims.jsonl` leases) that
//!   streams per-trial records to a JSONL log and **resumes**
//!   interrupted campaigns by skipping persisted `(cell, repeat)`
//!   trials; statistics are bit-identical to an uninterrupted run at
//!   any thread count;
//! * [`coord`] — the multi-process worker/lease subsystem: with
//!   [`CoordMode::Shared`], N runner processes share one campaign
//!   directory through an append-only `claims.jsonl` (atomic claim
//!   acquisition, heartbeat renewal, stale-lease reaping), and the
//!   result stays byte-identical to the single-process run;
//! * [`io`] — chaos-aware campaign I/O: every runner / coord /
//!   profile file operation routes through deterministic fault
//!   injection (`--chaos-seed` / `CAMPAIGN_CHAOS`) and bounded
//!   retry with backoff; [`quarantine`] — poison-trial quarantine
//!   and degraded summaries once the retry budget is spent;
//! * [`profile`] — offline aggregation of the opt-in [`frlfi_obs`]
//!   telemetry streams (`campaign run --obs` writes
//!   `<dir>/obs/worker-<id>.jsonl`): per-worker per-phase wall-clock
//!   tables, counters, histograms, observed throughput and ETA;
//! * the `campaign` binary — `campaign run <spec.toml | builtin>`,
//!   `campaign list`, `campaign resume <dir>`, `campaign worker <dir>`
//!   (join a campaign as one process of many), `campaign status <dir>`,
//!   `campaign profile <dir>`.
//!
//! Trial evaluation goes through the [`frlfi::experiments::harness`]
//! trial functions with a `derive_seed` scheme per `(cell, repeat)`,
//! so a TOML-specified Fig. 3a campaign and the `fig3a` builtin give
//! the same bytes; `tests/orchestration.rs` pins the builtin's cell
//! statistics bit for bit.
//!
//! ```no_run
//! use frlfi::Scale;
//! use frlfi_campaign::{registry, runner, runner::RunnerConfig};
//!
//! let scenario = registry::builtin("fig3a", Scale::Smoke).expect("built-in");
//! let out = runner::run(&scenario, "runs/fig3a-smoke".as_ref(), &RunnerConfig::default())
//!     .expect("campaign");
//! println!("{}", out.table.expect("complete").render());
//! ```

pub mod artifacts;
pub mod coord;
pub mod fmt;
pub mod io;
pub mod perf;
pub mod profile;
pub mod quarantine;
pub mod registry;
pub mod runner;
pub mod spec;
pub mod top;
pub mod trace;

pub use artifacts::{ArtifactRecord, ArtifactTracker};
pub use coord::{
    CampaignStatus, CoordConfig, CoordConfigError, Coordinator, KindCounts, TaskKinds,
};
pub use io::RetryPolicy;
pub use profile::{CheckMode, Profile, WorkerProfile};
pub use quarantine::QuarantineRecord;
pub use runner::{CampaignOutcome, CoordMode, RunnerConfig, TrialRecord};
pub use spec::{
    Campaign, CellGrid, MetricSpec, ModelSpec, Scenario, SpecError, StudySpec, SystemKind, Trials,
};
