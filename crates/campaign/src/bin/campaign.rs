//! The `campaign` CLI: run, list and resume declarative fault-injection
//! campaigns.
//!
//! ```text
//! campaign list
//! campaign expand <spec.toml | builtin-name | --all> [--scale smoke|bench|full]
//! campaign run <spec.toml | builtin-name> [--scale smoke|bench|full]
//!              [--out DIR] [--threads N] [--max-trials N] [--batched] [--wide]
//!              [--shared] [--worker-id ID] [--lease-ms N] [--obs] [--quiet]
//! campaign resume <dir> [--threads N] [--max-trials N] [--batched] [--wide]
//!                 [--shared] [--worker-id ID] [--lease-ms N] [--obs] [--quiet]
//! campaign worker <dir> [--threads N] [--max-trials N] [--batched]
//!                 [--worker-id ID] [--lease-ms N] [--obs] [--quiet]
//! campaign status <dir>
//! campaign profile <dir> [--check]
//! campaign trace <dir> [--trial N] [--out FILE.json]
//! campaign top <dir> [--once] [--interval-ms N]
//! campaign perf <dir> [--baseline FILE.json] [--gate PCT] [--out FILE.json]
//! ```
//!
//! `expand` validates and expands a scenario without running anything
//! (CI uses `expand --all` to prove every builtin declares cleanly at
//! every scale).
//!
//! Every trial trains and evaluates on the batched arena path;
//! `--batched` is still accepted and ignored. `--wide` appends the
//! per-cell mean/min/max/ci95 spread table to `summary.txt` (exclusive
//! mode only — in shared mode the summary must be a pure function of
//! the trial log; render the spread after completion with
//! `campaign resume <dir> --wide`).
//!
//! `--shared` turns the campaign directory into a multi-process work
//! queue (trials are leased through `claims.jsonl`); `worker` joins an
//! existing campaign as one process of many and runs until the whole
//! campaign completes; `status` prints live progress, active workers
//! (with per-worker elapsed time and heartbeat age) and stale claims.
//! The final `summary.txt` is byte-identical however many processes
//! took part.
//!
//! `--obs` (or `CAMPAIGN_OBS=1`) streams structured telemetry to
//! `<dir>/obs/worker-<id>.jsonl` — results stay byte-identical;
//! `profile` folds those streams into a per-worker per-phase
//! wall-clock table with throughput and ETA (`--check` additionally
//! fails on any schema-invalid event line); `--quiet` suppresses
//! warnings (`CAMPAIGN_LOG=quiet|warn|info|debug` sets the stderr
//! level globally).
//!
//! `--chaos-seed N` (or the richer `CAMPAIGN_CHAOS` grammar) arms
//! deterministic infrastructure fault injection against the
//! campaign's own file I/O — transient EIO, short writes, failed
//! fsyncs, latency spikes — exercising the retry/backoff and
//! quarantine machinery (see the README "Failure model" section).
//! A run whose trials exhaust their retries exits nonzero with an
//! explicitly marked degraded `summary.txt` unless `--allow-partial`.

use std::path::PathBuf;
use std::process::ExitCode;

use frlfi::Scale;
use frlfi_campaign::{
    coord, io, perf, profile, registry, runner, top, trace, CoordConfig, CoordMode, RunnerConfig,
    Scenario,
};

fn usage() -> &'static str {
    "usage:\n  \
     campaign list\n  \
     campaign expand <spec.toml | builtin-name | --all> [--scale smoke|bench|full]\n  \
     campaign run <spec.toml | builtin-name> [--scale smoke|bench|full] [--out DIR] \
     [--threads N] [--max-trials N] [--batched] [--wide] [--shared] [--worker-id ID] \
     [--lease-ms N] [--obs] [--quiet] [--chaos-seed N] [--allow-partial]\n  \
     campaign resume <dir> [--threads N] [--max-trials N] [--batched] [--wide] [--shared] \
     [--worker-id ID] [--lease-ms N] [--obs] [--quiet] [--chaos-seed N] [--allow-partial]\n  \
     campaign worker <dir> [--threads N] [--max-trials N] [--batched] \
     [--worker-id ID] [--lease-ms N] [--obs] [--quiet] [--chaos-seed N] [--allow-partial]\n  \
     campaign status <dir>\n  \
     campaign profile <dir> [--check]\n  \
     campaign trace <dir> [--trial N] [--out FILE.json]\n  \
     campaign top <dir> [--once] [--interval-ms N]\n  \
     campaign perf <dir> [--baseline FILE.json] [--gate PCT] [--out FILE.json]\n\n\
     --batched is accepted and ignored: every trial runs on the batched arena path;\n\
     CAMPAIGN_OBS=1 enables --obs; CAMPAIGN_LOG=quiet|warn|info|debug sets the stderr level;\n\
     CAMPAIGN_CHAOS=seed=N[,rate=P,tag=T,op=K,every=M,persist,latency-ms=L] arms fault \
     injection;\n\
     CAMPAIGN_RETRY=attempts,base_ms,cap_ms tunes the transient-I/O retry policy"
}

struct Options {
    scale: Option<Scale>,
    out: Option<PathBuf>,
    all: bool,
    shared: bool,
    check: bool,
    quiet: bool,
    chaos_seed: Option<u64>,
    trial: Option<u64>,
    once: bool,
    interval_ms: u64,
    baseline: Option<PathBuf>,
    gate: Option<f64>,
    coord: CoordConfig,
    cfg: RunnerConfig,
    positional: Vec<String>,
}

/// `CAMPAIGN_OBS` enables telemetry without touching scripts' flag
/// lists; empty or `0` means off.
fn env_obs() -> bool {
    std::env::var("CAMPAIGN_OBS").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        scale: None,
        out: None,
        all: false,
        shared: false,
        check: false,
        quiet: false,
        chaos_seed: None,
        trial: None,
        once: false,
        interval_ms: 1000,
        baseline: None,
        gate: None,
        coord: CoordConfig::default(),
        cfg: RunnerConfig { obs: env_obs(), ..RunnerConfig::default() },
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--all" => opts.all = true,
            "--scale" => {
                opts.scale = Some(match take("--scale")? {
                    "smoke" => Scale::Smoke,
                    "bench" => Scale::Bench,
                    "full" => Scale::Full,
                    other => return Err(format!("unknown scale {other:?}")),
                })
            }
            "--out" => opts.out = Some(PathBuf::from(take("--out")?)),
            "--threads" => {
                opts.cfg.threads =
                    take("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--max-trials" => {
                opts.cfg.max_new_trials =
                    Some(take("--max-trials")?.parse().map_err(|e| format!("--max-trials: {e}"))?)
            }
            // Accepted and ignored: every trial runs on the arena path.
            "--batched" => {}
            "--wide" => opts.cfg.wide_summary = true,
            "--shared" => opts.shared = true,
            "--obs" => opts.cfg.obs = true,
            "--check" => opts.check = true,
            "--quiet" => opts.quiet = true,
            "--worker-id" => opts.coord.worker_id = take("--worker-id")?.to_owned(),
            "--lease-ms" => {
                opts.coord.lease_ms =
                    take("--lease-ms")?.parse().map_err(|e| format!("--lease-ms: {e}"))?;
                // Typed validation: leases too short for the lease/3
                // heartbeat cadence make workers self-reap — reject
                // them here instead of letting the queue thrash.
                opts.coord.validate().map_err(|e| e.to_string())?;
                // Keep waiting workers responsive to short test leases.
                opts.coord.poll_ms = opts.coord.poll_ms.min(opts.coord.lease_ms / 2).max(10);
            }
            "--chaos-seed" => {
                opts.chaos_seed =
                    Some(take("--chaos-seed")?.parse().map_err(|e| format!("--chaos-seed: {e}"))?)
            }
            "--allow-partial" => opts.cfg.allow_partial = true,
            "--trial" => {
                opts.trial = Some(take("--trial")?.parse().map_err(|e| format!("--trial: {e}"))?)
            }
            "--once" => opts.once = true,
            "--interval-ms" => {
                opts.interval_ms =
                    take("--interval-ms")?.parse().map_err(|e| format!("--interval-ms: {e}"))?
            }
            "--baseline" => opts.baseline = Some(PathBuf::from(take("--baseline")?)),
            "--gate" => {
                opts.gate = Some(take("--gate")?.parse().map_err(|e| format!("--gate: {e}"))?)
            }
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other => opts.positional.push(other.to_owned()),
        }
    }
    if opts.shared {
        opts.coord.validate().map_err(|e| e.to_string())?;
        opts.cfg.coord = CoordMode::Shared(opts.coord.clone());
    }
    Ok(opts)
}

/// Arms chaos mode when requested: `--chaos-seed N` (the default
/// spec with that seed) or the full `CAMPAIGN_CHAOS` grammar; the
/// flag wins when both are present. Loud on purpose — a chaos-armed
/// run injects real faults into its own persistence.
fn arm_chaos(opts: &Options) -> Result<(), String> {
    let spec = if let Some(seed) = opts.chaos_seed {
        Some(io::chaos::ChaosSpec::seeded(seed))
    } else {
        match std::env::var("CAMPAIGN_CHAOS") {
            Ok(text) if !text.is_empty() && text != "0" => Some(
                io::chaos::ChaosSpec::parse(&text).map_err(|e| format!("CAMPAIGN_CHAOS: {e}"))?,
            ),
            _ => None,
        }
    };
    if let Some(spec) = spec {
        frlfi_obs::warn!(
            "chaos mode armed (seed {}, rate {}%): injecting deterministic I/O faults",
            spec.seed,
            spec.rate
        );
        io::chaos::arm(spec);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_cli(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err(usage().to_owned());
    };
    let opts = parse_options(&args[1..])?;
    if opts.quiet {
        frlfi_obs::set_log_level(frlfi_obs::Level::Quiet);
    }
    arm_chaos(&opts)?;
    match command.as_str() {
        "list" => {
            println!("built-in scenarios:");
            let mut last_system = None;
            for e in registry::entries() {
                if last_system != Some(e.system) {
                    println!("\n{:?}:", e.system);
                    last_system = Some(e.system);
                }
                println!("  {:<14} {}", e.name, e.description);
            }
            println!("\nrun one with: campaign run <name> --scale smoke");
            Ok(())
        }
        "expand" => {
            let scale = opts.scale.unwrap_or(Scale::Bench);
            let scenarios: Vec<Scenario> = if opts.all {
                if !opts.positional.is_empty() {
                    return Err("pass either a target or --all, not both".into());
                }
                registry::entries().iter().map(|e| e.scenario(scale)).collect()
            } else {
                let [ref target] = opts.positional[..] else {
                    return Err(usage().to_owned());
                };
                vec![load_target(target, scale)?]
            };
            for scenario in &scenarios {
                let campaign = scenario.expand().map_err(|e| format!("{}: {e}", scenario.name))?;
                println!(
                    "{:<14} {:?} @ {:?}: {} cells × {} repeats = {} trials",
                    scenario.name,
                    scenario.system,
                    scenario.scale,
                    campaign.trials.len(),
                    campaign.repeats,
                    campaign.total_trials(),
                );
            }
            Ok(())
        }
        "run" => {
            if opts.all {
                return Err("--all is only valid with `campaign expand`".into());
            }
            let [ref target] = opts.positional[..] else {
                return Err(usage().to_owned());
            };
            let scale = opts.scale.unwrap_or(Scale::Bench);
            let scenario = load_target(target, scale)?;
            let dir = opts.out.unwrap_or_else(|| {
                PathBuf::from(format!(
                    "runs/{}-{}",
                    scenario.name,
                    format!("{:?}", scenario.scale).to_lowercase()
                ))
            });
            report(&scenario, runner::run(&scenario, &dir, &opts.cfg)?, &dir);
            Ok(())
        }
        "resume" => {
            if opts.all {
                return Err("--all is only valid with `campaign expand`".into());
            }
            let [ref dir] = opts.positional[..] else {
                return Err(usage().to_owned());
            };
            let dir = PathBuf::from(dir);
            let scenario = runner::load_scenario(&dir.join("campaign.toml"))?;
            report(&scenario, runner::resume(&dir, &opts.cfg)?, &dir);
            Ok(())
        }
        "worker" => {
            let [ref dir] = opts.positional[..] else {
                return Err(usage().to_owned());
            };
            let dir = PathBuf::from(dir);
            let scenario = runner::load_scenario(&dir.join("campaign.toml")).map_err(|e| {
                format!(
                    "{e}\nworkers join an existing campaign — start one first with \
                     `campaign run <spec> --out {} --shared`",
                    dir.display()
                )
            })?;
            // A worker is always a shared-queue participant.
            opts.coord.validate().map_err(|e| e.to_string())?;
            let mut cfg = opts.cfg.clone();
            cfg.coord = CoordMode::Shared(opts.coord.clone());
            println!(
                "worker {} joining campaign {} in {}",
                opts.coord.worker_id,
                scenario.name,
                dir.display()
            );
            report(&scenario, runner::resume(&dir, &cfg)?, &dir);
            Ok(())
        }
        "status" => {
            let [ref dir] = opts.positional[..] else {
                return Err(usage().to_owned());
            };
            let dir = PathBuf::from(dir);
            print_status(&coord::status(&dir)?, &dir);
            Ok(())
        }
        "profile" => {
            let [ref dir] = opts.positional[..] else {
                return Err(usage().to_owned());
            };
            let dir = PathBuf::from(dir);
            let mode =
                if opts.check { profile::CheckMode::Strict } else { profile::CheckMode::Lenient };
            let p = profile::load_dir(&dir, mode)?;
            if opts.check && p.workers.is_empty() {
                return Err(format!(
                    "no obs streams under {}/{} — run with --obs (or CAMPAIGN_OBS=1) first",
                    dir.display(),
                    profile::OBS_DIR
                ));
            }
            // Remaining work comes from the campaign state when the
            // directory has one (a bare obs/ copy profiles fine, just
            // without an ETA).
            let remaining =
                coord::status(&dir).ok().map(|s| s.total_trials.saturating_sub(s.completed_trials));
            print!("{}", profile::render_report(&p, remaining));
            if opts.check {
                println!(
                    "check ok: {} events across {} stream(s), {} torn tail(s)",
                    p.events(),
                    p.workers.len(),
                    p.torn_tails
                );
            }
            Ok(())
        }
        "trace" => {
            let [ref dir] = opts.positional[..] else {
                return Err(usage().to_owned());
            };
            let dir = PathBuf::from(dir);
            let out = trace::export(&dir, &trace::TraceOptions { trial: opts.trial })?;
            match &opts.out {
                Some(path) => {
                    std::fs::write(path, &out.json)
                        .map_err(|e| format!("write {}: {e}", path.display()))?;
                    println!(
                        "wrote {} trace events to {} ({} skipped line(s), {} torn tail(s)) — \
                         load it at https://ui.perfetto.dev or chrome://tracing",
                        out.events,
                        path.display(),
                        out.skipped_lines,
                        out.torn_tails
                    );
                }
                None => println!("{}", out.json),
            }
            Ok(())
        }
        "top" => {
            let [ref dir] = opts.positional[..] else {
                return Err(usage().to_owned());
            };
            let dir = PathBuf::from(dir);
            top::run(&dir, &top::TopOptions { once: opts.once, interval_ms: opts.interval_ms })
        }
        "perf" => {
            let [ref dir] = opts.positional[..] else {
                return Err(usage().to_owned());
            };
            let dir = PathBuf::from(dir);
            let record = perf::measure(&dir, "")?;
            let rendered = frlfi_campaign::fmt::json::render(&record.to_value());
            if let Some(path) = &opts.out {
                std::fs::write(path, format!("{rendered}\n"))
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            println!("{rendered}");
            if let Some(baseline_path) = &opts.baseline {
                let text = std::fs::read_to_string(baseline_path)
                    .map_err(|e| format!("read {}: {e}", baseline_path.display()))?;
                let baseline = perf::parse_baseline(&text)
                    .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
                let gate = opts.gate.unwrap_or(25.0);
                let regressions = perf::compare(&record, &baseline, gate)?;
                if regressions.is_empty() {
                    println!("perf gate ok vs {} (gate {gate}%)", baseline_path.display());
                } else {
                    return Err(format!(
                        "perf gate FAILED vs {} (gate {gate}%):\n  {}",
                        baseline_path.display(),
                        regressions.join("\n  ")
                    ));
                }
            }
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn print_status(s: &coord::CampaignStatus, dir: &std::path::Path) {
    println!(
        "campaign {} ({}): {}/{} trials done ({:.0}%)",
        s.name,
        s.scale,
        s.completed_trials,
        s.total_trials,
        s.percent()
    );
    println!("  grid: {} cells × {} repeats", s.cells, s.repeats);
    if let Some(t) = &s.tasks {
        println!(
            "  tasks: train {} pending · {} claimed · {} done · {} quarantined",
            t.train.pending, t.train.claimed, t.train.done, t.train.quarantined
        );
        println!(
            "         eval  {} pending · {} claimed · {} done · {} quarantined",
            t.eval.pending, t.eval.claimed, t.eval.done, t.eval.quarantined
        );
        if !t.unsatisfied.is_empty() {
            println!("  eval tasks blocked on unpublished artifacts: {}", t.unsatisfied.join(", "));
        }
    }
    if s.workers.is_empty() {
        println!("  workers: none active");
    } else {
        println!("  workers: {} active", s.workers.len());
        let now = coord::now_ms();
        // Ages derive from the claim log's record timestamps; `?`
        // marks workers whose records predate the ts_ms field.
        let age = |ts_ms: u64| {
            if ts_ms == 0 {
                "?".to_owned()
            } else {
                format!("{:.1}s", now.saturating_sub(ts_ms) as f64 / 1000.0)
            }
        };
        for w in &s.workers {
            let lease = w.latest_deadline_ms.saturating_sub(now);
            println!(
                "    {:<20} {} trial(s) in flight, lease expires in {:.1}s, \
                 up {}, last heartbeat {} ago",
                w.worker,
                w.active_trials.len(),
                lease as f64 / 1000.0,
                age(w.first_seen_ms),
                age(w.last_seen_ms),
            );
        }
    }
    if s.stale_claims > 0 {
        println!("  stale claims: {} (re-claimable; their workers look dead)", s.stale_claims);
    }
    if s.quarantined > 0 {
        println!(
            "  quarantined: {} trial(s) (I/O retries exhausted — see quarantine.jsonl; \
             a healthy worker re-runs them bitwise-identically)",
            s.quarantined
        );
    }
    // Live rate from the opt-in telemetry streams, when present.
    if let Ok(p) = profile::load_dir(dir, profile::CheckMode::Lenient) {
        if let Some(rate) = p.rate() {
            println!(
                "  observed: {:.2} trials/s across {} obs stream(s) — `campaign profile {}` \
                 breaks this down by phase",
                rate,
                p.workers.len(),
                dir.display()
            );
        }
    }
    println!("  summary.txt: {}", if s.summary_written { "written" } else { "pending" });
}

/// A `run` target is a TOML file path or a registry name.
fn load_target(target: &str, scale: Scale) -> Result<Scenario, String> {
    if std::path::Path::new(target).exists() {
        let text = std::fs::read_to_string(target).map_err(|e| format!("read {target}: {e}"))?;
        return Scenario::from_toml(&text).map_err(|e| format!("{target}: {e}"));
    }
    registry::builtin(target, scale).ok_or_else(|| {
        format!("{target:?} is neither a file nor a built-in; `campaign list` shows the built-ins")
    })
}

fn report(scenario: &Scenario, out: frlfi_campaign::CampaignOutcome, dir: &std::path::Path) {
    println!(
        "campaign {} ({:?}): {}/{} trials done ({} new) in {}",
        scenario.name,
        scenario.scale,
        out.completed_trials,
        out.total_trials,
        out.new_trials,
        dir.display(),
    );
    match out.table {
        Some(table) => print!("{table}"),
        None if !out.quarantined.is_empty() => println!(
            "DEGRADED — {} trial(s) quarantined (I/O retries exhausted); summary.txt is \
             marked partial. Reclaim with: campaign resume {}",
            out.quarantined.len(),
            dir.display()
        ),
        None => println!("incomplete — continue with: campaign resume {}", dir.display()),
    }
}
