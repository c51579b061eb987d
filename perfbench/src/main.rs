//! The repository benchmark: one named campaign workload, run through
//! `frlfi_campaign::runner::run` in this process, timed from outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-train|drone-finetune|study-eval --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the recorder off:
//! the workload's set-up, then `max(1, round(S / nominal))` whole
//! campaigns, each checked against the pinned summary digest; timings
//! are reported at the reference core speed of `probe.rs`. `--trace
//! 1` is the separate traced run: the campaign untraced and traced
//! (summaries must match), its obs streams folded per layer, and the
//! three workloads' representative trials replayed through the crates'
//! public functions. The last stdout line is the JSON result; the lines
//! before it say what ran. See `perfbench/README.md`.

mod campaign;
mod probe;
mod replay;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use frlfi::experiments::harness::{
    drone_geometry, drone_pretrained_weights, run_drone_trial_batched, run_grid_trial_batched,
    PretrainedWeights,
};
use frlfi::nn::{ActShape, BatchInferCtx};
use frlfi_campaign::{artifacts, ArtifactTracker, Campaign, Trials};
use workload::{Prepared, Setup, Workload};

const USAGE: &str = "usage: perfbench --workload grid-train|drone-finetune|study-eval \
                     --seed N --seconds S --trace 0|1";

/// The seed whose summaries `digests.txt` pins.
const DEFAULT_SEED: u64 = 0;

/// FNV-1a digests of `summary.txt` for [`DEFAULT_SEED`], per workload.
const PINNED: &str = include_str!("../digests.txt");

/// The committed campaign ledger's fig3a @ Bench batched record:
/// µs of `train` per trial (`BENCH_campaign.json`, 144 trials).
const LEDGER_FIG3A_BATCHED_TRAIN_US: f64 = 170_995.493;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| ".bench_build".into(), PathBuf::from);
    let work = target.join("perfbench-work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| if args.trace { traced(&args, &work) } else { end_to_end(&args, &work) })
        .and_then(|r| Ok((r.json()?, r.correct)));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output check failed (see above)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Campaigns per run: a function of `--seconds` alone.
fn campaigns(w: Workload, seconds: f64) -> usize {
    ((seconds / w.nominal_campaign_s()).round() as usize).max(1)
}

/// Prints the summary digests and checks them: equal across the run's
/// campaigns, and equal to the pinned digest where it applies (the
/// default seed; every seed for the study, whose inputs ignore it).
fn check_digests(w: Workload, seed: u64, digests: &[u64]) -> bool {
    let first = digests[0];
    println!("summary digest {} seed {seed}: {first:#018x}", w.name());
    let mut ok = digests.iter().all(|&d| d == first);
    if !ok {
        println!("MISMATCH: campaigns of one run disagree: {digests:x?}");
    }
    if seed == DEFAULT_SEED || w == Workload::StudyEval {
        let pinned = PINNED.lines().find_map(|l| {
            let (name, hex) = l.split_once(' ')?;
            (name == w.name())
                .then(|| u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16).ok())?
        });
        match pinned {
            Some(p) if p == first => println!("summary digest matches the pinned digest"),
            Some(p) => {
                println!("MISMATCH: pinned digest is {p:#018x}");
                ok = false;
            }
            None => {
                println!("MISMATCH: no pinned digest for {}", w.name());
                ok = false;
            }
        }
    }
    ok
}

fn setup_samples(w: Workload) -> usize {
    match w {
        Workload::GridTrain => 61,
        Workload::DroneFinetune => 1,
        Workload::StudyEval => 3,
    }
}

fn end_to_end(a: &Args, work: &Path) -> Result<Report, String> {
    let w = a.workload;
    let threads = workload::threads();
    let scenario = w.scenario(a.seed);
    let n = campaigns(w, a.seconds);
    let dir = |k: usize| work.join(format!("run-{k}"));
    // The drone campaign pre-trains inside its first trial on one worker
    // while the other waits for the weights, so the set-up sample runs
    // on that idle core during the first campaign, which it finishes
    // before the first trial commits. Its core speed is the campaign
    // probe's over the same window, when both cores pre-train. The
    // others set up first: the study's campaigns load the planes it
    // publishes.
    let mut runs = Vec::with_capacity(n);
    let setup = if w == Workload::DroneFinetune {
        let (setup, first) = std::thread::scope(|s| {
            let setup = s.spawn(|| {
                let t0 = Instant::now();
                let setup = workload::setup(w, &scenario, setup_samples(w), work);
                (setup, t0, Instant::now())
            });
            let first = campaign::run(&scenario, &dir(0), threads, false);
            (setup.join().expect("the set-up thread does not panic"), first)
        });
        let ((setup, t0, t1), first) = (setup, first?);
        let mut setup = setup?;
        setup.speeds = vec![probe::speed_between(&first.probes, t0, t1)];
        runs.push(first);
        setup
    } else {
        workload::setup(w, &scenario, setup_samples(w), work)?
    };
    for k in runs.len()..n {
        if let Prepared::StudyPlanes(planes) = &setup.prepared {
            workload::publish_planes(&dir(k), planes)?;
        }
        runs.push(campaign::run(&scenario, &dir(k), threads, false)?);
        let _ = std::fs::remove_dir_all(dir(k));
    }
    let (mut rates, mut cpu_rates, mut phase_probes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut digests) = (0, 0, Vec::new());
    for (k, run) in runs.iter().enumerate() {
        if run.phase_trials == 0 {
            return Err(format!("campaign {k}: every trial committed at once"));
        }
        let probes: Vec<f64> = run.phase_probes().collect();
        rates.push(run.phase_trials as f64 / run.phase_wall_s);
        let cpu_s = run.phase_cpu_s - probes.iter().sum::<f64>();
        cpu_rates.push(run.phase_trials as f64 / cpu_s);
        phase_probes.extend(probes);
        attempted += run.trials;
        failed += run.failed;
        digests.push(run.digest);
    }
    // Rates at the reference core speed: a stretch where the cores ran
    // at half speed halves the rates and the speed alike. The speed is
    // pooled over the run's trial phases: one short campaign holds too
    // few samples to pin it.
    let speed = probe::speed(&phase_probes);
    if !speed.is_finite() {
        return Err("no core-speed probe sample landed in a trial phase".into());
    }
    let (rate, cpu_rate) = (stats::median(&rates), stats::median(&cpu_rates));
    let setup_s = setup.median_ref_s();
    let correct = check_digests(w, a.seed, &digests);
    println!(
        "as measured: trials_per_s {rate} at core speed {speed} ({} probe samples); setup_s {} \
         at core speed {}",
        phase_probes.len(),
        setup.median_s(),
        stats::median(&setup.speeds),
    );
    println!(
        "workload {}: {n} campaign(s) of {} trials on {threads} thread(s); set-up {} sample(s), \
         failed_frac {} ({failed}/{attempted})",
        w.name(),
        attempted / n,
        setup.samples_s.len(),
        failed as f64 / attempted as f64,
    );
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics: vec![
            Metric { name: "trials_per_s", unit: "1/s", value: rate / speed },
            Metric { name: "setup_s", unit: "s", value: setup_s },
            Metric { name: "trials_per_cpu_s", unit: "1/s", value: cpu_rate / speed },
            Metric { name: "peak_rss_mb", unit: "MB", value: sys::peak_rss_mb()? },
        ],
    })
}

/// The three representative trials, replayed.
struct Replays {
    grid: replay::ReplayStats,
    drone: replay::ReplayStats,
    study: replay::ReplayStats,
    pretrain_s: f64,
    train_task_s: f64,
    publish_ms: f64,
    load_ms: f64,
    matched: bool,
    /// The drone replay's pre-trained weights and the study's planes,
    /// for the counter replay.
    weights: Vec<f32>,
    planes: Vec<Vec<Vec<f32>>>,
}

/// Compares a replayed value with its reference bit for bit.
fn matches(what: &str, replayed: f64, reference: f64) -> bool {
    let ok = replayed.to_bits() == reference.to_bits();
    println!(
        "replay {what}: {replayed} vs {reference} — {}",
        if ok { "bit-identical" } else { "MISMATCH, replay numbers rejected" }
    );
    ok
}

/// Replays one trial of every workload. The traced workload's replay
/// is checked against the value its campaign persisted; the others
/// against the trial function the campaign calls.
fn replay_all(
    own: Workload,
    seed: u64,
    setup: &Setup,
    own_dir: &Path,
    work: &Path,
) -> Result<Replays, String> {
    let mut ctx = BatchInferCtx::new();
    let reference = |w: Workload, direct: &mut dyn FnMut() -> Result<f64, String>| {
        if w == own {
            campaign::persisted_value(own_dir, w.replay_cell(), 0)
        } else {
            direct()
        }
    };

    let gc = Workload::GridTrain.scenario(seed).expand().map_err(|e| e.to_string())?;
    let Trials::Grid(cells) = &gc.trials else { unreachable!("grid workload") };
    let cell = Workload::GridTrain.replay_cell();
    let s = gc.trial_seed(cell * gc.repeats);
    let grid = replay::grid(&cells[cell], s, &mut ctx)?;
    let want = reference(Workload::GridTrain, &mut || {
        run_grid_trial_batched(&cells[cell], s, &mut BatchInferCtx::new())
            .map_err(|e| e.to_string())
    })?;
    let mut matched = matches("grid-train", grid.value, want);

    let dc = Workload::DroneFinetune.scenario(seed).expand().map_err(|e| e.to_string())?;
    let Trials::Drone(cells) = &dc.trials else { unreachable!("drone workload") };
    let (weights, pretrain_s) = match &setup.prepared {
        Prepared::DroneWeights(w) => (w.clone(), setup.median_s()),
        _ => {
            let t0 = Instant::now();
            let w = drone_pretrained_weights(drone_geometry(dc.scenario.scale).pretrain_episodes);
            (w, t0.elapsed().as_secs_f64())
        }
    };
    let cell = Workload::DroneFinetune.replay_cell();
    let s = dc.trial_seed(cell * dc.repeats);
    let drone = replay::drone(&cells[cell], &weights, s, &mut ctx)?;
    let want = reference(Workload::DroneFinetune, &mut || {
        let mut t = cells[cell].clone();
        t.weights = PretrainedWeights::from_weights(weights.clone());
        run_drone_trial_batched(&t, s, &mut BatchInferCtx::new()).map_err(|e| e.to_string())
    })?;
    matched &= matches("drone-finetune", drone.value, want);

    let sc = Workload::StudyEval.scenario(seed).expand().map_err(|e| e.to_string())?;
    let g = sc.study().expect("study workload");
    let t0 = Instant::now();
    let planes = workload::train_study(g)?;
    let train_task_s = t0.elapsed().as_secs_f64();
    let dir = work.join("replay-artifacts");
    let t0 = Instant::now();
    workload::publish_planes(&dir, &planes)?;
    let publish_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut tracker = ArtifactTracker::new(&dir, planes.len());
    tracker.refresh()?;
    let t0 = Instant::now();
    let loaded = (0..planes.len())
        .map(|m| {
            artifacts::load_planes(&dir, m, tracker.digest(m).ok_or("artifact record missing")?)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    if loaded != planes {
        return Err("loaded study artifacts differ from the published planes".into());
    }
    let cell = Workload::StudyEval.replay_cell();
    let s = sc.trial_seed(cell * sc.repeats);
    let study = replay::study(g, &loaded, cell, s)?;
    let want = reference(Workload::StudyEval, &mut || {
        let mut sctx = g.context(&loaded).map_err(|e| e.to_string())?;
        g.eval_cell(&mut sctx, cell, s).map_err(|e| e.to_string())
    })?;
    matched &= matches("study-eval", study.value, want);

    Ok(Replays {
        grid,
        drone,
        study,
        pretrain_s,
        train_task_s,
        publish_ms,
        load_ms,
        matched,
        weights,
        planes: loaded,
    })
}

/// Replays the traced workload's trial once more with the recorder on,
/// for the kernel-dispatch counters. Returns (replay, forwards).
fn replay_with_counters(
    own: Workload,
    r: &Replays,
    campaign: &Campaign,
    work: &Path,
) -> Result<(replay::ReplayStats, f64), String> {
    let dir = work.join("replay-obs");
    frlfi_obs::install(
        &dir.join(frlfi_campaign::profile::OBS_DIR).join("worker-replay.jsonl"),
        "replay",
    )
    .map_err(|e| format!("install recorder: {e}"))?;
    let cell = own.replay_cell();
    let s = campaign.trial_seed(cell * campaign.repeats);
    let mut ctx = BatchInferCtx::new();
    let again = match &campaign.trials {
        Trials::Grid(cells) => replay::grid(&cells[cell], s, &mut ctx),
        Trials::Drone(cells) => replay::drone(&cells[cell], &r.weights, s, &mut ctx),
        Trials::Study(g) => replay::study(g, &r.planes, cell, s),
    };
    frlfi_obs::flush();
    frlfi_obs::uninstall();
    let again = again?;
    let first = match own {
        Workload::GridTrain => &r.grid,
        Workload::DroneFinetune => &r.drone,
        Workload::StudyEval => &r.study,
    };
    if again.value.to_bits() != first.value.to_bits() {
        return Err(format!(
            "replay with the recorder on changed the trial value ({} vs {})",
            again.value, first.value
        ));
    }
    let counts = trace::load(&dir)?;
    let layers = again.net.as_ref().map_or(1, |n| n.layer_count()) as f64;
    let forwards = (counts.count_prefix("nn.dispatch.") + counts.count_prefix("nn.train.dispatch."))
        as f64
        / layers;
    Ok((again, forwards))
}

fn traced(a: &Args, work: &Path) -> Result<Report, String> {
    let w = a.workload;
    let threads = workload::threads();
    let scenario = w.scenario(a.seed);
    let campaign = scenario.expand().map_err(|e| e.to_string())?;
    let setup = workload::setup(w, &scenario, 1, work)?;

    // The campaign as the runner runs it, set-up included: recorder
    // off, then on. The recorder must not change any result.
    let plain = campaign::run(&scenario, &work.join("plain"), threads, false)?;
    let traced = campaign::run(&scenario, &work.join("traced"), threads, true)?;
    let mut correct = check_digests(w, a.seed, &[plain.digest, traced.digest]);
    let tr = trace::load(&traced.dir)?;
    let in_trial_setup_us = match w {
        Workload::DroneFinetune => setup.median_s() * 1e6,
        _ => 0.0,
    };
    let sp = trace::split(&tr, in_trial_setup_us, threads);
    let trials = sp.trials as f64;
    if sp.trials != traced.trials {
        return Err(format!("{} trial spans for {} trials", sp.trials, traced.trials));
    }

    let r = replay_all(w, a.seed, &setup, &traced.dir, work)?;
    correct &= r.matched;
    let (own, forwards) = replay_with_counters(w, &r, &campaign, work)?;

    let grid_states = replay::grid_states();
    let grid_rows: Vec<Vec<f32>> = grid_states.iter().map(|t| t.data().to_vec()).collect();
    let grid_net = r.grid.net.as_ref().expect("grid replay keeps its network");
    let (grid_fwd, grid_bwd) =
        replay::time_train_step(grid_net, &grid_rows, &ActShape::flat(6), 4001)?;
    let drone_batch: Vec<f32> =
        r.drone.last_episode.iter().flat_map(|t| t.data().to_vec()).collect();
    let drone_shape =
        ActShape::from_dims(r.drone.last_episode[0].shape().dims()).map_err(|e| e.to_string())?;
    let drone_net = r.drone.net.as_ref().expect("drone replay keeps its network");
    let (drone_fwd, drone_bwd) =
        replay::time_train_step(drone_net, &[drone_batch], &drone_shape, 21)?;
    let study_net = r.study.net.as_ref().expect("study replay keeps its network");
    let infer_ns = replay::time_infer(study_net, &grid_states, 4001)?;
    println!(
        "kernel re-timing: grid batch 1; drone batch {} (last fine-tune episode of drone 0)",
        r.drone.last_episode.len()
    );

    let train_us_per_trial = sp.train_us / trials;
    if w == Workload::GridTrain {
        println!(
            "ledger cross-check: traced train {train_us_per_trial:.0} us/trial vs \
             BENCH_campaign.json fig3a batched {LEDGER_FIG3A_BATCHED_TRAIN_US:.0} us/trial \
             (ratio {:.3}; per-trial cost does not depend on repeats)",
            train_us_per_trial / LEDGER_FIG3A_BATCHED_TRAIN_US
        );
    }
    println!(
        "traced run: {} trials on {threads} thread(s), {:.3} s untraced / {:.3} s traced; \
         set-up wait {:.3} s; trial p90 over {} samples",
        traced.trials,
        plain.wall_s,
        traced.wall_s,
        sp.setup_wait_us / 1e6,
        sp.trial_us.len()
    );

    let m = |name, unit, value| Metric { name, unit, value };
    Ok(Report {
        correct,
        attempted: plain.trials + traced.trials,
        failed: plain.failed + traced.failed,
        metrics: vec![
            m(
                "campaign.io_us_per_trial",
                "us",
                tr.timers.get("io").map_or(0.0, |t| t.1 as f64) / trials,
            ),
            m("campaign.self_us_per_trial", "us", sp.self_us / trials),
            m("campaign.idle_frac", "frac", sp.idle_frac),
            m("campaign.artifact_publish_ms", "ms", r.publish_ms),
            m("campaign.artifact_load_ms", "ms", r.load_ms),
            m("core.train_ms_per_trial", "ms", train_us_per_trial / 1e3),
            m("core.eval_ms_per_trial", "ms", sp.eval_us / trials / 1e3),
            m("core.trial_ms.p50", "ms", stats::quantile(&sp.trial_us, 0.5) / 1e3),
            m("core.trial_ms.p90", "ms", stats::quantile(&sp.trial_us, 0.9) / 1e3),
            m("core.pretrain_s", "s", r.pretrain_s),
            m("core.train_task_s", "s", r.train_task_s),
            m("core.shared_prefix_frac", "frac", workload::shared_prefix_frac(&campaign)),
            m("rl.act_ns", "ns", r.grid.act.mean_ns()),
            m("rl.learn_ns", "ns", r.grid.learn.mean_ns()),
            m("rl.episode_end_ms", "ms", r.drone.episode_end.mean_ns() / 1e6),
            m("rl.steps_per_trial", "count", own.steps() as f64),
            m("rl.greedy_step_ns", "ns", own.greedy.mean_ns()),
            m("nn.forwards_per_step", "count", forwards / own.steps() as f64),
            m(
                "nn.train_dispatch_per_trial",
                "count",
                tr.count_prefix("nn.train.dispatch.") as f64 / trials,
            ),
            m("nn.train_batch.p50", "count", tr.hist_p50("nn.train.batch_size")),
            m("nn.grid.fwd_ns", "ns", grid_fwd),
            m("nn.grid.bwd_ns", "ns", grid_bwd),
            m("nn.drone.fwd_us", "us", drone_fwd / 1e3),
            m("nn.drone.bwd_us", "us", drone_bwd / 1e3),
            m("nn.infer_ns", "ns", infer_ns),
            m("envs.grid.step_ns", "ns", r.grid.train_step.mean_ns()),
            m("envs.drone.step_us", "us", r.drone.train_step.mean_ns() / 1e3),
            m("federated.aggregate_us_per_round", "us", r.drone.aggregate.mean_ns() / 1e3),
            m("federated.rounds_per_trial", "count", own.aggregate.calls as f64),
            m("federated.bytes_per_round", "B", own.bytes_per_round as f64),
            m("fault.inject_us", "us", r.study.inject.mean_ns() / 1e3),
            m("fault.bits_flipped_per_trial", "count", own.bits_flipped as f64),
            m("mitigation.range_check_ns", "ns", r.study.range_check.mean_ns()),
            m("quant.deploy_us", "us", r.study.quantize.ns as f64 / 1e3),
            m("obs.overhead_frac", "frac", 1.0 - plain.wall_s / traced.wall_s),
        ],
    })
}
