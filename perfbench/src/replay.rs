//! Layer replay: one representative trial per workload, re-run through
//! the crates' public functions with the benchmark's own timers around
//! every call into `envs`, `rl`, `federated`, `fault`, `quant` and
//! `mitigation`.
//!
//! Each replay rebuilds the trial's system the way `frlfi::harness`
//! does and drives it with `rl::run_episode_batched`,
//! `rl::run_greedy_episodes_batch` / `run_greedy_episode_ctx`,
//! `Server::aggregate_with_hook` and `fault::inject_slice_ber`, through
//! [`TimedEnv`] / [`TimedLearner`] wrappers that time each call and then
//! delegate. The caller compares the replayed trial value with the
//! campaign's bit for bit; a mismatch rejects the replay's numbers.
//!
//! Kernel rows (`nn.*`) cannot be timed from outside a learner call, so
//! they are re-timed afterwards on a clone of the trained network at
//! the call shapes the replay saw (see [`time_train_step`] and
//! [`time_infer`]).

use std::time::Instant;

use frlfi::envs::{
    standard_layout_specs, Cell, DroneConfig, DroneSim, Environment, GridWorld, Outcome, Step,
    GRID_SIZE,
};
use frlfi::experiments::harness::{DroneTrial, GridMetric, GridTrial, TrialFault};
use frlfi::experiments::study::{StudyGeometry, StudyKind, StudyModel};
use frlfi::experiments::{ber_label, SYSTEM_SEED};
use frlfi::fault::{inject_slice_ber, Ber, FaultModel, FaultSide};
use frlfi::federated::{NoopHook, Server};
use frlfi::mitigation::RangeDetector;
use frlfi::nn::{ActShape, BatchInferCtx, InferCtx, Network, NetworkBuilder};
use frlfi::rl::{
    run_episode_batched, run_greedy_episode_ctx, run_greedy_episodes_batch, EpsilonSchedule,
    Learner, QLearner, Reinforce, RlError, Transition,
};
use frlfi::tensor::{derive_seed, Tensor};
use frlfi::{
    success_rate_of, DroneLayout, DroneSystemConfig, GridLayout, GridSystemConfig, InjectionPlan,
    ReprKind,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Call count and total nanoseconds of one timed call site.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub calls: u64,
    pub ns: u128,
}

impl Tally {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns += t0.elapsed().as_nanos();
        self.calls += 1;
        out
    }

    /// Mean nanoseconds per call (NaN when never called).
    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.calls as f64
    }

    fn add(&mut self, other: Tally) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// An environment whose `step` calls are timed.
pub struct TimedEnv<E> {
    pub inner: E,
    pub step: Tally,
}

impl<E> TimedEnv<E> {
    fn new(inner: E) -> Self {
        TimedEnv { inner, step: Tally::default() }
    }
}

impl<E: Environment> Environment for TimedEnv<E> {
    fn obs_shape(&self) -> Vec<usize> {
        self.inner.obs_shape()
    }

    fn n_actions(&self) -> usize {
        self.inner.n_actions()
    }

    fn reset(&mut self, rng: &mut dyn RngCore) -> Tensor {
        self.inner.reset(rng)
    }

    fn step(&mut self, action: usize, rng: &mut dyn RngCore) -> Step {
        let inner = &mut self.inner;
        self.step.time(|| inner.step(action, rng))
    }

    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }
}

/// A learner whose training, update and greedy calls are timed. With
/// `keep_episode`, it also keeps the observations of its last finished
/// episode (the batch its episode-end update trained on).
pub struct TimedLearner<L> {
    pub inner: L,
    pub act: Tally,
    pub learn: Tally,
    pub episode_end: Tally,
    pub greedy: Tally,
    keep_episode: bool,
    current: Vec<Tensor>,
    pub last_episode: Vec<Tensor>,
}

impl<L> TimedLearner<L> {
    fn new(inner: L) -> Self {
        TimedLearner {
            inner,
            act: Tally::default(),
            learn: Tally::default(),
            episode_end: Tally::default(),
            greedy: Tally::default(),
            keep_episode: false,
            current: Vec::new(),
            last_episode: Vec::new(),
        }
    }
}

impl<L: Learner> Learner for TimedLearner<L> {
    fn act(&mut self, state: &Tensor, rng: &mut dyn RngCore) -> Result<usize, RlError> {
        self.inner.act(state, rng)
    }

    fn act_greedy(&mut self, state: &Tensor) -> Result<usize, RlError> {
        self.inner.act_greedy(state)
    }

    fn act_greedy_ctx(&mut self, state: &Tensor, ctx: &mut InferCtx) -> Result<usize, RlError> {
        let inner = &mut self.inner;
        self.greedy.time(|| inner.act_greedy_ctx(state, ctx))
    }

    fn act_train_ctx(
        &mut self,
        state: &Tensor,
        rng: &mut dyn RngCore,
        ctx: &mut BatchInferCtx,
    ) -> Result<usize, RlError> {
        let inner = &mut self.inner;
        self.act.time(|| inner.act_train_ctx(state, rng, ctx))
    }

    fn act_greedy_batch(
        &mut self,
        states: &[f32],
        in_shape: &ActShape,
        batch: usize,
        ctx: &mut BatchInferCtx,
        actions: &mut [usize],
    ) -> Result<(), RlError> {
        let inner = &mut self.inner;
        self.greedy.time(|| inner.act_greedy_batch(states, in_shape, batch, ctx, actions))
    }

    fn observe(&mut self, t: Transition) -> Result<(), RlError> {
        self.inner.observe(t)
    }

    fn observe_ctx(&mut self, t: Transition, ctx: &mut BatchInferCtx) -> Result<(), RlError> {
        if self.keep_episode {
            self.current.push(t.state.clone());
        }
        let inner = &mut self.inner;
        self.learn.time(|| inner.observe_ctx(t, ctx))
    }

    fn end_episode(&mut self) -> Result<(), RlError> {
        self.inner.end_episode()
    }

    fn end_episode_ctx(&mut self, ctx: &mut BatchInferCtx) -> Result<(), RlError> {
        let inner = &mut self.inner;
        let out = self.episode_end.time(|| inner.end_episode_ctx(ctx));
        if self.keep_episode {
            self.last_episode = std::mem::take(&mut self.current);
        }
        out
    }

    fn set_episode(&mut self, episode: usize) {
        self.inner.set_episode(episode);
    }

    fn network(&self) -> &Network {
        self.inner.network()
    }

    fn network_mut(&mut self) -> &mut Network {
        self.inner.network_mut()
    }
}

/// Everything one replayed trial measured.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// The replayed trial value (compare with the campaign's).
    pub value: f64,
    /// `Learner::act_train_ctx` (ε-greedy / sampled action).
    pub act: Tally,
    /// `Learner::observe_ctx` (the online TD update).
    pub learn: Tally,
    /// `Learner::end_episode_ctx` (the REINFORCE update).
    pub episode_end: Tally,
    /// `act_greedy_batch` / `act_greedy_ctx` during evaluation.
    pub greedy: Tally,
    /// `Environment::step` while training.
    pub train_step: Tally,
    /// `Environment::step` while evaluating.
    pub eval_step: Tally,
    /// `Server::aggregate_with_hook`, one call per round.
    pub aggregate: Tally,
    /// `fault::inject_slice_ber`.
    pub inject: Tally,
    /// The deploy-time weight quantization pass, per agent.
    pub quantize: Tally,
    /// `RangeDetector::repair`, per agent.
    pub range_check: Tally,
    /// Bits the injections flipped.
    pub bits_flipped: usize,
    /// Bytes one federated round moves: uploads plus downloads.
    pub bytes_per_round: u64,
    /// Agent 0's network after the trial (kernel re-timing).
    pub net: Option<Network>,
    /// Agent 0's last training episode (the drone update batch).
    pub last_episode: Vec<Tensor>,
}

impl ReplayStats {
    /// Environment steps the trial took, training plus evaluation.
    pub fn steps(&self) -> u64 {
        self.train_step.calls + self.eval_step.calls
    }

    fn absorb_learners<L>(&mut self, learners: &[TimedLearner<L>]) {
        for l in learners {
            self.act.add(l.act);
            self.learn.add(l.learn);
            self.episode_end.add(l.episode_end);
            self.greedy.add(l.greedy);
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Applies an agent-side injection plan the way the systems' `inject_now`
/// does: pick the victim from the fault stream, fit the representation
/// on its current weights, corrupt a snapshot, restore it.
fn inject_agent<L: Learner>(
    agents: &mut [TimedLearner<L>],
    plan: &InjectionPlan,
    fault_rng: &mut StdRng,
    stats: &mut ReplayStats,
) -> Result<(), String> {
    if plan.side != FaultSide::AgentSide {
        return Err("the layer replay covers agent-side training faults".into());
    }
    let victim = fault_rng.gen_range(0..agents.len());
    let net = agents[victim].network_mut();
    let repr = plan.repr.materialize(net);
    let mut snap = net.snapshot();
    let records =
        stats.inject.time(|| inject_slice_ber(&mut snap, repr, plan.model, plan.ber, fault_rng));
    stats.bits_flipped += records.len();
    net.restore(&snap).map_err(err)
}

/// One federated round as the systems' `communicate` runs it without
/// dropout or a pending server fault: the fault stream still draws the
/// (unused) server-hook seed, keeping it aligned with the campaign's.
fn communicate<L: Learner>(
    server: &mut Server,
    agents: &mut [TimedLearner<L>],
    fault_rng: &mut StdRng,
    stats: &mut ReplayStats,
) -> Result<(), String> {
    let _hook_seed: u64 = fault_rng.gen();
    let mut uploads: Vec<Vec<f32>> = agents.iter().map(|a| a.network().snapshot()).collect();
    stats.bytes_per_round =
        2 * (uploads.len() * uploads[0].len() * std::mem::size_of::<f32>()) as u64;
    let outputs = stats.aggregate.time(|| server.aggregate_with_hook(&mut uploads, &mut NoopHook));
    for (agent, out) in agents.iter_mut().zip(outputs.map_err(err)?.iter()) {
        agent.network_mut().restore(out).map_err(err)?;
    }
    Ok(())
}

/// The GridWorld Q-network of `GridFrlSystem`: agent `i`'s initial
/// weights and exploration schedule.
fn grid_agent(cfg: &GridSystemConfig, i: usize) -> Result<TimedLearner<QLearner>, String> {
    let mut init = StdRng::seed_from_u64(derive_seed(cfg.seed, 0x5EED + i as u64));
    let net = NetworkBuilder::new(6)
        .dense(32)
        .relu()
        .dense(32)
        .relu()
        .dense(4)
        .build(&mut init)
        .map_err(err)?;
    let schedule = EpsilonSchedule::new(1.0, 0.05, cfg.epsilon_decay_episodes);
    Ok(TimedLearner::new(QLearner::new(net, cfg.gamma, cfg.lr, schedule)))
}

/// Replays one GridWorld training trial on the batched path
/// (`harness::run_grid_trial_batched`): federated batch-1 TD training,
/// then the lock-step greedy evaluation. Returns the success rate in
/// percent, as the campaign persists it.
///
/// # Errors
///
/// Trials outside the replay's scope (dynamic layouts, dropout,
/// mitigation, server faults, other metrics) and crate errors.
pub fn grid(t: &GridTrial, seed: u64, ctx: &mut BatchInferCtx) -> Result<ReplayStats, String> {
    if t.layout != GridLayout::Standard
        || t.dropout.is_some()
        || t.mitigation.is_some()
        || t.metric != GridMetric::SuccessRatePct
    {
        return Err("the grid replay covers standard, reliable, unmitigated trials".into());
    }
    let cfg = GridSystemConfig {
        n_agents: t.n_agents,
        seed: t.system_seed,
        epsilon_decay_episodes: t.total_episodes / 2,
        ..Default::default()
    };
    let n = cfg.n_agents;
    let mut envs: Vec<TimedEnv<GridWorld>> = standard_layout_specs(cfg.seed, n)
        .iter()
        .map(|s| TimedEnv::new(GridWorld::from_spec(s)))
        .collect();
    let mut agents = (0..n).map(|i| grid_agent(&cfg, i)).collect::<Result<Vec<_>, _>>()?;
    let mut rngs: Vec<StdRng> =
        (0..n).map(|i| StdRng::seed_from_u64(derive_seed(cfg.seed, 0xA6E0 + i as u64))).collect();
    let params = agents[0].network().param_count();
    let mut server = match n {
        1 => None,
        _ => Some(Server::with_annealing(n, params, cfg.alpha0, cfg.anneal_rounds).map_err(err)?),
    };
    let mut fault_rng = StdRng::seed_from_u64(seed);
    let plan = t.fault.as_ref().and_then(TrialFault::plan);
    let schedule = cfg.comm_schedule();
    let mut stats = ReplayStats::default();
    for ep in 0..t.total_episodes {
        for i in 0..n {
            agents[i].set_episode(ep);
            run_episode_batched(&mut envs[i], &mut agents[i], &mut rngs[i], ctx).map_err(err)?;
        }
        if let Some(p) = plan.as_ref().filter(|p| p.episode == ep) {
            inject_agent(&mut agents, p, &mut fault_rng, &mut stats)?;
        }
        if let Some(server) = server.as_mut().filter(|_| schedule.communicates_at(ep)) {
            communicate(server, &mut agents, &mut fault_rng, &mut stats)?;
        }
    }
    for env in &envs {
        stats.train_step.add(env.step);
    }

    // `GridFrlSystem::eval_outcomes_batched`: agents with bit-identical
    // parameters share one lock-step greedy batch.
    for a in &mut agents {
        a.network_mut().eval_mode();
    }
    let snaps: Vec<Vec<f32>> = agents.iter().map(|a| a.network().snapshot()).collect();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        match groups.iter_mut().find(|g| snaps[g[0]] == snaps[i]) {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    let mut outcomes = vec![Outcome::Timeout; n];
    for group in &groups {
        let mut eval_rngs: Vec<StdRng> = group
            .iter()
            .map(|&i| StdRng::seed_from_u64(derive_seed(cfg.seed, 0xE7A1 + i as u64)))
            .collect();
        let mut group_envs: Vec<&mut TimedEnv<GridWorld>> = envs
            .iter_mut()
            .enumerate()
            .filter_map(|(i, e)| group.contains(&i).then_some(e))
            .collect();
        let summaries =
            run_greedy_episodes_batch(&mut agents[group[0]], &mut group_envs, &mut eval_rngs, ctx)
                .map_err(err)?;
        for (k, &i) in group.iter().enumerate() {
            outcomes[i] = summaries[k].outcome;
        }
    }
    let mut all_steps = Tally::default();
    for env in &envs {
        all_steps.add(env.step);
    }
    stats.eval_step = Tally {
        calls: all_steps.calls - stats.train_step.calls,
        ns: all_steps.ns - stats.train_step.ns,
    };
    stats.value = success_rate_of(&outcomes) * 100.0;
    stats.absorb_learners(&agents);
    stats.net = Some(agents[0].network().clone());
    Ok(stats)
}

/// Replays one DroneNav fine-tuning trial on the batched path
/// (`harness::run_drone_trial_batched`) from the shared pre-trained
/// `weights`: federated REINFORCE fine-tuning, then the lock-step
/// flight-distance evaluation. Returns the mean safe flight distance.
///
/// # Errors
///
/// Trials outside the replay's scope (dynamic layouts, dropout,
/// mitigation, server faults) and crate errors.
pub fn drone(
    t: &DroneTrial,
    weights: &[f32],
    seed: u64,
    ctx: &mut BatchInferCtx,
) -> Result<ReplayStats, String> {
    if t.layout != DroneLayout::Standard
        || t.motion.is_some()
        || t.dropout.is_some()
        || t.mitigation.is_some()
    {
        return Err("the drone replay covers static, reliable, unmitigated trials".into());
    }
    let cfg = DroneSystemConfig {
        n_drones: t.n_drones,
        seed: t.system_seed,
        pretrain_episodes: 0,
        comm: t.comm.schedule(),
        ..Default::default()
    };
    let n = cfg.n_drones;
    let mut init = StdRng::seed_from_u64(derive_seed(cfg.seed, 0xD0E));
    let template = Reinforce::drone_default(&mut init).map_err(err)?;
    let mut drones: Vec<TimedLearner<Reinforce>> =
        (0..n).map(|_| TimedLearner::new(template.clone())).collect();
    drones[0].keep_episode = true;
    let train_sim = DroneConfig { max_steps: cfg.train_max_steps, ..cfg.sim };
    let mut envs: Vec<TimedEnv<DroneSim>> = (0..n)
        .map(|i| TimedEnv::new(DroneSim::new(train_sim, derive_seed(cfg.seed, 0x0E00 + i as u64))))
        .collect();
    let mut rngs: Vec<StdRng> =
        (0..n).map(|i| StdRng::seed_from_u64(derive_seed(cfg.seed, 0x0A00 + i as u64))).collect();
    let mut server = match n {
        1 => None,
        _ => Some(Server::new(n, template.network().param_count()).map_err(err)?),
    };
    for d in &mut drones {
        d.network_mut().restore(weights).map_err(err)?;
    }
    let mut fault_rng = StdRng::seed_from_u64(seed);
    let plan = t.fault.as_ref().and_then(TrialFault::plan);
    let mut stats = ReplayStats::default();
    for ep in 0..t.fine_tune_episodes {
        for i in 0..n {
            drones[i].set_episode(ep);
            run_episode_batched(&mut envs[i], &mut drones[i], &mut rngs[i], ctx).map_err(err)?;
        }
        if let Some(p) = plan.as_ref().filter(|p| p.episode == ep) {
            inject_agent(&mut drones, p, &mut fault_rng, &mut stats)?;
        }
        if let Some(server) = server.as_mut().filter(|_| cfg.comm.communicates_at(ep)) {
            communicate(server, &mut drones, &mut fault_rng, &mut stats)?;
        }
    }
    for env in &envs {
        stats.train_step.add(env.step);
    }

    // `DroneFrlSystem::safe_flight_distance_batched`.
    for d in &mut drones {
        d.network_mut().eval_mode();
    }
    let attempts = t.eval_attempts;
    let (mut total, mut count) = (0.0, 0usize);
    for (i, drone) in drones.iter_mut().enumerate() {
        let seeds: Vec<u64> = (0..attempts)
            .map(|a| derive_seed(cfg.seed, 0xEA17 + (i * attempts + a) as u64))
            .collect();
        let mut eval_envs: Vec<TimedEnv<DroneSim>> =
            seeds.iter().map(|&s| TimedEnv::new(DroneSim::new(cfg.sim, s))).collect();
        let mut eval_rngs: Vec<StdRng> =
            seeds.iter().map(|&s| StdRng::seed_from_u64(s ^ 0x1)).collect();
        run_greedy_episodes_batch(drone, &mut eval_envs, &mut eval_rngs, ctx).map_err(err)?;
        for env in &eval_envs {
            total += f64::from(env.inner.distance());
            count += 1;
            stats.eval_step.add(env.step);
        }
    }
    stats.value = if count == 0 { 0.0 } else { total / count as f64 };
    stats.absorb_learners(&drones);
    stats.last_episode = std::mem::take(&mut drones[0].last_episode);
    stats.net = Some(drones[0].network().clone());
    Ok(stats)
}

/// The BER of row `row` of the Fig. 8a study at Full scale (the Fig. 4
/// grid, 0–2% in 0.25% steps), checked against the geometry's label.
fn fig8a_full_ber(g: &StudyGeometry, row: usize) -> Result<f64, String> {
    let ber = row as f64 * 0.0025;
    match g.row_keys.get(row) {
        Some(key) if *key == ber_label(ber) => Ok(ber),
        other => Err(format!("study row {row} is {other:?}, not BER {}", ber_label(ber))),
    }
}

/// Replays one Fig. 8a evaluation trial (`StudyGeometry::eval_cell`)
/// from the study's trained `planes`: deploy-time quantization, fault
/// injection, the range detector (mitigated column) and per-agent
/// greedy episodes. Returns the raw success rate, as persisted.
///
/// # Errors
///
/// Any study but Fig. 8a at Full scale, and crate errors.
pub fn study(
    g: &StudyGeometry,
    planes: &[Vec<Vec<f32>>],
    cell: usize,
    seed: u64,
) -> Result<ReplayStats, String> {
    let (Some(&StudyModel::Grid { n_agents, episodes }), StudyKind::Fig8Grid) =
        (g.models().first(), g.kind)
    else {
        return Err("the study replay covers the Fig. 8a GridWorld study".into());
    };
    let (row, col) = (cell / g.n_cols(), cell % g.n_cols());
    let ber = Ber::new(fig8a_full_ber(g, row)?).map_err(err)?;
    let cfg = GridSystemConfig {
        n_agents,
        seed: SYSTEM_SEED,
        epsilon_decay_episodes: episodes / 2,
        ..Default::default()
    };
    let mut envs: Vec<TimedEnv<GridWorld>> = standard_layout_specs(cfg.seed, n_agents)
        .iter()
        .map(|s| TimedEnv::new(GridWorld::from_spec(s)))
        .collect();
    let mut agents = (0..n_agents).map(|i| grid_agent(&cfg, i)).collect::<Result<Vec<_>, _>>()?;
    for (agent, plane) in agents.iter_mut().zip(&planes[0]) {
        agent.network_mut().restore(plane).map_err(err)?;
    }
    let detectors: Vec<RangeDetector> =
        agents.iter().map(|a| RangeDetector::fit(a.network())).collect();

    // `GridFrlSystem::with_faulted_policies`.
    let mut stats = ReplayStats::default();
    let clean: Vec<Vec<f32>> = agents.iter().map(|a| a.network().snapshot()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for agent in &mut agents {
        let repr = ReprKind::F32.materialize(agent.network());
        let mut snap = agent.network().snapshot();
        stats.quantize.time(|| {
            for w in &mut snap {
                *w = repr.quantize(*w);
            }
        });
        let records = stats
            .inject
            .time(|| inject_slice_ber(&mut snap, repr, FaultModel::TransientMulti, ber, &mut rng));
        stats.bits_flipped += records.len();
        agent.network_mut().restore(&snap).map_err(err)?;
    }
    if col == 1 {
        for (agent, det) in agents.iter_mut().zip(&detectors) {
            stats.range_check.time(|| det.repair(agent.network_mut()));
        }
    }
    // `GridFrlSystem::success_rate`: one greedy episode per agent.
    let mut ictx = InferCtx::new();
    let mut outcomes = Vec::with_capacity(n_agents);
    for (i, (env, agent)) in envs.iter_mut().zip(agents.iter_mut()).enumerate() {
        let mut eval_rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 0xE7A1 + i as u64));
        outcomes.push(
            run_greedy_episode_ctx(env, agent, &mut eval_rng, &mut ictx).map_err(err)?.outcome,
        );
        stats.eval_step.add(env.step);
    }
    stats.value = success_rate_of(&outcomes);
    stats.absorb_learners(&agents);
    stats.net = Some(agents[0].network().clone());
    for (agent, snap) in agents.iter_mut().zip(&clean) {
        agent.network_mut().restore(snap).map_err(err)?;
    }
    Ok(stats)
}

/// Observations at every passable cell of the standard mazes: realistic
/// inputs for re-timing the grid network's kernels.
pub fn grid_states() -> Vec<Tensor> {
    let mut states = Vec::new();
    for spec in standard_layout_specs(SYSTEM_SEED, 2) {
        let env = GridWorld::from_spec(&spec);
        for r in 0..GRID_SIZE {
            for c in 0..GRID_SIZE {
                if matches!(env.cell(r, c), Cell::Free | Cell::Source) {
                    states.push(env.observation_at(r, c));
                }
            }
        }
    }
    states
}

/// Median nanoseconds of one training step's kernels on a clone of
/// `net`: a cached forward (`Network::forward_batch_cached`) and its
/// backward (`Network::backward_batch`) over `batch` sample-major rows
/// cycled from `inputs`. Returns `(forward_ns, backward_ns)`.
///
/// # Errors
///
/// Shape errors from the kernels.
pub fn time_train_step(
    net: &Network,
    inputs: &[Vec<f32>],
    shape: &ActShape,
    reps: usize,
) -> Result<(f64, f64), String> {
    let mut net = net.clone();
    let mut ctx = BatchInferCtx::new();
    let (mut fwd, mut bwd) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut grads = Vec::new();
    for k in 0..reps {
        let input = &inputs[k % inputs.len()];
        let batch = input.len() / shape.volume();
        let t0 = Instant::now();
        let out_len = std::hint::black_box(
            net.forward_batch_cached(input, shape, batch, &mut ctx).map_err(err)?,
        )
        .len();
        fwd.push(t0.elapsed().as_nanos() as f64);
        grads.clear();
        grads.resize(out_len, 1e-3);
        let t0 = Instant::now();
        net.backward_batch(&grads, batch, &mut ctx).map_err(err)?;
        bwd.push(t0.elapsed().as_nanos() as f64);
        net.zero_grads();
    }
    Ok((crate::stats::median(&fwd), crate::stats::median(&bwd)))
}

/// Median nanoseconds of one single-observation inference
/// (`Network::infer`) on `net`, cycling through `states`.
///
/// # Errors
///
/// Shape errors from the kernels.
pub fn time_infer(net: &Network, states: &[Tensor], reps: usize) -> Result<f64, String> {
    let mut ctx = InferCtx::new();
    let mut ns = Vec::with_capacity(reps);
    for k in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(net.infer(&states[k % states.len()], &mut ctx).map_err(err)?);
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    Ok(crate::stats::median(&ns))
}
