use crate::config::{GridLayout, GridSystemConfig};
use crate::error::FrlfiError;
use crate::injection::MitigationStats;
use crate::injection::{InjectionPlan, ReprKind, TrainingMitigation};
use frlfi_envs::{Environment, GridWorld, Outcome, GRID_SIZE};
use frlfi_fault::{inject_slice_ber, Ber, FaultModel, FaultRecord, FaultSide};
use frlfi_federated::{RoundHook, Server};
use frlfi_mitigation::{Detection, RewardDropDetector, ServerCheckpoint};
use frlfi_nn::BatchInferCtx;
use frlfi_rl::{
    greedy_argmax, run_episode_batched, run_greedy_episode_ctx, run_greedy_episodes_batch,
    EpsilonSchedule, Learner, QLearner,
};
use frlfi_tensor::{derive_seed, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, PoisonError};

/// The complete federated GridWorld system of §IV-A: `n` Q-learning
/// agents, each in its own 10×10 maze, synchronized through a smoothing
/// -average server after every communication interval.
///
/// With `n_agents == 1` the server is disabled, reproducing the paper's
/// single-agent baseline (Fig. 3c).
///
/// ```no_run
/// use frlfi::nn::BatchInferCtx;
/// use frlfi::{GridFrlSystem, GridSystemConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = GridSystemConfig { n_agents: 4, ..Default::default() };
/// let mut sys = GridFrlSystem::new(cfg)?;
/// sys.train(400, None, None, &mut BatchInferCtx::new())?;
/// println!("SR = {:.2}", sys.success_rate());
/// # Ok(())
/// # }
/// ```
pub struct GridFrlSystem {
    cfg: GridSystemConfig,
    agents: Vec<QLearner>,
    envs: Vec<GridWorld>,
    server: Option<Server>,
    rng: StdRng,
    agent_rngs: Vec<StdRng>,
    dropout_rng: StdRng,
    episodes_done: usize,
    comm_rounds: usize,
    /// Draws the communication rounds took from the fault stream `rng`
    /// (one per aggregating round; a dropout-skipped round draws none).
    fault_draws: usize,
    /// Whether an injection plan has fired: its draws from `rng` are
    /// not among the counted `fault_draws`, so no fork could replay
    /// them.
    injected: bool,
    pending_server_fault: Option<InjectionPlan>,
    last_records: Vec<FaultRecord>,
    mitigation_stats: MitigationStats,
}

/// A compact snapshot of a fault-free [`GridFrlSystem`] at an episode
/// boundary: every agent's weight plane plus the environment, server,
/// random-stream and counter state — everything a later
/// [`GridFrlSystem::fork`] needs to continue training bit for bit.
///
/// The fault stream is not stored: before any injection it only feeds
/// one seed draw per aggregating round, which never touches the
/// weights, so a fork reseeds it and replays `fault_draws` draws.
/// Gradient buffers are not stored either: `apply_grads` zeroes them,
/// so they are zero at every episode boundary.
#[derive(Clone)]
pub struct GridPrefix {
    cfg: GridSystemConfig,
    /// Concatenated weight planes. This snapshot's start at `offset`:
    /// every agent's, in agent order, then the server's consensus copy.
    /// The snapshots a prefix chain takes in one run share one block.
    planes: Arc<PlaneBlock>,
    offset: usize,
    envs: Vec<GridWorld>,
    agent_rngs: Vec<StdRng>,
    dropout_rng: StdRng,
    server_round: usize,
    episodes_done: usize,
    comm_rounds: usize,
    fault_draws: usize,
    mitigation_stats: MitigationStats,
}

/// The weight planes of one or more [`GridPrefix`] snapshots, in one
/// allocation.
///
/// A dropped block parks its allocation in a process-wide one-slot
/// spare, and the next block that fits reuses it. A chain's block is
/// big enough for the allocator to map it apart from the heap, and
/// glibc raises its mapping threshold whenever such a mapping is freed,
/// so without the spare the next campaign's block would land inside a
/// worker thread's heap and stay resident there after it is freed. The
/// spare holds at most the largest block seen.
#[derive(Default)]
pub(crate) struct PlaneBlock(Vec<f32>);

static SPARE_BLOCK: Mutex<Vec<f32>> = Mutex::new(Vec::new());

impl PlaneBlock {
    /// An empty block with room for `n` values.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let mut spare = SPARE_BLOCK.lock().unwrap_or_else(PoisonError::into_inner);
        if spare.capacity() >= n {
            spare.clear();
            PlaneBlock(std::mem::take(&mut *spare))
        } else {
            PlaneBlock(Vec::with_capacity(n))
        }
    }
}

impl std::ops::Deref for PlaneBlock {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.0
    }
}

impl Drop for PlaneBlock {
    fn drop(&mut self) {
        // The spare only ever holds a whole, cleared-on-reuse vector, so
        // a poisoned lock still guards valid data.
        let mut spare = SPARE_BLOCK.lock().unwrap_or_else(PoisonError::into_inner);
        if self.0.capacity() > spare.capacity() {
            *spare = std::mem::take(&mut self.0);
        }
    }
}

/// Counters only: the planes block is shared by a whole chain.
impl std::fmt::Debug for GridPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridPrefix")
            .field("n_agents", &self.cfg.n_agents)
            .field("episodes_done", &self.episodes_done)
            .field("comm_rounds", &self.comm_rounds)
            .field("fault_draws", &self.fault_draws)
            .finish_non_exhaustive()
    }
}

impl GridPrefix {
    /// Points this snapshot at the finished block its planes were
    /// appended to (see [`GridFrlSystem::prefix_into`]).
    pub(crate) fn set_planes(&mut self, block: Arc<PlaneBlock>) {
        self.planes = block;
    }

    /// Training episodes completed when the snapshot was taken.
    pub fn episodes_done(&self) -> usize {
        self.episodes_done
    }

    /// Communication rounds completed, skipped dropout rounds included.
    pub fn comm_rounds(&self) -> usize {
        self.comm_rounds
    }

    /// Fault-stream draws taken by those rounds.
    pub fn fault_draws(&self) -> usize {
        self.fault_draws
    }
}

impl GridFrlSystem {
    /// Builds the system: maze layouts, policies and exploration streams
    /// all derive from `cfg.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`FrlfiError::BadConfig`] for zero agents, or propagates
    /// construction errors.
    pub fn new(cfg: GridSystemConfig) -> Result<Self, FrlfiError> {
        if cfg.n_agents == 0 {
            return Err(FrlfiError::BadConfig { detail: "n_agents must be ≥ 1".into() });
        }
        if let Some(p) = cfg.dropout {
            if !(0.0..1.0).contains(&p) {
                return Err(FrlfiError::BadConfig {
                    detail: format!("dropout probability {p} must lie in [0, 1)"),
                });
            }
        }
        let specs = frlfi_envs::standard_layout_specs(cfg.seed, cfg.n_agents);
        let envs: Vec<GridWorld> = match cfg.layout {
            GridLayout::Standard => specs.iter().map(GridWorld::from_spec).collect(),
            GridLayout::DynamicObstacles => {
                specs.iter().map(|s| GridWorld::with_dynamic_obstacles(s, 1)).collect()
            }
        };
        let mut agents = Vec::with_capacity(cfg.n_agents);
        let mut agent_rngs = Vec::with_capacity(cfg.n_agents);
        for i in 0..cfg.n_agents {
            let mut init_rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 0x5EED + i as u64));
            let net = frlfi_nn::NetworkBuilder::new(6)
                .dense(32)
                .relu()
                .dense(32)
                .relu()
                .dense(4)
                .build(&mut init_rng)?;
            let schedule = EpsilonSchedule::new(1.0, 0.05, cfg.epsilon_decay_episodes);
            agents.push(QLearner::new(net, cfg.gamma, cfg.lr, schedule));
            agent_rngs.push(StdRng::seed_from_u64(derive_seed(cfg.seed, 0xA6E0 + i as u64)));
        }
        let server = if cfg.n_agents >= 2 {
            Some(Server::with_annealing(
                cfg.n_agents,
                agents[0].network().param_count(),
                cfg.alpha0,
                cfg.anneal_rounds,
            )?)
        } else {
            None
        };
        Ok(GridFrlSystem {
            rng: StdRng::seed_from_u64(derive_seed(cfg.seed, 0x515)),
            dropout_rng: StdRng::seed_from_u64(derive_seed(cfg.seed, 0xD80)),
            cfg,
            agents,
            envs,
            server,
            agent_rngs,
            episodes_done: 0,
            comm_rounds: 0,
            fault_draws: 0,
            injected: false,
            pending_server_fault: None,
            last_records: Vec::new(),
            mitigation_stats: MitigationStats::default(),
        })
    }

    /// The system configuration.
    pub fn config(&self) -> &GridSystemConfig {
        &self.cfg
    }

    /// Number of agents.
    pub fn n_agents(&self) -> usize {
        self.cfg.n_agents
    }

    /// Total training episodes completed so far.
    pub fn episodes_done(&self) -> usize {
        self.episodes_done
    }

    /// Immutable access to one agent's learner.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn agent(&self, i: usize) -> &QLearner {
        &self.agents[i]
    }

    /// Mutable access to one agent's learner (fault surface).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn agent_mut(&mut self, i: usize) -> &mut QLearner {
        &mut self.agents[i]
    }

    /// Records of the most recent injection.
    pub fn last_fault_records(&self) -> &[FaultRecord] {
        &self.last_records
    }

    /// Replaces the fault-injection random stream.
    ///
    /// Campaigns train one system from a fixed configuration seed and
    /// then vary only this stream across repeats, so cell statistics
    /// measure fault impact rather than training variance (the paper
    /// repeats each injection on the same trained system).
    pub fn reseed_faults(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Snapshots this system for [`GridFrlSystem::fork`].
    ///
    /// # Errors
    ///
    /// Returns [`FrlfiError::BadConfig`] once an injection plan has
    /// fired: it drew from the fault stream outside the counted
    /// communication draws, so no fork could replay it.
    pub fn prefix(&self) -> Result<GridPrefix, FrlfiError> {
        let mut block = PlaneBlock::with_capacity(self.planes_len());
        let mut prefix = self.prefix_into(&mut block)?;
        prefix.set_planes(Arc::new(block));
        Ok(prefix)
    }

    /// Length of a snapshot's planes: every agent's weights plus the
    /// server's consensus copy.
    pub(crate) fn planes_len(&self) -> usize {
        (self.cfg.n_agents + usize::from(self.server.is_some()))
            * self.agents[0].network().param_count()
    }

    /// [`GridFrlSystem::prefix`] with the weight planes appended to
    /// `block`; the snapshot is usable once
    /// [`GridPrefix::set_planes`] hands it the finished block. Chains of
    /// snapshots share one block: one allocation, freed as one.
    pub(crate) fn prefix_into(&self, block: &mut PlaneBlock) -> Result<GridPrefix, FrlfiError> {
        if self.injected {
            return Err(FrlfiError::BadConfig {
                detail: "a fault-injected system is not a fault-free prefix".into(),
            });
        }
        let offset = block.len();
        for agent in &self.agents {
            block.0.extend(agent.network().snapshot());
        }
        if let Some(server) = &self.server {
            block.0.extend_from_slice(server.consensus());
        }
        Ok(GridPrefix {
            cfg: self.cfg.clone(),
            planes: Arc::default(),
            offset,
            envs: self.envs.clone(),
            agent_rngs: self.agent_rngs.clone(),
            dropout_rng: self.dropout_rng.clone(),
            server_round: self.server.as_ref().map_or(0, Server::round),
            episodes_done: self.episodes_done,
            comm_rounds: self.comm_rounds,
            fault_draws: self.fault_draws,
            mitigation_stats: self.mitigation_stats,
        })
    }

    /// Rebuilds the system `prefix` was taken from, with its fault
    /// stream reseeded to `fault_seed` and advanced past the prefix's
    /// draws — bit-identical to a system that was reseeded with
    /// `fault_seed` before training and then trained the same prefix.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn fork(prefix: &GridPrefix, fault_seed: u64) -> Result<Self, FrlfiError> {
        let mut sys = GridFrlSystem::new(prefix.cfg.clone())?;
        let n = sys.agents[0].network().param_count();
        let planes = &prefix.planes[prefix.offset..prefix.offset + sys.planes_len()];
        let mut planes = planes.chunks_exact(n);
        for (agent, plane) in sys.agents.iter_mut().zip(&mut planes) {
            agent.network_mut().restore(plane)?;
            // `train` sets the episode before each one it runs.
            agent.set_episode(prefix.episodes_done.saturating_sub(1));
        }
        if let (Some(server), Some(consensus)) = (sys.server.as_mut(), planes.next()) {
            server.resume(prefix.server_round, consensus);
        }
        sys.envs.clone_from(&prefix.envs);
        sys.agent_rngs.clone_from(&prefix.agent_rngs);
        sys.dropout_rng = prefix.dropout_rng.clone();
        sys.episodes_done = prefix.episodes_done;
        sys.comm_rounds = prefix.comm_rounds;
        sys.fault_draws = prefix.fault_draws;
        sys.mitigation_stats = prefix.mitigation_stats;
        sys.reseed_faults(fault_seed);
        for _ in 0..prefix.fault_draws {
            let _: u64 = sys.rng.gen();
        }
        Ok(sys)
    }

    /// Detection/recovery counters accumulated by mitigated training
    /// runs (reset at the start of each mitigated call).
    pub fn mitigation_stats(&self) -> MitigationStats {
        self.mitigation_stats
    }

    /// Drops every agent's layer input caches ([`frlfi_nn::Network::eval_mode`]),
    /// shrinking resident memory for the eval-only phase of a campaign
    /// trial. Training transparently re-caches.
    pub fn eval_mode(&mut self) {
        for agent in &mut self.agents {
            agent.network_mut().eval_mode();
        }
    }

    /// Trains for `episodes` episodes, optionally applying a dynamic
    /// [`InjectionPlan`] (episode index relative to this call) and the
    /// training-time mitigation scheme. Every agent's TD updates run
    /// through `ctx`'s cached-activation arena
    /// ([`frlfi_rl::run_episode_batched`]), bit-identical to the
    /// per-observation reference [`frlfi_rl::run_episode`].
    ///
    /// # Errors
    ///
    /// Propagates training, aggregation or restore failures.
    pub fn train(
        &mut self,
        episodes: usize,
        plan: Option<&InjectionPlan>,
        mitigation: Option<&TrainingMitigation>,
        ctx: &mut BatchInferCtx,
    ) -> Result<(), FrlfiError> {
        let mut detector = mitigation
            .map(|m| RewardDropDetector::new(m.p_percent, m.k_consecutive, self.cfg.n_agents));
        let mut checkpoint = mitigation.map(|m| ServerCheckpoint::new(m.checkpoint_interval));
        if mitigation.is_some() {
            self.mitigation_stats = MitigationStats::default();
        }

        let schedule = self.cfg.comm_schedule();
        for ep in 0..episodes {
            let global_ep = self.episodes_done + ep;
            let mut rewards = Vec::with_capacity(self.cfg.n_agents);
            for i in 0..self.cfg.n_agents {
                self.agents[i].set_episode(global_ep);
                let (env, agent, rng) =
                    (&mut self.envs[i], &mut self.agents[i], &mut self.agent_rngs[i]);
                rewards.push(run_episode_batched(env, agent, rng, ctx)?.total_reward);
            }

            if let Some(p) = plan {
                if p.episode == ep {
                    self.inject_now(p);
                }
            }

            if self.server.is_some() && schedule.communicates_at(global_ep) {
                self.communicate()?;
                if let Some(cp) = checkpoint.as_mut() {
                    let server = self.server.as_ref().expect("server present");
                    cp.on_round(self.comm_rounds, server.consensus());
                }
            }

            if let (Some(det), Some(cp)) = (detector.as_mut(), checkpoint.as_ref()) {
                match det.observe(&rewards) {
                    Detection::None => {}
                    Detection::AgentFault(ids) => {
                        self.mitigation_stats.agent_detections += 1;
                        for id in ids {
                            self.restore_agent_from(cp, id)?;
                        }
                    }
                    Detection::ServerFault => {
                        self.mitigation_stats.server_detections += 1;
                        self.restore_all_from(cp)?;
                    }
                }
            }
        }
        self.episodes_done += episodes;
        Ok(())
    }

    fn restore_agent_from(
        &mut self,
        cp: &ServerCheckpoint,
        agent: usize,
    ) -> Result<(), FrlfiError> {
        let mut buf = self.agents[agent].network().snapshot();
        if cp.restore_into(&mut buf) {
            self.agents[agent].network_mut().restore(&buf)?;
        }
        Ok(())
    }

    fn restore_all_from(&mut self, cp: &ServerCheckpoint) -> Result<(), FrlfiError> {
        for i in 0..self.cfg.n_agents {
            self.restore_agent_from(cp, i)?;
        }
        if let (Some(server), Some(snap)) = (self.server.as_mut(), cp.stored()) {
            server.consensus_mut().copy_from_slice(snap);
        }
        Ok(())
    }

    /// Applies an injection plan *now* (between episodes).
    pub fn inject_now(&mut self, plan: &InjectionPlan) {
        self.injected = true;
        match plan.side {
            FaultSide::AgentSide => {
                let victim = self.rng.gen_range(0..self.cfg.n_agents);
                self.inject_agent(victim, plan);
            }
            FaultSide::ServerSide => {
                if self.server.is_some() {
                    // Applied inside the next communication round, where
                    // the aggregated sets sit in server memory.
                    self.pending_server_fault = Some(*plan);
                } else {
                    // Single-agent system: the only memory is the agent's.
                    self.inject_agent(0, plan);
                }
            }
        }
    }

    fn inject_agent(&mut self, victim: usize, plan: &InjectionPlan) {
        let repr = plan.repr.materialize(self.agents[victim].network());
        let mut snap = self.agents[victim].network().snapshot();
        let records = inject_slice_ber(&mut snap, repr, plan.model, plan.ber, &mut self.rng);
        self.agents[victim].network_mut().restore(&snap).expect("snapshot length invariant");
        self.last_records = records;
    }

    fn communicate(&mut self) -> Result<(), FrlfiError> {
        // Wall-clock accounting only (thread-local, aggregated —
        // federated aggregation runs once per communication round).
        let _aggregate = frlfi_obs::timed("aggregate");
        // Draw the participant mask before borrowing the server, and
        // draw it even when a round ends up skipped, so the dropout
        // stream stays aligned with the round index.
        let participants: Option<Vec<bool>> = self.cfg.dropout.map(|p| {
            (0..self.cfg.n_agents).map(|_| !self.dropout_rng.gen_bool(f64::from(p))).collect()
        });
        if let Some(mask) = &participants {
            if mask.iter().filter(|&&p| p).count() < 2 {
                // Too few participants: the round is skipped entirely.
                // Leave any pending server fault queued — server memory
                // is only exposed during an actual aggregation.
                self.comm_rounds += 1;
                return Ok(());
            }
        }

        let server = self.server.as_mut().expect("communicate requires a server");
        let mut uploads: Vec<Vec<f32>> =
            self.agents.iter().map(|a| a.network().snapshot()).collect();

        let mut hook = ServerFaultHook {
            plan: self.pending_server_fault.take(),
            rng: StdRng::seed_from_u64(self.rng.gen()),
            records: Vec::new(),
        };
        self.fault_draws += 1;
        match participants {
            None => {
                let outputs = server.aggregate_with_hook(&mut uploads, &mut hook)?;
                for (agent, out) in self.agents.iter_mut().zip(outputs.iter()) {
                    agent.network_mut().restore(out)?;
                }
            }
            Some(mask) => {
                let outputs = server.aggregate_subset(&mut uploads, &mask, &mut hook)?;
                for (agent, out) in self.agents.iter_mut().zip(outputs.iter()) {
                    if let Some(out) = out {
                        agent.network_mut().restore(out)?;
                    }
                }
            }
        }
        if !hook.records.is_empty() {
            self.last_records = hook.records;
        }
        self.comm_rounds += 1;
        Ok(())
    }

    /// Average success rate of all agents under greedy exploitation —
    /// the paper's `SR = (1/n) Σ SRᵢ`. GridWorld is deterministic, so a
    /// single greedy attempt per agent fully determines `SRᵢ`.
    pub fn success_rate(&mut self) -> f64 {
        crate::metrics::success_rate_of(&self.eval_outcomes())
    }

    /// One greedy episode per agent, returning the outcomes.
    pub fn eval_outcomes(&mut self) -> Vec<Outcome> {
        let mut ctx = BatchInferCtx::new();
        let mut outcomes = Vec::with_capacity(self.cfg.n_agents);
        for i in 0..self.cfg.n_agents {
            let mut eval_rng = StdRng::seed_from_u64(derive_seed(self.cfg.seed, 0xE7A1 + i as u64));
            let summary = run_greedy_episode_ctx(
                &mut self.envs[i],
                &mut self.agents[i],
                &mut eval_rng,
                &mut ctx,
            )
            .expect("grid policy and observation shapes are fixed at construction");
            outcomes.push(summary.outcome);
        }
        outcomes
    }

    /// [`GridFrlSystem::success_rate`] on the **batched** inference
    /// fast path (see [`GridFrlSystem::eval_outcomes_batched`]).
    pub fn success_rate_batched(&mut self, ctx: &mut BatchInferCtx) -> f64 {
        let outcomes = self.eval_outcomes_batched(ctx);
        crate::metrics::success_rate_of(&outcomes)
    }

    /// [`GridFrlSystem::eval_outcomes`] on the batched inference fast
    /// path: agents whose policies hold bit-identical parameters (the
    /// common case after annealed consensus drives every aggregation
    /// output to the same vector) share **one batched forward per
    /// lock-step evaluation step** across their environments, with
    /// finished episodes retired from the batch; agents with distinct
    /// parameters fall back to singleton batches on the same code
    /// path. Per-agent environments, RNG streams and greedy actions are
    /// exactly those of [`GridFrlSystem::eval_outcomes`], so the
    /// outcomes are identical.
    pub fn eval_outcomes_batched(&mut self, ctx: &mut BatchInferCtx) -> Vec<Outcome> {
        let n = self.cfg.n_agents;
        let seed = self.cfg.seed;
        // Group agents by identical parameter vectors (ascending index
        // order within and across groups).
        let snaps: Vec<Vec<f32>> = self.agents.iter().map(|a| a.network().snapshot()).collect();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            match groups.iter_mut().find(|g| snaps[g[0]] == snaps[i]) {
                Some(g) => g.push(i),
                None => groups.push(vec![i]),
            }
        }
        let agents = &mut self.agents;
        let envs = &mut self.envs;
        let mut outcomes = vec![Outcome::Timeout; n];
        for group in &groups {
            let mut rngs: Vec<StdRng> = group
                .iter()
                .map(|&i| StdRng::seed_from_u64(derive_seed(seed, 0xE7A1 + i as u64)))
                .collect();
            let mut group_envs: Vec<&mut GridWorld> = envs
                .iter_mut()
                .enumerate()
                .filter_map(|(i, e)| group.contains(&i).then_some(e))
                .collect();
            let summaries =
                run_greedy_episodes_batch(&mut agents[group[0]], &mut group_envs, &mut rngs, ctx)
                    .expect("grid policy and observation shapes are fixed at construction");
            for (k, &i) in group.iter().enumerate() {
                outcomes[i] = summaries[k].outcome;
            }
        }
        outcomes
    }

    /// Keeps training in `check_every`-episode chunks until the success
    /// rate reaches `threshold`, returning the extra episodes used, or
    /// `None` if `max_extra` episodes were not enough — the paper's
    /// "episodes to converge" metric (Fig. 3e). Training and every
    /// convergence check run on `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn episodes_to_converge(
        &mut self,
        threshold: f64,
        check_every: usize,
        max_extra: usize,
        ctx: &mut BatchInferCtx,
    ) -> Result<Option<usize>, FrlfiError> {
        let mut used = 0;
        while used < max_extra {
            if self.success_rate_batched(ctx) >= threshold {
                return Ok(Some(used));
            }
            self.train(check_every, None, None, ctx)?;
            used += check_every;
        }
        Ok(if self.success_rate_batched(ctx) >= threshold { Some(used) } else { None })
    }

    /// Runs `f` with every agent's policy deployed in `repr` (weights
    /// quantized through the representation) and corrupted by a static
    /// inference-time fault, then restores the clean weights
    /// (the paper's static injection mode, §III-D).
    pub fn with_faulted_policies<T>(
        &mut self,
        model: FaultModel,
        ber: Ber,
        repr: ReprKind,
        seed: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let clean: Vec<Vec<f32>> = self.agents.iter().map(|a| a.network().snapshot()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for agent in &mut self.agents {
            let repr = repr.materialize(agent.network());
            let mut snap = agent.network().snapshot();
            // Deploy-time quantization: faults strike the encoded form.
            for w in &mut snap {
                *w = repr.quantize(*w);
            }
            inject_slice_ber(&mut snap, repr, model, ber, &mut rng);
            agent.network_mut().restore(&snap).expect("snapshot length invariant");
        }
        let out = f(self);
        for (agent, snap) in self.agents.iter_mut().zip(clean.iter()) {
            agent.network_mut().restore(snap).expect("snapshot length invariant");
        }
        out
    }

    /// Evaluates the success rate when a *single-step* transient fault
    /// (`Multi-Trans-1`, a read-register upset) strikes one action
    /// computation per episode: the fault corrupts the policy for
    /// exactly one step and then vanishes.
    pub fn success_rate_transient1(&mut self, ber: Ber, repr: ReprKind, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ctx = BatchInferCtx::new();
        let mut outcomes = Vec::with_capacity(self.cfg.n_agents);
        for i in 0..self.cfg.n_agents {
            let fault_step = rng.gen_range(0..20usize);
            outcomes.push(
                self.greedy_episode_with_step_fault(i, fault_step, ber, repr, &mut rng, &mut ctx),
            );
        }
        crate::metrics::success_rate_of(&outcomes)
    }

    fn greedy_episode_with_step_fault(
        &mut self,
        agent: usize,
        fault_step: usize,
        ber: Ber,
        repr: ReprKind,
        rng: &mut StdRng,
        ctx: &mut BatchInferCtx,
    ) -> Outcome {
        let mut eval_rng = StdRng::seed_from_u64(derive_seed(self.cfg.seed, 0xE7A1 + agent as u64));
        let mut state = self.envs[agent].reset(&mut eval_rng);
        for step in 0..200 {
            let action = if step == fault_step {
                // Corrupt a transient copy for this single decision.
                let clean = self.agents[agent].network().snapshot();
                let repr_m = repr.materialize(self.agents[agent].network());
                let mut corrupted = clean.clone();
                inject_slice_ber(&mut corrupted, repr_m, FaultModel::TransientMulti, ber, rng);
                self.agents[agent]
                    .network_mut()
                    .restore(&corrupted)
                    .expect("snapshot length invariant");
                let a = self.agents[agent]
                    .act_greedy_ctx(&state, ctx)
                    .expect("grid policy and observation shapes are fixed at construction");
                self.agents[agent]
                    .network_mut()
                    .restore(&clean)
                    .expect("snapshot length invariant");
                a
            } else {
                self.agents[agent]
                    .act_greedy_ctx(&state, ctx)
                    .expect("grid policy and observation shapes are fixed at construction")
            };
            let step_result = self.envs[agent].step(action, &mut eval_rng);
            state = step_result.state;
            if step_result.outcome.is_terminal() {
                return step_result.outcome;
            }
        }
        Outcome::Timeout
    }

    /// Evaluates the success rate when transient faults strike the
    /// *activations* (feature maps) of every forward pass instead of the
    /// stored weights — the paper's third fault surface (§III-C).
    ///
    /// Each layer output has `ber × bits` of its scalars' bits flipped
    /// on every inference step, emulating upsets in an accelerator's
    /// activation buffers.
    pub fn success_rate_activation_faults(&mut self, ber: Ber, repr: ReprKind, seed: u64) -> f64 {
        self.success_rate_activation_faults_ctx(ber, repr, seed, &mut BatchInferCtx::new())
    }

    /// [`GridFrlSystem::success_rate_activation_faults`] on the
    /// zero-allocation inference fast path: the per-layer corruption
    /// hook runs over the scratch-buffer activations, and the fault
    /// RNG consumes the exact same stream as the slow path (one hook
    /// call per layer, in layer order), so statistics are
    /// bit-identical.
    pub fn success_rate_activation_faults_ctx(
        &mut self,
        ber: Ber,
        repr: ReprKind,
        seed: u64,
        ctx: &mut BatchInferCtx,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut outcomes = Vec::with_capacity(self.cfg.n_agents);
        for i in 0..self.cfg.n_agents {
            let mut eval_rng = StdRng::seed_from_u64(derive_seed(self.cfg.seed, 0xE7A1 + i as u64));
            let mut state = self.envs[i].reset(&mut eval_rng);
            let mut outcome = Outcome::Timeout;
            for _ in 0..200 {
                let action = {
                    let net = self.agents[i].network();
                    let out = net
                        .infer_with_activation_faults(&state, ctx, &mut |buf| {
                            let repr = repr.materialize_for(buf);
                            inject_slice_ber(buf, repr, FaultModel::TransientMulti, ber, &mut rng);
                        })
                        .expect("infer");
                    // Greedy over (possibly corrupted) outputs.
                    greedy_argmax(out)
                };
                let step = self.envs[i].step(action, &mut eval_rng);
                state = step.state;
                if step.outcome.is_terminal() {
                    outcome = step.outcome;
                    break;
                }
            }
            outcomes.push(outcome);
        }
        crate::metrics::success_rate_of(&outcomes)
    }

    /// Samples the observation space: the observation at every free cell
    /// of every maze (Table I's per-state policy statistics).
    pub fn sample_states(&self) -> Vec<Tensor> {
        let mut states = Vec::new();
        for env in &self.envs {
            for r in 0..GRID_SIZE {
                for c in 0..GRID_SIZE {
                    if matches!(env.cell(r, c), frlfi_envs::Cell::Free | frlfi_envs::Cell::Source) {
                        states.push(env.observation_at(r, c));
                    }
                }
            }
        }
        states
    }

    /// Samples the observation space together with each state's
    /// improving-action mask (Table I's differentiation probes).
    pub fn sample_probes(&self) -> Vec<(Tensor, [bool; 4])> {
        let mut probes = Vec::new();
        for env in &self.envs {
            for r in 0..GRID_SIZE {
                for c in 0..GRID_SIZE {
                    if matches!(env.cell(r, c), frlfi_envs::Cell::Free | frlfi_envs::Cell::Source) {
                        probes.push((env.observation_at(r, c), env.improving_actions(r, c)));
                    }
                }
            }
        }
        probes
    }

    /// Std of the consensus policy's action distribution over the
    /// sampled state space (Table I).
    pub fn consensus_policy_std(&mut self) -> f32 {
        let states = self.sample_states();
        // The consensus policy is agent 0's post-aggregation copy (all
        // agents converge to the same parameters, paper Eq. 4).
        crate::metrics::policy_action_std(self.agents[0].network_mut(), &states)
    }
}

/// Hook that applies a pending server-memory fault to the aggregated
/// parameter sets of *all* agents — the reason server faults are
/// "equivalent to a randomized policy of all agents to some extent"
/// (§IV-A-2).
struct ServerFaultHook {
    plan: Option<InjectionPlan>,
    rng: StdRng,
    records: Vec<FaultRecord>,
}

impl RoundHook for ServerFaultHook {
    fn on_server(&mut self, outputs: &mut [Vec<f32>]) {
        let Some(plan) = self.plan.take() else { return };
        // Server memory holds all n aggregated sets contiguously; the
        // BER applies over that whole surface.
        let mut flat: Vec<f32> = outputs.iter().flatten().copied().collect();
        let repr = plan.repr.materialize_for(&flat);
        self.records = inject_slice_ber(&mut flat, repr, plan.model, plan.ber, &mut self.rng);
        let mut off = 0;
        for out in outputs.iter_mut() {
            let n = out.len();
            out.copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(n: usize) -> GridSystemConfig {
        GridSystemConfig {
            n_agents: n,
            seed: 77,
            epsilon_decay_episodes: 150,
            ..Default::default()
        }
    }

    #[test]
    fn construction_and_determinism() {
        let a = GridFrlSystem::new(small_cfg(3)).unwrap();
        let b = GridFrlSystem::new(small_cfg(3)).unwrap();
        assert_eq!(a.agent(0).network().snapshot(), b.agent(0).network().snapshot());
        assert_eq!(a.n_agents(), 3);
    }

    #[test]
    fn rejects_zero_agents() {
        assert!(GridFrlSystem::new(small_cfg(0)).is_err());
    }

    #[test]
    fn single_agent_has_no_server() {
        let s = GridFrlSystem::new(small_cfg(1)).unwrap();
        assert!(s.server.is_none());
    }

    #[test]
    fn training_improves_success_rate() {
        let mut s = GridFrlSystem::new(small_cfg(3)).unwrap();
        s.train(250, None, None, &mut BatchInferCtx::new()).unwrap();
        let sr = s.success_rate();
        assert!(sr >= 2.0 / 3.0, "trained FRL success rate too low: {sr}");
    }

    #[test]
    fn server_fault_corrupts_all_agents() {
        let mut s = GridFrlSystem::new(small_cfg(3)).unwrap();
        s.train(30, None, None, &mut BatchInferCtx::new()).unwrap();
        let before: Vec<Vec<f32>> = s.agents.iter().map(|a| a.network().snapshot()).collect();
        let plan = InjectionPlan::server(0, Ber::new(0.05).unwrap());
        s.inject_now(&plan);
        // Fault is pending; applied at next communication.
        s.train(1, None, None, &mut BatchInferCtx::new()).unwrap();
        let after: Vec<Vec<f32>> = s.agents.iter().map(|a| a.network().snapshot()).collect();
        assert_ne!(before, after);
        assert!(!s.last_fault_records().is_empty());
    }

    #[test]
    fn static_fault_scope_is_restored() {
        let mut s = GridFrlSystem::new(small_cfg(2)).unwrap();
        s.train(20, None, None, &mut BatchInferCtx::new()).unwrap();
        let before = s.agent(0).network().snapshot();
        let sr = s.with_faulted_policies(
            FaultModel::TransientMulti,
            Ber::new(0.05).unwrap(),
            ReprKind::Int8,
            9,
            |sys| sys.success_rate(),
        );
        assert!((0.0..=1.0).contains(&sr));
        assert_eq!(s.agent(0).network().snapshot(), before, "weights must be restored");
    }

    #[test]
    fn transient1_returns_valid_rate() {
        let mut s = GridFrlSystem::new(small_cfg(2)).unwrap();
        s.train(60, None, None, &mut BatchInferCtx::new()).unwrap();
        let sr = s.success_rate_transient1(Ber::new(0.01).unwrap(), ReprKind::Int8, 5);
        assert!((0.0..=1.0).contains(&sr));
    }

    #[test]
    fn sample_states_covers_free_cells() {
        let s = GridFrlSystem::new(small_cfg(2)).unwrap();
        let states = s.sample_states();
        assert!(states.len() > 100, "expected many sampled states, got {}", states.len());
        assert!(states.iter().all(|t| t.len() == 6));
    }

    #[test]
    fn mitigation_restores_after_server_fault() {
        let mut s = GridFrlSystem::new(small_cfg(3)).unwrap();
        s.train(150, None, None, &mut BatchInferCtx::new()).unwrap();
        let baseline = s.success_rate();
        // Heavy server fault, with mitigation active.
        let plan = InjectionPlan::server(10, Ber::new(0.05).unwrap());
        let mit = TrainingMitigation::scaled(5);
        s.train(120, Some(&plan), Some(&mit), &mut BatchInferCtx::new()).unwrap();
        let recovered = s.success_rate();
        assert!(
            recovered >= baseline - 1.0 / 3.0,
            "mitigated SR {recovered} should recover toward baseline {baseline}"
        );
    }

    #[test]
    fn activation_faults_evaluate_in_range() {
        let mut s = GridFrlSystem::new(small_cfg(2)).unwrap();
        s.train(60, None, None, &mut BatchInferCtx::new()).unwrap();
        let clean = s.agent(0).network().snapshot();
        let sr = s.success_rate_activation_faults(Ber::new(0.01).unwrap(), ReprKind::Int8, 3);
        assert!((0.0..=1.0).contains(&sr));
        // Activation faults are transient: stored weights untouched.
        assert_eq!(s.agent(0).network().snapshot(), clean);
    }

    #[test]
    fn heavy_activation_faults_hurt_more_than_light() {
        let mut s = GridFrlSystem::new(small_cfg(3)).unwrap();
        s.train(250, None, None, &mut BatchInferCtx::new()).unwrap();
        let avg = |s: &mut GridFrlSystem, ber: f64| -> f64 {
            (0..6u64)
                .map(|seed| {
                    s.success_rate_activation_faults(Ber::new(ber).unwrap(), ReprKind::Int8, seed)
                })
                .sum::<f64>()
                / 6.0
        };
        let light = avg(&mut s, 0.001);
        let heavy = avg(&mut s, 0.2);
        assert!(heavy <= light, "heavier activation faults should hurt: {light} vs {heavy}");
    }

    #[test]
    fn alpha0_config_reaches_server() {
        let cfg = GridSystemConfig { n_agents: 4, alpha0: 0.9, anneal_rounds: 100, ..small_cfg(4) };
        let s = GridFrlSystem::new(cfg).unwrap();
        let alpha = s.server.as_ref().unwrap().alpha();
        assert!((alpha - 0.9).abs() < 1e-6, "initial alpha should be the configured alpha0");
    }

    #[test]
    fn reseed_faults_changes_injection_sites() {
        let mut a = GridFrlSystem::new(small_cfg(2)).unwrap();
        let mut b = GridFrlSystem::new(small_cfg(2)).unwrap();
        a.reseed_faults(1);
        b.reseed_faults(2);
        let plan = InjectionPlan::agent(0, Ber::new(0.05).unwrap());
        a.inject_now(&plan);
        b.inject_now(&plan);
        let sites = |s: &GridFrlSystem| -> Vec<(usize, u32)> {
            s.last_fault_records().iter().map(|r| (r.index, r.bit)).collect()
        };
        assert_ne!(sites(&a), sites(&b));
    }

    #[test]
    fn dynamic_layout_trains_and_evaluates() {
        let cfg = GridSystemConfig { layout: crate::GridLayout::DynamicObstacles, ..small_cfg(2) };
        let mut s = GridFrlSystem::new(cfg).unwrap();
        s.train(60, None, None, &mut BatchInferCtx::new()).unwrap();
        let sr = s.success_rate();
        assert!((0.0..=1.0).contains(&sr));
    }

    #[test]
    fn dropout_training_is_deterministic_and_converges() {
        let cfg = GridSystemConfig { dropout: Some(0.3), ..small_cfg(3) };
        let run = || {
            let mut s = GridFrlSystem::new(cfg.clone()).unwrap();
            s.train(250, None, None, &mut BatchInferCtx::new()).unwrap();
            (s.agent(0).network().snapshot(), s.success_rate())
        };
        let (w1, sr1) = run();
        let (w2, _) = run();
        assert_eq!(w1, w2, "dropout masks must derive from the config seed");
        assert!(sr1 >= 2.0 / 3.0, "dropout-trained FRL success rate too low: {sr1}");
    }

    #[test]
    fn dropout_changes_training_trajectory() {
        let mut with =
            GridFrlSystem::new(GridSystemConfig { dropout: Some(0.5), ..small_cfg(3) }).unwrap();
        let mut without = GridFrlSystem::new(small_cfg(3)).unwrap();
        with.train(40, None, None, &mut BatchInferCtx::new()).unwrap();
        without.train(40, None, None, &mut BatchInferCtx::new()).unwrap();
        assert_ne!(with.agent(0).network().snapshot(), without.agent(0).network().snapshot());
    }

    #[test]
    fn pending_server_fault_survives_skipped_dropout_rounds() {
        // With 95% dropout nearly every round lacks the 2 participants
        // an aggregation needs; the queued server fault must stay
        // pending until a round actually aggregates, not vanish with
        // the first skipped round.
        let cfg = GridSystemConfig { dropout: Some(0.95), ..small_cfg(3) };
        let mut s = GridFrlSystem::new(cfg).unwrap();
        s.train(30, None, None, &mut BatchInferCtx::new()).unwrap();
        let plan = InjectionPlan::server(0, Ber::new(0.05).unwrap());
        s.inject_now(&plan);
        s.train(400, None, None, &mut BatchInferCtx::new()).unwrap();
        assert!(
            !s.last_fault_records().is_empty(),
            "server fault was dropped without ever striking server memory"
        );
    }

    #[test]
    fn fork_continues_a_prefix_bitwise() {
        // Half the rounds skip under heavy dropout, so the replayed
        // draw count is not the round count.
        let cfg = GridSystemConfig { dropout: Some(0.5), ..small_cfg(3) };
        let plan = InjectionPlan::server(20, Ber::new(0.05).unwrap());
        let mut whole = GridFrlSystem::new(cfg.clone()).unwrap();
        whole.reseed_faults(5);
        whole.train(40, Some(&plan), None, &mut BatchInferCtx::new()).unwrap();

        let mut prefix = GridFrlSystem::new(cfg).unwrap();
        prefix.train(20, None, None, &mut BatchInferCtx::new()).unwrap();
        let snap = prefix.prefix().unwrap();
        assert_eq!(snap.episodes_done(), 20);
        assert!(snap.fault_draws() < snap.comm_rounds(), "no round was skipped");
        let mut forked = GridFrlSystem::fork(&snap, 5).unwrap();
        let shifted = InjectionPlan { episode: 0, ..plan };
        forked.train(20, Some(&shifted), None, &mut BatchInferCtx::new()).unwrap();

        for i in 0..3 {
            assert_eq!(whole.agent(i).network().snapshot(), forked.agent(i).network().snapshot());
        }
        assert_eq!(whole.last_fault_records(), forked.last_fault_records());
        assert!(!forked.last_fault_records().is_empty());
        assert_eq!(whole.success_rate(), forked.success_rate());
    }

    #[test]
    fn injected_system_is_not_a_prefix() {
        // A zero-rate agent plan flips nothing and records nothing, but
        // still draws its victim from the fault stream.
        for ber in [0.0, 0.05] {
            let mut s = GridFrlSystem::new(small_cfg(2)).unwrap();
            s.inject_now(&InjectionPlan::agent(0, Ber::new(ber).unwrap()));
            assert!(s.prefix().is_err(), "BER {ber}");
        }
    }

    #[test]
    fn rejects_invalid_dropout() {
        let cfg = GridSystemConfig { dropout: Some(1.5), ..small_cfg(3) };
        assert!(GridFrlSystem::new(cfg).is_err());
    }

    #[test]
    fn batched_eval_matches_sequential_outcomes() {
        let mut s = GridFrlSystem::new(small_cfg(3)).unwrap();
        s.train(120, None, None, &mut BatchInferCtx::new()).unwrap();
        // Perturb one agent so the eval spans a mixed group structure
        // (two identical policies + one distinct).
        let mut snap = s.agent(0).network().snapshot();
        let copy = snap.clone();
        s.agent_mut(1).network_mut().restore(&copy).unwrap();
        snap[0] += 0.25;
        s.agent_mut(2).network_mut().restore(&snap).unwrap();
        let sequential = s.eval_outcomes();
        let batched = s.eval_outcomes_batched(&mut BatchInferCtx::new());
        assert_eq!(batched, sequential);
        assert_eq!(
            s.success_rate_batched(&mut BatchInferCtx::new()).to_bits(),
            s.success_rate().to_bits()
        );
    }

    /// `train` without plan or mitigation on the per-observation
    /// reference path ([`frlfi_rl::run_episode`]): the oracle the arena
    /// path must match bit for bit.
    fn train_reference(s: &mut GridFrlSystem, episodes: usize) {
        let schedule = s.cfg.comm_schedule();
        for ep in s.episodes_done..s.episodes_done + episodes {
            for i in 0..s.cfg.n_agents {
                s.agents[i].set_episode(ep);
                frlfi_rl::run_episode(&mut s.envs[i], &mut s.agents[i], &mut s.agent_rngs[i])
                    .unwrap();
            }
            if s.server.is_some() && schedule.communicates_at(ep) {
                s.communicate().unwrap();
            }
        }
        s.episodes_done += episodes;
    }

    #[test]
    fn batched_training_matches_sequential_weights() {
        let mut seq = GridFrlSystem::new(small_cfg(3)).unwrap();
        let mut bat = GridFrlSystem::new(small_cfg(3)).unwrap();
        train_reference(&mut seq, 60);
        bat.train(60, None, None, &mut BatchInferCtx::new()).unwrap();
        for i in 0..3 {
            assert_eq!(
                seq.agent(i).network().snapshot(),
                bat.agent(i).network().snapshot(),
                "agent {i} weights must be bit-identical across training paths"
            );
        }
    }

    #[test]
    fn episodes_to_converge_returns_zero_when_converged() {
        let mut s = GridFrlSystem::new(small_cfg(2)).unwrap();
        s.train(250, None, None, &mut BatchInferCtx::new()).unwrap();
        if s.success_rate() >= 0.99 {
            assert_eq!(
                s.episodes_to_converge(0.99, 50, 200, &mut BatchInferCtx::new()).unwrap(),
                Some(0)
            );
        }
    }
}
