use crate::config::{GridLayout, GridSystemConfig};
use crate::error::FrlfiError;
use crate::fleet::{check_dropout, Fleet, FleetConfig, ForkLearner, Mitigation};
use crate::injection::ReprKind;
use frlfi_envs::{Environment, GridWorld, Outcome, GRID_SIZE};
use frlfi_fault::{corrupt_slice_ber, Ber, FaultModel};
use frlfi_federated::Server;
use frlfi_nn::BatchInferCtx;
use frlfi_rl::{run_greedy_episodes_batch, EpsilonSchedule, Learner, QLearner};
use frlfi_tensor::{derive_seed, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The complete federated GridWorld system of §IV-A: `n` Q-learning
/// agents, each in its own 10×10 maze, synchronized through a smoothing
/// -average server after every communication interval. Training,
/// injection and mitigation are the shared [`Fleet`] protocol.
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
/// let ctx = &mut BatchInferCtx::new();
/// sys.train(400, None, ctx)?;
/// println!("SR = {:.2}", sys.success_rate(ctx));
/// # Ok(())
/// # }
/// ```
pub type GridFrlSystem = Fleet<QLearner, GridWorld, GridSystemConfig>;

impl FleetConfig for GridSystemConfig {
    type Learner = QLearner;
    type Env = GridWorld;

    fn build(self) -> Result<GridFrlSystem, FrlfiError> {
        GridFrlSystem::new(self)
    }
}

/// A Q-learner's weights and episode index are its whole state.
impl ForkLearner for QLearner {
    type State = ();

    fn fork_state(&self) {}

    fn resume_state(&mut self, _: &()) {}
}

impl GridFrlSystem {
    /// Builds the system: maze layouts, policies and exploration streams
    /// all derive from `cfg.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`FrlfiError::BadConfig`] for zero agents, a dropout
    /// probability outside `[0, 1)`, or an invalid mitigation (including
    /// any on a single agent, which has no server to checkpoint), or
    /// propagates construction errors.
    pub fn new(cfg: GridSystemConfig) -> Result<Self, FrlfiError> {
        if cfg.n_agents == 0 {
            return Err(FrlfiError::BadConfig { detail: "n_agents must be ≥ 1".into() });
        }
        check_dropout(cfg.dropout)?;
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
        Ok(Fleet {
            rng: StdRng::seed_from_u64(derive_seed(cfg.seed, 0x515)),
            dropout_rng: StdRng::seed_from_u64(derive_seed(cfg.seed, 0xD80)),
            schedule: cfg.comm_schedule(),
            dropout: cfg.dropout,
            mitigation: Mitigation::new(cfg.mitigation, cfg.n_agents)?,
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
            pretrained: false,
        })
    }

    /// Average success rate of all agents under greedy exploitation —
    /// the paper's `SR = (1/n) Σ SRᵢ` — on `ctx`'s arena. GridWorld is
    /// deterministic, so a single greedy attempt per agent fully
    /// determines `SRᵢ` (see `GridFrlSystem::eval_outcomes`).
    pub fn success_rate(&mut self, ctx: &mut BatchInferCtx) -> f64 {
        crate::metrics::success_rate_of(&self.eval_outcomes(ctx))
    }

    /// One greedy episode per agent, returning the outcomes in agent
    /// order. Agents whose policies hold bit-identical parameters (the
    /// common case after annealed consensus drives every aggregation
    /// output to the same vector) share **at most one batched forward
    /// per lock-step evaluation step** across their environments (over
    /// the observations the runner's memo misses), with
    /// finished episodes retired from the batch; an agent with
    /// parameters of its own is a batch of one on the same runner
    /// ([`frlfi_rl::run_greedy_episodes_batch`]). Every agent keeps its
    /// own environment and RNG stream, and every batched action is
    /// bit-identical to single-observation greedy selection, so the
    /// grouping never changes an outcome.
    pub(crate) fn eval_outcomes(&mut self, ctx: &mut BatchInferCtx) -> Vec<Outcome> {
        let n = self.cfg.n_agents;
        let seed = self.cfg.seed;
        // Group agents by bit-identical parameter planes (ascending
        // index order within and across groups). Bits, not `==`: NaN
        // weights equal themselves, and +0 and -0 are different
        // policies.
        let plane = |i: usize| self.agents[i].network().params().iter().map(|w| w.to_bits());
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            match groups.iter_mut().find(|g| plane(g[0]).eq(plane(i))) {
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
    pub(crate) fn episodes_to_converge(
        &mut self,
        threshold: f64,
        check_every: usize,
        max_extra: usize,
        ctx: &mut BatchInferCtx,
    ) -> Result<Option<usize>, FrlfiError> {
        let mut used = 0;
        while used < max_extra {
            if self.success_rate(ctx) >= threshold {
                return Ok(Some(used));
            }
            self.train(check_every, None, ctx)?;
            used += check_every;
        }
        Ok(if self.success_rate(ctx) >= threshold { Some(used) } else { None })
    }

    /// Evaluates the success rate when a *single-step* transient fault
    /// (`Multi-Trans-1`, a read-register upset) strikes one action
    /// computation per episode: the fault corrupts the policy for
    /// exactly one step and then vanishes.
    pub fn success_rate_transient1(
        &mut self,
        ber: Ber,
        repr: ReprKind,
        seed: u64,
        ctx: &mut BatchInferCtx,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut outcomes = Vec::with_capacity(self.cfg.n_agents);
        for i in 0..self.cfg.n_agents {
            let fault_step = rng.gen_range(0..20usize);
            outcomes
                .push(self.greedy_episode_with_step_fault(i, fault_step, ber, repr, &mut rng, ctx));
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
                // Corrupt the policy for this single decision only.
                self.with_corrupted(
                    agent..agent + 1,
                    |plane| {
                        let repr = repr.materialize_for(plane);
                        corrupt_slice_ber(plane, repr, FaultModel::TransientMulti, ber, rng);
                    },
                    |s| s.agents[agent].act_greedy_ctx(&state, ctx),
                )
            } else {
                self.agents[agent].act_greedy_ctx(&state, ctx)
            }
            .expect("grid policy and observation shapes are fixed at construction");
            let step_result = self.envs[agent].step(action, &mut eval_rng);
            state = step_result.state;
            if step_result.outcome.is_terminal() {
                return step_result.outcome;
            }
        }
        Outcome::Timeout
    }

    /// Samples the observation space together with each state's
    /// improving-action mask (Table I's differentiation probes).
    pub(crate) fn sample_probes(&self) -> Vec<(Tensor, [bool; 4])> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InjectionPlan, TrainingMitigation};
    use frlfi_rl::run_greedy_episode_ctx;

    /// One greedy episode per agent, each alone: the oracle the grouped
    /// [`GridFrlSystem::eval_outcomes`] must match.
    fn eval_outcomes_sequential(s: &mut GridFrlSystem) -> Vec<Outcome> {
        let mut ctx = BatchInferCtx::new();
        (0..s.cfg.n_agents)
            .map(|i| {
                let mut eval_rng =
                    StdRng::seed_from_u64(derive_seed(s.cfg.seed, 0xE7A1 + i as u64));
                run_greedy_episode_ctx(&mut s.envs[i], &mut s.agents[i], &mut eval_rng, &mut ctx)
                    .unwrap()
                    .outcome
            })
            .collect()
    }

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
        let ctx = &mut BatchInferCtx::new();
        s.train(250, None, ctx).unwrap();
        let sr = s.success_rate(ctx);
        assert!(sr >= 2.0 / 3.0, "trained FRL success rate too low: {sr}");
    }

    #[test]
    fn server_fault_corrupts_all_agents() {
        let mut s = GridFrlSystem::new(small_cfg(3)).unwrap();
        s.train(30, None, &mut BatchInferCtx::new()).unwrap();
        let before: Vec<Vec<f32>> = s.agents.iter().map(|a| a.network().snapshot()).collect();
        let plan = InjectionPlan::server(0, Ber::new(0.05).unwrap());
        s.inject_now(&plan);
        // Fault is pending; applied at next communication.
        s.train(1, None, &mut BatchInferCtx::new()).unwrap();
        let after: Vec<Vec<f32>> = s.agents.iter().map(|a| a.network().snapshot()).collect();
        assert_ne!(before, after);
        assert!(!s.last_fault_records().is_empty());
    }

    #[test]
    fn static_fault_scope_is_restored() {
        let mut s = GridFrlSystem::new(small_cfg(2)).unwrap();
        s.train(20, None, &mut BatchInferCtx::new()).unwrap();
        let before = s.agent(0).network().snapshot();
        let sr = s.with_faulted_policies(
            FaultModel::TransientMulti,
            Ber::new(0.05).unwrap(),
            ReprKind::Int8,
            9,
            |sys| sys.success_rate(&mut BatchInferCtx::new()),
        );
        assert!((0.0..=1.0).contains(&sr));
        assert_eq!(s.agent(0).network().snapshot(), before, "weights must be restored");
    }

    #[test]
    fn transient1_returns_valid_rate() {
        let mut s = GridFrlSystem::new(small_cfg(2)).unwrap();
        let ctx = &mut BatchInferCtx::new();
        s.train(60, None, ctx).unwrap();
        let sr = s.success_rate_transient1(Ber::new(0.01).unwrap(), ReprKind::Int8, 5, ctx);
        assert!((0.0..=1.0).contains(&sr));
    }

    #[test]
    fn mitigation_restores_after_server_fault() {
        let mitigation = Some(TrainingMitigation::scaled(5));
        let mut s = GridFrlSystem::new(GridSystemConfig { mitigation, ..small_cfg(3) }).unwrap();
        let ctx = &mut BatchInferCtx::new();
        s.train(150, None, ctx).unwrap();
        let baseline = s.success_rate(ctx);
        // Heavy server fault, with mitigation active.
        let plan = InjectionPlan::server(10, Ber::new(0.05).unwrap());
        s.train(120, Some(&plan), ctx).unwrap();
        let recovered = s.success_rate(ctx);
        assert!(
            recovered >= baseline - 1.0 / 3.0,
            "mitigated SR {recovered} should recover toward baseline {baseline}"
        );
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
        let ctx = &mut BatchInferCtx::new();
        s.train(60, None, ctx).unwrap();
        let sr = s.success_rate(ctx);
        assert!((0.0..=1.0).contains(&sr));
    }

    #[test]
    fn dropout_training_is_deterministic_and_converges() {
        let cfg = GridSystemConfig { dropout: Some(0.3), ..small_cfg(3) };
        let run = || {
            let mut s = GridFrlSystem::new(cfg.clone()).unwrap();
            let ctx = &mut BatchInferCtx::new();
            s.train(250, None, ctx).unwrap();
            (s.agent(0).network().snapshot(), s.success_rate(ctx))
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
        with.train(40, None, &mut BatchInferCtx::new()).unwrap();
        without.train(40, None, &mut BatchInferCtx::new()).unwrap();
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
        s.train(30, None, &mut BatchInferCtx::new()).unwrap();
        let plan = InjectionPlan::server(0, Ber::new(0.05).unwrap());
        s.inject_now(&plan);
        s.train(400, None, &mut BatchInferCtx::new()).unwrap();
        assert!(
            !s.last_fault_records().is_empty(),
            "server fault was dropped without ever striking server memory"
        );
    }

    #[test]
    fn fork_continues_a_prefix_bitwise() {
        // Half the rounds skip under heavy dropout, so the replayed
        // draw count is not the round count. The tight detector fires
        // before and after the fork, so the fork must carry its
        // streaks, baselines, checkpoint and counts.
        let tight =
            TrainingMitigation { p_percent: 10.0, k_consecutive: 2, checkpoint_interval: 2 };
        for mitigation in [None, Some(tight)] {
            let cfg = GridSystemConfig { dropout: Some(0.5), mitigation, ..small_cfg(3) };
            let plan = InjectionPlan::server(20, Ber::new(0.05).unwrap());
            let mut whole = GridFrlSystem::new(cfg.clone()).unwrap();
            whole.reseed_faults(5);
            whole.train(40, Some(&plan), &mut BatchInferCtx::new()).unwrap();

            let mut prefix = GridFrlSystem::new(cfg).unwrap();
            prefix.train(20, None, &mut BatchInferCtx::new()).unwrap();
            let snap = prefix.prefix().unwrap();
            let stop = snap.stop();
            assert_eq!(stop.episodes_done, 20);
            assert!(stop.fault_draws < stop.comm_rounds, "no round was skipped");
            let mut forked = GridFrlSystem::fork(&snap, 5).unwrap();
            let shifted = InjectionPlan { episode: 0, ..plan };
            forked.train(20, Some(&shifted), &mut BatchInferCtx::new()).unwrap();

            for i in 0..3 {
                let (w, f) = (whole.agent(i).network(), forked.agent(i).network());
                assert_eq!(w.snapshot(), f.snapshot(), "{mitigation:?}");
            }
            assert_eq!(whole.last_fault_records(), forked.last_fault_records());
            assert!(!forked.last_fault_records().is_empty());
            assert_eq!(whole.mitigation_stats(), forked.mitigation_stats());
            if mitigation.is_some() {
                let before = prefix.mitigation_stats().total();
                assert!(before > 0, "the detector never fired before the fork");
                assert!(forked.mitigation_stats().total() > before, "nor after it");
            }
            let ctx = &mut BatchInferCtx::new();
            assert_eq!(whole.success_rate(ctx), forked.success_rate(ctx));
        }
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
        s.train(120, None, &mut BatchInferCtx::new()).unwrap();
        // Perturb one agent so the eval spans a mixed group structure
        // (two identical policies + one distinct).
        let mut snap = s.agent(0).network().snapshot();
        let copy = snap.clone();
        s.agent_mut(1).network_mut().restore(&copy).unwrap();
        snap[0] += 0.25;
        s.agent_mut(2).network_mut().restore(&snap).unwrap();
        let sequential = eval_outcomes_sequential(&mut s);
        let batched = s.eval_outcomes(&mut BatchInferCtx::new());
        assert_eq!(batched, sequential);
        assert_eq!(
            s.success_rate(&mut BatchInferCtx::new()).to_bits(),
            crate::metrics::success_rate_of(&sequential).to_bits()
        );
    }

    #[test]
    fn grouped_eval_matches_sequential_outcomes_on_faulted_weights() {
        // Grouping must compare bits. Bit flips on the f32 surface make
        // NaN weights at 5%, but ±inf (from exactly ±1.0) and subnormals
        // (from 2 <= |w| < 4) practically never, so those are planted:
        // agents 0 and 1 become bit-identical twins holding a NaN and an
        // infinity, and agents 2 and 3 differ only in the sign of one
        // zero weight, next to a subnormal.
        let mut s = GridFrlSystem::new(small_cfg(4)).unwrap();
        let ctx = &mut BatchInferCtx::new();
        s.train(120, None, ctx).unwrap();
        let mut injected_nan = false;
        for repr in [ReprKind::F32, ReprKind::Int8] {
            for ber in [0.0, 0.001, 0.01, 0.05] {
                for seed in 0..6u64 {
                    let model = FaultModel::TransientMulti;
                    s.with_faulted_policies(model, Ber::new(ber).unwrap(), repr, seed, |s| {
                        let weights = (0..4).flat_map(|i| s.agent(i).network().snapshot());
                        injected_nan |= weights.into_iter().any(f32::is_nan);
                        let case = format!("{repr:?} BER {ber} seed {seed}");
                        assert_eq!(s.eval_outcomes(ctx), eval_outcomes_sequential(s), "{case}");

                        let k = seed as usize;
                        let mut twin = s.agent(0).network().snapshot();
                        twin[k] = f32::NAN;
                        twin[100 + k] = [f32::INFINITY, f32::NEG_INFINITY][k % 2];
                        s.agent_mut(0).network_mut().restore(&twin).unwrap();
                        s.agent_mut(1).network_mut().restore(&twin).unwrap();
                        let mut signed = s.agent(2).network().snapshot();
                        signed[200 + k] = f32::from_bits(1 + k as u32);
                        signed[7] = 0.0;
                        s.agent_mut(2).network_mut().restore(&signed).unwrap();
                        signed[7] = -0.0;
                        s.agent_mut(3).network_mut().restore(&signed).unwrap();
                        assert!(signed[200 + k].is_subnormal());
                        assert_eq!(s.eval_outcomes(ctx), eval_outcomes_sequential(s), "{case}");
                    });
                }
            }
        }
        assert!(injected_nan, "no injected NaN weight: the f32 surface went untested");
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
        bat.train(60, None, &mut BatchInferCtx::new()).unwrap();
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
        let ctx = &mut BatchInferCtx::new();
        s.train(250, None, ctx).unwrap();
        if s.success_rate(ctx) >= 0.99 {
            assert_eq!(s.episodes_to_converge(0.99, 50, 200, ctx).unwrap(), Some(0));
        }
    }
}
