//! The federated round protocol, written once for both systems.
//!
//! A [`Fleet`] is `n` learners, each in its own environment, optionally
//! synchronized through a smoothing-average [`Server`].
//! [`crate::GridFrlSystem`] and [`crate::DroneFrlSystem`] are aliases of
//! it; each adds only its constructor, its evaluation and the parts
//! that differ (DroneNav pre-training). Both snapshot a fault-free run
//! as a [`FleetPrefix`] and fork it ([`Fleet::fork`]) the same way.
//!
//! [`Fleet::train`] runs each episode in this order:
//!
//! 1. every agent, in index order, runs one training episode on its own
//!    environment and exploration stream;
//! 2. the injection plan fires if this is its episode
//!    ([`Fleet::inject_now`]): an agent-side plan draws its victim from
//!    the fault stream and flips its weights now; a server-side plan is
//!    queued for the next aggregating round (or strikes agent 0 when
//!    there is no server);
//! 3. if the fleet has a server and the schedule communicates at this
//!    episode, a round runs. The dropout mask is drawn first, even when
//!    the round is then skipped, so the dropout stream stays aligned
//!    with the round index. A round with fewer than two participants is
//!    skipped: it draws nothing from the fault stream, and a pending
//!    server fault survives it, because server memory is exposed only
//!    during an actual aggregation. An aggregating round draws one seed
//!    from the fault stream for its server-memory hook, whether or not
//!    a fault is pending. Every round, skipped or not, counts; only an
//!    aggregating round is offered to the checkpoint, so the checkpoint
//!    only ever holds a consensus an aggregation has just written;
//! 4. with mitigation (`cfg.mitigation`), the detector reads the
//!    episode's rewards and restores the flagged agents (or, on a
//!    server fault, every agent) from the checkpoint.
//!
//! The detector, the checkpoint and their counters belong to the fleet,
//! so training in several calls equals training in one, and a
//! [`FleetPrefix`] carries them into a fork.

use crate::error::FrlfiError;
use crate::injection::{InjectionPlan, MitigationStats, ReprKind, TrainingMitigation};
use frlfi_envs::Environment;
use frlfi_fault::{corrupt_slice_ber, inject_slice_ber, Ber, FaultModel, FaultRecord, FaultSide};
use frlfi_federated::{CommSchedule, RoundHook, Server};
use frlfi_mitigation::{Detection, RewardDropDetector, ServerCheckpoint};
use frlfi_nn::BatchInferCtx;
use frlfi_rl::{run_episode_batched, Learner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

/// A federated fleet of `L` learners in `E` environments, configured by
/// `C`: the training loop, fault injection and checkpoint mitigation
/// shared by [`crate::GridFrlSystem`] and [`crate::DroneFrlSystem`].
pub struct Fleet<L, E, C> {
    pub(crate) cfg: C,
    pub(crate) agents: Vec<L>,
    pub(crate) envs: Vec<E>,
    pub(crate) server: Option<Server>,
    /// When the fleet communicates, read from `cfg` at construction.
    pub(crate) schedule: CommSchedule,
    /// Per-round dropout probability, read from `cfg` at construction.
    pub(crate) dropout: Option<f32>,
    /// The fault stream.
    pub(crate) rng: StdRng,
    pub(crate) agent_rngs: Vec<StdRng>,
    pub(crate) dropout_rng: StdRng,
    pub(crate) episodes_done: usize,
    pub(crate) comm_rounds: usize,
    /// Draws the communication rounds took from the fault stream `rng`
    /// (one per aggregating round; a dropout-skipped round draws none).
    pub(crate) fault_draws: usize,
    /// Whether an injection plan has fired: its draws from `rng` are
    /// not among the counted `fault_draws`, so no fork could replay
    /// them.
    pub(crate) injected: bool,
    pub(crate) pending_server_fault: Option<InjectionPlan>,
    pub(crate) last_records: Vec<FaultRecord>,
    /// The training-time mitigation state, built from `cfg` at
    /// construction.
    pub(crate) mitigation: Option<Mitigation>,
    /// Whether the weights came from offline pre-training (DroneNav
    /// only; GridWorld agents train from their initialization).
    pub(crate) pretrained: bool,
}

/// The training-time mitigation scheme's state (§V-A): the reward-drop
/// detector, the server checkpoint it restores from, and what it did.
#[derive(Debug, Clone)]
pub(crate) struct Mitigation {
    detector: RewardDropDetector,
    checkpoint: ServerCheckpoint,
    stats: MitigationStats,
}

impl Mitigation {
    /// The state of a fresh `n_agents` fleet mitigated by `m`.
    ///
    /// # Errors
    ///
    /// Returns [`FrlfiError::BadConfig`] for a fleet without a server
    /// (one agent: no checkpoint to restore from), a threshold that is
    /// not finite and positive, or a zero window or interval.
    pub(crate) fn new(
        m: Option<TrainingMitigation>,
        n_agents: usize,
    ) -> Result<Option<Self>, FrlfiError> {
        let Some(m) = m else { return Ok(None) };
        if n_agents < 2 {
            return Err(FrlfiError::BadConfig {
                detail: "mitigation restores from the server's checkpoint: it needs a fleet of \
                         ≥ 2 agents"
                    .into(),
            });
        }
        if !(m.p_percent.is_finite() && m.p_percent > 0.0)
            || m.k_consecutive == 0
            || m.checkpoint_interval == 0
        {
            return Err(FrlfiError::BadConfig {
                detail: format!(
                    "{m:?}: p_percent must be finite and > 0, k_consecutive and \
                     checkpoint_interval ≥ 1"
                ),
            });
        }
        Ok(Some(Mitigation {
            detector: RewardDropDetector::new(m.p_percent, m.k_consecutive, n_agents),
            checkpoint: ServerCheckpoint::new(m.checkpoint_interval),
            stats: MitigationStats::default(),
        }))
    }

    /// Feeds one episode's rewards to the detector and restores the
    /// agents it flags (every agent on a server fault) from the
    /// checkpoint.
    fn observe<L: Learner>(&mut self, rewards: &[f32], agents: &mut [L]) -> Result<(), FrlfiError> {
        let flagged = match self.detector.observe(rewards) {
            Detection::None => return Ok(()),
            Detection::AgentFault(ids) => {
                self.stats.agent_detections += 1;
                ids
            }
            Detection::ServerFault => {
                self.stats.server_detections += 1;
                (0..agents.len()).collect()
            }
        };
        if let Some(weights) = self.checkpoint.stored() {
            for i in flagged {
                agents[i].network_mut().restore(weights)?;
            }
        }
        Ok(())
    }
}

/// Checks a per-round dropout probability: it must lie in `[0, 1)`.
pub(crate) fn check_dropout(dropout: Option<f32>) -> Result<(), FrlfiError> {
    match dropout {
        Some(p) if !(0.0..1.0).contains(&p) => Err(FrlfiError::BadConfig {
            detail: format!("dropout probability {p} must lie in [0, 1)"),
        }),
        _ => Ok(()),
    }
}

impl<L: Learner, E: Environment, C> Fleet<L, E, C> {
    /// The system configuration.
    pub fn config(&self) -> &C {
        &self.cfg
    }

    /// Number of agents.
    pub fn n_agents(&self) -> usize {
        self.agents.len()
    }

    /// Total training episodes completed so far.
    pub(crate) fn episodes_done(&self) -> usize {
        self.episodes_done
    }

    /// Immutable access to one agent's learner.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn agent(&self, i: usize) -> &L {
        &self.agents[i]
    }

    /// Mutable access to one agent's learner (fault surface).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn agent_mut(&mut self, i: usize) -> &mut L {
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

    /// Detection/recovery counters of the mitigation scheme, counted
    /// since construction (a fork starts from its prefix's counts);
    /// all zero without mitigation.
    pub fn mitigation_stats(&self) -> MitigationStats {
        self.mitigation.as_ref().map(|m| m.stats).unwrap_or_default()
    }

    /// Trains for `episodes` episodes in the round order of the module
    /// docs, optionally applying a dynamic [`InjectionPlan`] (episode
    /// index relative to this call), under the configuration's
    /// training-time mitigation scheme, if any. Every agent's learning
    /// updates run through `ctx`'s cached-activation arena
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
        ctx: &mut BatchInferCtx,
    ) -> Result<(), FrlfiError> {
        let n = self.agents.len();
        for ep in 0..episodes {
            let global_ep = self.episodes_done + ep;
            let mut rewards = Vec::with_capacity(n);
            for i in 0..n {
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

            if self.server.is_some()
                && self.schedule.communicates_at(global_ep)
                && self.communicate()?
            {
                if let (Some(m), Some(server)) = (self.mitigation.as_mut(), self.server.as_ref()) {
                    m.checkpoint.on_round(self.comm_rounds, server.consensus());
                }
            }

            if let Some(m) = self.mitigation.as_mut() {
                m.observe(&rewards, &mut self.agents)?;
            }
        }
        self.episodes_done += episodes;
        Ok(())
    }

    /// Applies an injection plan *now* (between episodes).
    pub fn inject_now(&mut self, plan: &InjectionPlan) {
        self.injected = true;
        let victim = match plan.side {
            FaultSide::AgentSide => self.rng.gen_range(0..self.agents.len()),
            FaultSide::ServerSide if self.server.is_some() => {
                // Applied inside the next aggregating round, where the
                // aggregated sets sit in server memory.
                self.pending_server_fault = Some(*plan);
                return;
            }
            // Single-agent system: the only memory is the agent's.
            FaultSide::ServerSide => 0,
        };
        let plane = self.agents[victim].network_mut().params_mut();
        let repr = plan.repr.materialize_for(plane);
        self.last_records = inject_slice_ber(plane, repr, plan.model, plan.ber, &mut self.rng);
    }

    /// Runs one communication round and reports whether it aggregated
    /// (a dropout-skipped round does not).
    pub(crate) fn communicate(&mut self) -> Result<bool, FrlfiError> {
        // Wall-clock accounting only (thread-local, aggregated —
        // federated aggregation runs once per communication round).
        let _aggregate = frlfi_obs::timed("aggregate");
        // Draw the participant mask before borrowing the server, and
        // draw it even when a round ends up skipped, so the dropout
        // stream stays aligned with the round index.
        let n = self.agents.len();
        let participants: Vec<bool> = match self.dropout {
            Some(p) => (0..n).map(|_| !self.dropout_rng.gen_bool(f64::from(p))).collect(),
            None => vec![true; n],
        };
        if participants.iter().filter(|&&p| p).count() < 2 {
            // Too few participants: the round is skipped entirely.
            // Leave any pending server fault queued — server memory is
            // only exposed during an actual aggregation.
            self.comm_rounds += 1;
            return Ok(false);
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
        let outputs = server.aggregate_subset(&mut uploads, &participants, &mut hook)?;
        for (agent, out) in self.agents.iter_mut().zip(outputs.iter()) {
            if let Some(out) = out {
                agent.network_mut().restore(out)?;
            }
        }
        if !hook.records.is_empty() {
            self.last_records = hook.records;
        }
        self.comm_rounds += 1;
        Ok(true)
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
        let mut rng = StdRng::seed_from_u64(seed);
        self.with_corrupted(
            0..self.agents.len(),
            |plane| {
                let repr = repr.materialize_for(plane);
                // Deploy-time quantization: faults strike the encoded form.
                repr.quantize_slice(plane);
                corrupt_slice_ber(plane, repr, model, ber, &mut rng);
            },
            f,
        )
    }

    /// Runs `f` with the policies of `agents` corrupted, then restores
    /// their clean weights, undoing whatever `f` wrote into them too.
    /// `corrupt` sees each agent's weight plane, in place, in index
    /// order, so one fault stream threads through the agents in a fixed
    /// order; one clean copy per agent is all this allocates.
    pub(crate) fn with_corrupted<T>(
        &mut self,
        agents: Range<usize>,
        mut corrupt: impl FnMut(&mut [f32]),
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let clean: Vec<Vec<f32>> = {
            // Wall-clock accounting only.
            let _inject = frlfi_obs::timed("inject");
            self.agents[agents.clone()]
                .iter_mut()
                .map(|agent| {
                    let clean = agent.network().snapshot();
                    corrupt(agent.network_mut().params_mut());
                    clean
                })
                .collect()
        };
        let out = f(self);
        for (agent, clean) in self.agents[agents].iter_mut().zip(&clean) {
            agent.network_mut().restore(clean).expect("snapshot length invariant");
        }
        out
    }
}

/// A learner whose training state a [`FleetPrefix`] can carry.
pub trait ForkLearner: Learner {
    /// What training reads besides the weights and the episode index,
    /// as it stands at an episode boundary.
    type State: Clone;

    /// The state to snapshot.
    fn fork_state(&self) -> Self::State;

    /// Restores a snapshot's state.
    fn resume_state(&mut self, state: &Self::State);
}

/// A fleet's configuration: everything its system is built from.
pub trait FleetConfig: Clone {
    /// The agents' learner.
    type Learner: ForkLearner;
    /// The agents' environment.
    type Env: Environment + Clone;

    /// Builds the untrained fleet (the system's `new`).
    ///
    /// # Errors
    ///
    /// Returns [`FrlfiError::BadConfig`] for an invalid configuration.
    fn build(self) -> Result<Fleet<Self::Learner, Self::Env, Self>, FrlfiError>;
}

/// The fleet a configuration `C` builds.
pub(crate) type System<C> = Fleet<<C as FleetConfig>::Learner, <C as FleetConfig>::Env, C>;

/// A compact snapshot of a fault-free [`Fleet`] at an episode boundary:
/// every agent's weight plane and learner state plus the environment,
/// server round, random-stream and counter state — everything a later
/// [`Fleet::fork`] needs to continue training bit for bit.
///
/// A network's weights are one flat plane
/// ([`frlfi_nn::Network::params`]), so taking a snapshot appends each
/// agent's plane to the block as one slice copy, and a fork copies each
/// slice back with [`frlfi_nn::Network::restore`].
///
/// With mitigation it also holds the detector, the checkpoint and
/// their counters.
///
/// Three things are not stored:
/// - the fault stream: before any injection it only feeds one seed
///   draw per aggregating round, which never touches the weights, so a
///   fork reseeds it and replays `fault_draws` draws;
/// - the gradient planes: every update zeroes them, so they are zero
///   at every episode boundary;
/// - the server's consensus copy: an aggregation overwrites it without
///   reading it, and the checkpoint reads it only right after an
///   aggregation, so nothing reads the copy a fork leaves stale.
pub struct FleetPrefix<C: FleetConfig> {
    cfg: C,
    /// Concatenated weight planes. This snapshot's start at `offset`,
    /// every agent's in agent order. The snapshots a prefix chain
    /// takes in one run share one block.
    planes: Arc<PlaneBlock>,
    offset: usize,
    learner_states: Vec<<C::Learner as ForkLearner>::State>,
    envs: Vec<C::Env>,
    agent_rngs: Vec<StdRng>,
    dropout_rng: StdRng,
    server_round: usize,
    stop: Stop,
    mitigation: Option<Mitigation>,
    pretrained: bool,
}

/// Where a [`FleetPrefix`] stands in training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stop {
    /// Training episodes completed.
    pub episodes_done: usize,
    /// Communication rounds completed, skipped dropout rounds included.
    pub comm_rounds: usize,
    /// Fault-stream draws taken by those rounds.
    pub fault_draws: usize,
}

/// Counters only: the planes block is shared by a whole chain.
impl<C: FleetConfig> std::fmt::Debug for FleetPrefix<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetPrefix")
            .field("n_agents", &self.envs.len())
            .field("stop", &self.stop)
            .finish_non_exhaustive()
    }
}

impl<C: FleetConfig> FleetPrefix<C> {
    /// Points this snapshot at the finished block its planes were
    /// appended to (see [`Fleet::prefix_into`]).
    pub(crate) fn set_planes(&mut self, block: Arc<PlaneBlock>) {
        self.planes = block;
    }

    /// Where the snapshot was taken.
    pub(crate) fn stop(&self) -> Stop {
        self.stop
    }
}

/// The weight planes of one or more [`FleetPrefix`] snapshots, in one
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

impl<C: FleetConfig> Fleet<C::Learner, C::Env, C> {
    /// Snapshots this fleet for [`Fleet::fork`].
    ///
    /// # Errors
    ///
    /// Returns [`FrlfiError::BadConfig`] once an injection plan has
    /// fired: it drew from the fault stream outside the counted
    /// communication draws, so no fork could replay it.
    pub fn prefix(&self) -> Result<FleetPrefix<C>, FrlfiError> {
        let mut block = PlaneBlock::with_capacity(self.planes_len());
        let mut prefix = self.prefix_into(&mut block)?;
        prefix.set_planes(Arc::new(block));
        Ok(prefix)
    }

    /// Length of a snapshot's planes: every agent's weights.
    pub(crate) fn planes_len(&self) -> usize {
        self.agents.len() * self.agents[0].network().param_count()
    }

    /// [`Fleet::prefix`] with the weight planes appended to `block`;
    /// the snapshot is usable once [`FleetPrefix::set_planes`] hands it
    /// the finished block. Chains of snapshots share one block: one
    /// allocation, freed as one.
    pub(crate) fn prefix_into(&self, block: &mut PlaneBlock) -> Result<FleetPrefix<C>, FrlfiError> {
        if self.injected {
            return Err(FrlfiError::BadConfig {
                detail: "a fault-injected system is not a fault-free prefix".into(),
            });
        }
        let offset = block.len();
        for agent in &self.agents {
            block.0.extend_from_slice(agent.network().params());
        }
        Ok(FleetPrefix {
            cfg: self.cfg.clone(),
            planes: Arc::default(),
            offset,
            learner_states: self.agents.iter().map(ForkLearner::fork_state).collect(),
            envs: self.envs.clone(),
            agent_rngs: self.agent_rngs.clone(),
            dropout_rng: self.dropout_rng.clone(),
            server_round: self.server.as_ref().map_or(0, Server::round),
            stop: Stop {
                episodes_done: self.episodes_done,
                comm_rounds: self.comm_rounds,
                fault_draws: self.fault_draws,
            },
            mitigation: self.mitigation.clone(),
            pretrained: self.pretrained,
        })
    }

    /// Rebuilds the fleet `prefix` was taken from, with its fault
    /// stream reseeded to `fault_seed` and advanced past the prefix's
    /// draws — bit-identical to a fleet that was reseeded with
    /// `fault_seed` before training and then trained the same prefix.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn fork(prefix: &FleetPrefix<C>, fault_seed: u64) -> Result<Self, FrlfiError> {
        let mut sys = prefix.cfg.clone().build()?;
        let n = sys.agents[0].network().param_count();
        let planes = &prefix.planes[prefix.offset..prefix.offset + sys.planes_len()];
        let agents = sys.agents.iter_mut().zip(planes.chunks_exact(n));
        for ((agent, plane), state) in agents.zip(&prefix.learner_states) {
            agent.network_mut().restore(plane)?;
            agent.resume_state(state);
            // `train` sets the episode before each one it runs.
            agent.set_episode(prefix.stop.episodes_done.saturating_sub(1));
        }
        if let Some(server) = sys.server.as_mut() {
            server.resume(prefix.server_round);
        }
        sys.envs.clone_from(&prefix.envs);
        sys.agent_rngs.clone_from(&prefix.agent_rngs);
        sys.dropout_rng = prefix.dropout_rng.clone();
        sys.episodes_done = prefix.stop.episodes_done;
        sys.comm_rounds = prefix.stop.comm_rounds;
        sys.fault_draws = prefix.stop.fault_draws;
        sys.mitigation.clone_from(&prefix.mitigation);
        sys.pretrained = prefix.pretrained;
        sys.reseed_faults(fault_seed);
        for _ in 0..prefix.stop.fault_draws {
            let _: u64 = sys.rng.gen();
        }
        Ok(sys)
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
    use crate::{DroneFrlSystem, DroneSystemConfig, GridFrlSystem, GridSystemConfig};
    use frlfi_mitigation::RangeDetector;

    fn bits(w: &[f32]) -> Vec<u32> {
        w.iter().map(|w| w.to_bits()).collect()
    }

    #[test]
    fn bad_or_serverless_mitigation_is_a_config_error() {
        // One agent has no server and so no checkpoint: the mitigation
        // would silently do nothing. Bad parameters would panic the
        // detector or the checkpoint. Both systems refuse either.
        let ok = TrainingMitigation { p_percent: 10.0, k_consecutive: 2, checkpoint_interval: 1 };
        let bad = [
            (1, ok),
            (3, TrainingMitigation { k_consecutive: 0, ..ok }),
            (3, TrainingMitigation { checkpoint_interval: 0, ..ok }),
            (3, TrainingMitigation { p_percent: 0.0, ..ok }),
            (3, TrainingMitigation { p_percent: f32::NAN, ..ok }),
            (3, TrainingMitigation { p_percent: f32::INFINITY, ..ok }),
        ];
        for (n, m) in bad {
            let grid = GridFrlSystem::new(GridSystemConfig {
                n_agents: n,
                mitigation: Some(m),
                ..Default::default()
            });
            assert!(matches!(grid, Err(FrlfiError::BadConfig { .. })), "grid {n} {m:?}");
            let drone = DroneFrlSystem::new(DroneSystemConfig {
                n_drones: n,
                mitigation: Some(m),
                ..Default::default()
            });
            assert!(matches!(drone, Err(FrlfiError::BadConfig { .. })), "drone {n} {m:?}");
        }
        let grid = GridSystemConfig { n_agents: 2, mitigation: Some(ok), ..Default::default() };
        assert!(GridFrlSystem::new(grid).is_ok());
        let drone = DroneSystemConfig { n_drones: 2, mitigation: Some(ok), ..Default::default() };
        assert!(DroneFrlSystem::new(drone).is_ok());
    }

    /// Trains `sys` one episode at a time (the same run as one call:
    /// the fleet owns its mitigation state), with a server fault
    /// striking at `fault_at`, and checks every checkpoint restore:
    /// the vector it writes is the server consensus right after some
    /// aggregating round of this run. Returns the detections checked.
    fn check_restores<L: Learner, E: Environment, C>(
        sys: &mut Fleet<L, E, C>,
        episodes: usize,
        fault_at: usize,
    ) -> usize {
        let ctx = &mut BatchInferCtx::new();
        let plan = InjectionPlan::server(0, Ber::new(0.1).unwrap());
        let mut aggregated: Vec<Vec<u32>> = Vec::new();
        let mut checked = 0;
        for ep in 0..episodes {
            let (draws, detections) = (sys.fault_draws, sys.mitigation_stats().total());
            sys.train(1, (ep == fault_at).then_some(&plan), ctx).unwrap();
            if sys.fault_draws > draws {
                aggregated.push(bits(sys.server.as_ref().unwrap().consensus()));
            }
            if sys.mitigation_stats().total() == detections {
                continue;
            }
            checked += 1;
            let m = sys.mitigation.as_ref().unwrap();
            let Some(written) = m.checkpoint.stored().map(bits) else { continue };
            assert!(
                aggregated.contains(&written),
                "episode {ep}: a restore wrote a vector no aggregating round left on the server"
            );
            assert!(sys.agents.iter().any(|a| bits(&a.network().snapshot()) == written));
        }
        checked
    }

    #[test]
    fn restores_write_only_aggregated_consensus() {
        let mut checked = 0;
        for interval in [1, 2] {
            let mitigation = Some(TrainingMitigation {
                p_percent: 10.0,
                k_consecutive: 2,
                checkpoint_interval: interval,
            });
            for (seed, dropout) in [(3u64, 0.4f32), (7, 0.5), (8, 0.4), (11, 0.5)] {
                let mut grid = GridFrlSystem::new(GridSystemConfig {
                    n_agents: 3,
                    seed,
                    epsilon_decay_episodes: 30,
                    dropout: Some(dropout),
                    mitigation,
                    ..Default::default()
                })
                .unwrap();
                checked += check_restores(&mut grid, 60, 30);

                let mut drone = DroneFrlSystem::new(DroneSystemConfig {
                    n_drones: 3,
                    seed,
                    pretrain_episodes: 2,
                    train_max_steps: 20,
                    dropout: Some(dropout),
                    mitigation,
                    ..Default::default()
                })
                .unwrap();
                drone.pretrain().unwrap();
                checked += check_restores(&mut drone, 12, 6);
            }
        }
        assert!(checked > 0, "no detection fired: no restore was checked");
    }

    #[test]
    fn faulted_policies_hand_back_clean_weights_after_a_repair() {
        // The Fig. 8 range detector rewrites the faulted weights inside
        // the scope; the scope must still restore every agent's clean
        // plane bit for bit, repair included.
        let mut grid = GridFrlSystem::new(GridSystemConfig {
            n_agents: 3,
            seed: 5,
            epsilon_decay_episodes: 30,
            ..Default::default()
        })
        .unwrap();
        grid.train(40, None, &mut BatchInferCtx::new()).unwrap();
        let clean: Vec<Vec<u32>> =
            grid.agents.iter().map(|a| bits(&a.network().snapshot())).collect();
        let detectors: Vec<RangeDetector> =
            grid.agents.iter().map(|a| RangeDetector::fit(a.network())).collect();
        let ber = Ber::new(0.02).unwrap();
        let repaired =
            grid.with_faulted_policies(FaultModel::TransientMulti, ber, ReprKind::F32, 9, |s| {
                for (agent, clean) in s.agents.iter().zip(&clean) {
                    assert_ne!(
                        &bits(&agent.network().snapshot()),
                        clean,
                        "the fault changed nothing"
                    );
                }
                let agents = s.agents.iter_mut();
                agents.zip(&detectors).map(|(a, d)| d.repair(a.network_mut())).sum::<usize>()
            });
        assert!(repaired > 0, "the detector repaired nothing");
        for (agent, clean) in grid.agents.iter().zip(&clean) {
            assert_eq!(&bits(&agent.network().snapshot()), clean);
        }
    }
}
