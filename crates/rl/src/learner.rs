use crate::RlError;
use frlfi_nn::{ActShape, BatchInferCtx, Network};
use frlfi_tensor::Tensor;
use rand::RngCore;

/// One environment transition, as seen by a learner.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Observation before the action.
    pub state: Tensor,
    /// Action taken.
    pub action: usize,
    /// Immediate reward.
    pub reward: f32,
    /// Observation after the action (`None` at episode end).
    pub next_state: Option<Tensor>,
}

/// A trainable policy, driven by the episode runner and the federated
/// layer.
///
/// Both learners expose their [`Network`] directly — the server reads
/// and writes it during aggregation, the checkpointing scheme snapshots
/// it, and the fault injector corrupts it.
///
/// Every forward/backward-running method is fallible: a malformed
/// scenario can feed a learner an observation whose shape does not match
/// its policy network, and the error must propagate to the campaign
/// layer (which quarantines the trial) instead of panicking inside a
/// worker.
pub trait Learner: Send {
    /// Selects an action during training (exploration allowed).
    ///
    /// # Errors
    ///
    /// Returns an error if the observation does not fit the policy
    /// network.
    fn act(&mut self, state: &Tensor, rng: &mut dyn RngCore) -> Result<usize, RlError>;

    /// Selects an action greedily (inference phase: pure exploitation).
    ///
    /// # Errors
    ///
    /// As for [`Learner::act`].
    fn act_greedy(&mut self, state: &Tensor) -> Result<usize, RlError>;

    /// [`Learner::act_greedy`] on the zero-allocation inference fast
    /// path, reusing `ctx`'s scratch buffers across calls. Must select
    /// the same action as `act_greedy` for the same state (the fast
    /// path is bit-identical), which the default delegation trivially
    /// guarantees for implementors that have no fast path.
    ///
    /// # Errors
    ///
    /// As for [`Learner::act`].
    fn act_greedy_ctx(
        &mut self,
        state: &Tensor,
        ctx: &mut BatchInferCtx,
    ) -> Result<usize, RlError> {
        let _ = ctx;
        self.act_greedy(state)
    }

    /// [`Learner::act`] on the batched-inference scratch arena: the
    /// exploration draw must consume `rng` exactly like `act` and pick
    /// the same action (the fast path is bit-identical per observation),
    /// which the default delegation trivially guarantees. A learner may
    /// keep the forward it ran here for the [`Learner::observe_ctx`] of
    /// the transition from `state`, as [`crate::QLearner`] does.
    ///
    /// # Errors
    ///
    /// As for [`Learner::act`].
    fn act_train_ctx(
        &mut self,
        state: &Tensor,
        rng: &mut dyn RngCore,
        ctx: &mut BatchInferCtx,
    ) -> Result<usize, RlError> {
        let _ = ctx;
        self.act(state, rng)
    }

    /// Greedy action selection over a whole **batch** of observations:
    /// `states` holds `batch` concatenated sample-major observation
    /// rows (each of `in_shape.volume()` elements) and the selected
    /// actions are written to `actions[..batch]`. Must pick, for every
    /// row, exactly the action [`Learner::act_greedy_ctx`] picks for
    /// that observation alone — the batched inference path is
    /// bit-identical per sample, which the default (per-sample
    /// delegation to [`Learner::act_greedy`]) trivially guarantees for
    /// implementors without a fast path.
    ///
    /// The action for a row must be a **pure function of the row's
    /// bits and the learner's parameters**: it may not depend on the
    /// other rows of the batch, change learner state or consume
    /// randomness. [`crate::run_greedy_episodes_batch`] relies on this
    /// twice: its lock-step batches mix the rows of many episodes, and
    /// its per-call memo reuses the action chosen for a row's bits
    /// instead of forwarding that row again. A learner whose forward
    /// draws randomness or mutates its weights must not be evaluated
    /// through it.
    ///
    /// # Errors
    ///
    /// Returns an error if an observation row does not fit the policy
    /// network, or `states`/`actions` are shorter than the batch
    /// demands.
    fn act_greedy_batch(
        &mut self,
        states: &[f32],
        in_shape: &ActShape,
        batch: usize,
        ctx: &mut BatchInferCtx,
        actions: &mut [usize],
    ) -> Result<(), RlError> {
        let _ = ctx;
        let vol = in_shape.volume();
        for b in 0..batch {
            let row = states[b * vol..(b + 1) * vol].to_vec();
            let obs = Tensor::from_vec(in_shape.dims().to_vec(), row)?;
            actions[b] = self.act_greedy(&obs)?;
        }
        Ok(())
    }

    /// Feeds one transition; value methods may update online here.
    ///
    /// # Errors
    ///
    /// Returns an error if the transition's observations do not fit the
    /// policy network.
    fn observe(&mut self, transition: Transition) -> Result<(), RlError>;

    /// [`Learner::observe`] on the batched-training scratch arena: the
    /// learner may route its forwards/backwards through `ctx`'s cached
    /// kernels, but the resulting weights must stay **bit-identical**
    /// to `observe` — which the default delegation trivially
    /// guarantees.
    ///
    /// # Errors
    ///
    /// As for [`Learner::observe`].
    fn observe_ctx(
        &mut self,
        transition: Transition,
        ctx: &mut BatchInferCtx,
    ) -> Result<(), RlError> {
        let _ = ctx;
        self.observe(transition)
    }

    /// Signals the episode end; Monte-Carlo methods update here.
    ///
    /// # Errors
    ///
    /// Returns an error if a buffered observation does not fit the
    /// policy network.
    fn end_episode(&mut self) -> Result<(), RlError>;

    /// [`Learner::end_episode`] on the batched-training scratch arena:
    /// Monte-Carlo methods may run their per-episode update as one
    /// batched forward/backward over the buffered steps, but the
    /// resulting weights must stay **bit-identical** to `end_episode` —
    /// which the default delegation trivially guarantees.
    ///
    /// # Errors
    ///
    /// As for [`Learner::end_episode`].
    fn end_episode_ctx(&mut self, ctx: &mut BatchInferCtx) -> Result<(), RlError> {
        let _ = ctx;
        self.end_episode()
    }

    /// Advances the learner's episode counter (exploration schedules).
    fn set_episode(&mut self, episode: usize);

    /// The policy network (read access).
    fn network(&self) -> &Network;

    /// The policy network (mutable: aggregation / injection surface).
    fn network_mut(&mut self) -> &mut Network;
}
