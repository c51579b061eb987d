//! # frlfi-rl
//!
//! Reinforcement-learning substrate for the FRL-FI reproduction.
//!
//! The paper trains its GridWorld policy with an NN-based value method
//! and its DroneNav policy with REINFORCE (§IV-B-1), so this crate
//! provides both, behind the object-safe [`Learner`] trait the federated
//! layer drives:
//!
//! * [`QLearner`] — ε-greedy temporal-difference learning over a
//!   [`frlfi_nn::Network`] that outputs one Q-value per action;
//! * [`Reinforce`] — Monte-Carlo policy gradient with an EMA baseline
//!   over a network that outputs action logits;
//! * [`EpsilonSchedule`] — the decaying exploration/exploitation ratio
//!   that separates the paper's *training* phase (decaying ε) from its
//!   *inference* phase (pure exploitation, §III-B);
//! * [`run_episode_batched`] / [`run_greedy_episode`] — seeded episode
//!   drivers; [`run_episode`] is the per-observation test oracle the
//!   batched trainer must match bit for bit.
//!
//! ```
//! use frlfi_envs::{Environment, GridWorld};
//! use frlfi_nn::BatchInferCtx;
//! use frlfi_rl::{run_episode_batched, EpsilonSchedule, Learner, QLearner};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut env = GridWorld::standard_layouts(3)[0].clone();
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut learner = QLearner::gridworld_default(&mut rng)?;
//! let mut ctx = BatchInferCtx::new();
//! let summary = run_episode_batched(&mut env, &mut learner, &mut rng, &mut ctx)?;
//! assert!(summary.steps > 0);
//! # Ok(())
//! # }
//! ```

mod episode;
mod error;
mod learner;
mod policy;
mod qlearn;
mod reinforce;
mod schedule;

pub use episode::{
    run_episode, run_episode_batched, run_greedy_episode, run_greedy_episode_ctx,
    run_greedy_episodes_batch, EpisodeSummary, GREEDY_MEMO_KEY_BYTES,
};
pub use error::RlError;
pub use learner::{Learner, Transition};
pub(crate) use policy::{
    eps_greedy, greedy_argmax, sample_categorical_slice, softmax_argmax, softmax_into,
};
pub use policy::{eps_greedy_slice, sample_categorical, softmax};
pub use qlearn::QLearner;
pub use reinforce::Reinforce;
pub use schedule::EpsilonSchedule;
