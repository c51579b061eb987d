use frlfi_nn::NnError;
use frlfi_tensor::TensorError;

/// Typed error for the reinforcement-learning hot path.
///
/// Training and action selection are fallible: a malformed scenario can
/// feed a learner an observation whose shape does not match its policy
/// network, and the federated/campaign layers need that to surface as a
/// quarantinable per-trial error instead of a worker-killing panic.
#[derive(Debug)]
pub enum RlError {
    /// The policy network rejected an observation, gradient or
    /// activation shape.
    Nn(NnError),
    /// Lock-step batched evaluation drained its batch without every
    /// episode reaching a terminal outcome (an environment contract
    /// violation).
    EpisodeNotTerminated,
    /// A transition names an action the policy network has no output
    /// for.
    ActionOutOfRange {
        /// The transition's action index.
        action: usize,
        /// Number of policy outputs (valid actions are `0..n_actions`).
        n_actions: usize,
    },
}

impl std::fmt::Display for RlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RlError::Nn(e) => write!(f, "policy network error: {e}"),
            RlError::EpisodeNotTerminated => {
                write!(f, "batched evaluation finished with a non-terminated episode")
            }
            RlError::ActionOutOfRange { action, n_actions } => {
                write!(
                    f,
                    "transition action {action} is out of range for {n_actions} policy outputs"
                )
            }
        }
    }
}

impl std::error::Error for RlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RlError::Nn(e) => Some(e),
            RlError::EpisodeNotTerminated | RlError::ActionOutOfRange { .. } => None,
        }
    }
}

impl RlError {
    /// Checks that `action` indexes one of `n_actions` policy outputs.
    pub(crate) fn check_action(action: usize, n_actions: usize) -> Result<(), RlError> {
        if action < n_actions {
            Ok(())
        } else {
            Err(RlError::ActionOutOfRange { action, n_actions })
        }
    }
}

impl From<NnError> for RlError {
    fn from(e: NnError) -> Self {
        RlError::Nn(e)
    }
}

impl From<TensorError> for RlError {
    fn from(e: TensorError) -> Self {
        RlError::Nn(NnError::Tensor(e))
    }
}
