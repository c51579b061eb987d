use frlfi_fault::{Ber, DataRepr, FaultModel, FaultSide};
use frlfi_nn::Network;
use frlfi_quant::{QFormat, SymInt8Quantizer};
use serde::{Deserialize, Serialize};

/// Which machine representation the fault surface uses, materialized
/// into a [`DataRepr`] at injection time (the int8 quantizer's scale is
/// fit on the weights as they are when the fault strikes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReprKind {
    /// Raw IEEE-754 f32.
    F32,
    /// Symmetric sign-magnitude int8 fit on the current weight
    /// magnitude (the GridWorld policy's deployed format).
    Int8,
    /// 16-bit fixed point (the DroneNav data-type study).
    Fixed(QFormat),
}

impl ReprKind {
    /// Materializes the representation for a network's current weights.
    pub fn materialize(self, net: &Network) -> DataRepr {
        self.materialize_for(net.params())
    }

    /// Materializes the representation for a raw parameter buffer.
    pub(crate) fn materialize_for(self, params: &[f32]) -> DataRepr {
        match self {
            ReprKind::F32 => DataRepr::F32,
            ReprKind::Int8 => {
                let q = SymInt8Quantizer::fit(params)
                    .unwrap_or_else(|_| SymInt8Quantizer::from_max_abs(1.0).expect("static range"));
                DataRepr::SymInt8(q)
            }
            ReprKind::Fixed(q) => DataRepr::Fixed(q),
        }
    }
}

/// A dynamic (training-time) injection plan: at episode `episode`,
/// strike the chosen side of the system with bit faults at rate `ber`.
///
/// * `FaultSide::AgentSide` corrupts one agent's policy memory (the
///   agent is picked deterministically from the campaign seed);
/// * `FaultSide::ServerSide` corrupts the aggregated parameter sets in
///   server memory during the next communication round, so every agent
///   receives corrupted data — the paper's explanation for why server
///   faults dominate (§IV-A-2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionPlan {
    /// Episode at which the fault strikes.
    pub episode: usize,
    /// Agent-side or server-side.
    pub side: FaultSide,
    /// Fault model (transient / stuck-at).
    pub model: FaultModel,
    /// Bit-error rate over the exposed bits of the fault surface.
    pub ber: Ber,
    /// Machine representation of the fault surface.
    pub repr: ReprKind,
}

impl InjectionPlan {
    /// A transient multi-bit agent-side plan on the int8 surface — the
    /// GridWorld policy's 8-bit quantized memory (§IV-A-1). Note that
    /// int8 corruption is magnitude-bounded by the encoding, which is
    /// exactly why the paper's systems can absorb early faults; raw f32
    /// exponent flips would produce unhealable NaN/Inf weights.
    pub fn agent(episode: usize, ber: Ber) -> Self {
        InjectionPlan {
            episode,
            side: FaultSide::AgentSide,
            model: FaultModel::TransientMulti,
            ber,
            repr: ReprKind::Int8,
        }
    }

    /// A transient multi-bit server-side plan on the int8 surface (see
    /// [`InjectionPlan::agent`]).
    pub fn server(episode: usize, ber: Ber) -> Self {
        InjectionPlan {
            episode,
            side: FaultSide::ServerSide,
            model: FaultModel::TransientMulti,
            ber,
            repr: ReprKind::Int8,
        }
    }
}

/// Counters describing what the training-time mitigation scheme did
/// during a mitigated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MitigationStats {
    /// Times the detector attributed a fault to individual agents.
    pub agent_detections: usize,
    /// Times the detector attributed a fault to the server.
    pub server_detections: usize,
}

impl MitigationStats {
    /// Total detections of either kind.
    pub fn total(&self) -> usize {
        self.agent_detections + self.server_detections
    }
}

/// Parameters of the training-time mitigation scheme (§V-A): the
/// reward-drop detector plus server checkpointing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingMitigation {
    /// Reward-drop threshold in percent (the paper uses p = 25).
    pub p_percent: f32,
    /// Consecutive dropping episodes before detection (k = 50 GridWorld,
    /// k = 200 drone; scaled down at reduced experiment scales).
    pub k_consecutive: usize,
    /// Checkpoint update interval in communication rounds (paper: 5).
    pub checkpoint_interval: usize,
}

impl Default for TrainingMitigation {
    fn default() -> Self {
        TrainingMitigation { p_percent: 25.0, k_consecutive: 50, checkpoint_interval: 5 }
    }
}

impl TrainingMitigation {
    /// A fast-reacting variant for reduced-scale experiments.
    pub fn scaled(k: usize) -> Self {
        TrainingMitigation { k_consecutive: k, ..TrainingMitigation::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frlfi_nn::NetworkBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn int8_repr_fits_current_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(4).dense(8).relu().dense(2).build(&mut rng).unwrap();
        let repr = ReprKind::Int8.materialize(&net);
        let snap = net.snapshot();
        // Quantizing through the fitted repr must approximately preserve
        // every weight.
        if let frlfi_fault::DataRepr::SymInt8(q) = repr {
            for &w in &snap {
                assert!((q.quantize(w) - w).abs() <= q.scale());
            }
        } else {
            panic!("expected int8 repr");
        }
    }

    #[test]
    fn plan_builders() {
        let p = InjectionPlan::agent(100, Ber::new(0.01).unwrap());
        assert_eq!(p.side, FaultSide::AgentSide);
        assert_eq!(p.model, FaultModel::TransientMulti);
        assert_eq!(p.repr, ReprKind::Int8);
    }

    #[test]
    fn mitigation_presets() {
        assert_eq!(TrainingMitigation::scaled(8).k_consecutive, 8);
    }
}
