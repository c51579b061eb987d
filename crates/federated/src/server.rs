use crate::{FederatedError, RoundHook};

/// The FRL parameter server (§III-A).
///
/// Holds the consensus parameter vector and performs the smoothing
/// average `θᵢᵏ⁺ = αₖ·θᵢᵏ⁻ + βₖ·Σ_{j≠i} θⱼᵏ⁻`. The self-weight `αₖ`
/// anneals from its initial value toward `1/n`, the fixed point that
/// guarantees consensus (paper Eq. 4, citing Zeng et al.).
///
/// The server's stored consensus is the state the checkpointing scheme
/// (§V-A) snapshots and restores.
///
/// A round has one implementation, [`Server::aggregate_subset`], over a
/// participant mask; [`Server::aggregate_with_hook`] and
/// [`Server::aggregate`] call it with every agent participating.
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    n_agents: usize,
    consensus: Vec<f32>,
    round: usize,
    alpha0: f32,
    anneal_rounds: usize,
}

impl Server {
    /// Creates a server for `n_agents` agents exchanging `param_len`
    /// parameters, with the default α₀ = 0.5 annealed over 50 rounds.
    ///
    /// # Errors
    ///
    /// Returns [`FederatedError::TooFewAgents`] if `n_agents < 2` or
    /// [`FederatedError::EmptyParams`] if `param_len == 0`.
    pub fn new(n_agents: usize, param_len: usize) -> Result<Self, FederatedError> {
        Server::with_annealing(n_agents, param_len, 0.5, 50)
    }

    /// Creates a server with an explicit `α₀` and annealing horizon.
    ///
    /// # Errors
    ///
    /// As for [`Server::new`]; additionally requires `1/n ≤ α₀ ≤ 1`.
    pub fn with_annealing(
        n_agents: usize,
        param_len: usize,
        alpha0: f32,
        anneal_rounds: usize,
    ) -> Result<Self, FederatedError> {
        if n_agents < 2 {
            return Err(FederatedError::TooFewAgents { n_agents });
        }
        if param_len == 0 {
            return Err(FederatedError::EmptyParams);
        }
        let floor = 1.0 / n_agents as f32;
        assert!((floor..=1.0).contains(&alpha0), "alpha0 {alpha0} must lie in [1/n, 1]");
        Ok(Server { n_agents, consensus: vec![0.0; param_len], round: 0, alpha0, anneal_rounds })
    }

    /// Completed aggregation rounds.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current self-weight `αₖ`, annealing linearly from α₀ to `1/n`.
    pub fn alpha(&self) -> f32 {
        let floor = 1.0 / self.n_agents as f32;
        if self.anneal_rounds == 0 || self.round >= self.anneal_rounds {
            return floor;
        }
        let frac = self.round as f32 / self.anneal_rounds as f32;
        self.alpha0 + (floor - self.alpha0) * frac
    }

    /// The server's consensus copy (mean of the last uploads).
    pub fn consensus(&self) -> &[f32] {
        &self.consensus
    }

    /// Resumes after `round` completed rounds, which fix the annealed
    /// self-weight. The consensus copy is left as it is: the next
    /// aggregation overwrites it without reading it, so until then it
    /// is not the last round's mean.
    pub fn resume(&mut self, round: usize) {
        self.round = round;
    }

    /// Performs one aggregation round without fault hooks.
    ///
    /// # Errors
    ///
    /// Returns an error if the number or length of uploads is wrong.
    pub fn aggregate(&mut self, uploads: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, FederatedError> {
        let mut uploads = uploads.to_vec();
        self.aggregate_with_hook(&mut uploads, &mut crate::NoopHook)
    }

    /// Performs one aggregation round in which every agent participates,
    /// applying a [`RoundHook`] at the uplink, server-memory, and
    /// downlink fault surfaces: [`Server::aggregate_subset`] with an
    /// all-true mask.
    ///
    /// Uploads are taken by mutable reference because the uplink hook
    /// corrupts them *in transit* — the agents' own copies are not
    /// affected (matching a communication fault rather than an
    /// agent-memory fault).
    ///
    /// # Errors
    ///
    /// Returns an error if the number or length of uploads is wrong.
    pub fn aggregate_with_hook(
        &mut self,
        uploads: &mut [Vec<f32>],
        hook: &mut dyn RoundHook,
    ) -> Result<Vec<Vec<f32>>, FederatedError> {
        let everyone = vec![true; self.n_agents];
        let outputs = self.aggregate_subset(uploads, &everyone, hook)?;
        Ok(outputs.into_iter().map(|o| o.expect("every agent participates")).collect())
    }

    /// Performs one aggregation round over the agents `participants`
    /// marks — the one round implementation. A mask with gaps is the
    /// agent-dropout scenario, where unreliable links keep some agents
    /// out of a communication round.
    ///
    /// Dropped agents neither contribute to nor receive the smoothing
    /// average (their slot in the result is `None`), and the hooks see
    /// only participants; the self-weight is floored at `1/m` for the
    /// `m` participants so the update stays a valid convex combination.
    /// If fewer than two agents participate the round is skipped
    /// entirely (no aggregation, round counter unchanged) and all slots
    /// are `None`.
    ///
    /// # Errors
    ///
    /// Returns an error if the number or length of uploads is wrong, or
    /// if the mask length differs from the agent count.
    pub fn aggregate_subset(
        &mut self,
        uploads: &mut [Vec<f32>],
        participants: &[bool],
        hook: &mut dyn RoundHook,
    ) -> Result<Vec<Option<Vec<f32>>>, FederatedError> {
        for actual in [uploads.len(), participants.len()] {
            if actual != self.n_agents {
                return Err(FederatedError::WrongUploadCount { expected: self.n_agents, actual });
            }
        }
        let len = self.consensus.len();
        for (i, u) in uploads.iter().enumerate() {
            if u.len() != len {
                return Err(FederatedError::ParamLengthMismatch {
                    agent: i,
                    expected: len,
                    actual: u.len(),
                });
            }
        }
        let m = participants.iter().filter(|&&p| p).count();
        if m < 2 {
            return Ok(vec![None; self.n_agents]);
        }

        for (i, u) in uploads.iter_mut().enumerate() {
            if participants[i] {
                hook.on_uplink(i, u);
            }
        }

        // Sum of the participants' uploads (after any uplink corruption).
        let mut sum = vec![0.0f32; len];
        for (i, u) in uploads.iter().enumerate() {
            if participants[i] {
                for (s, &v) in sum.iter_mut().zip(u.iter()) {
                    *s += v;
                }
            }
        }
        // Consensus = mean of uploads; this is what the server "knows".
        let inv_m = 1.0 / m as f32;
        for (c, &s) in self.consensus.iter_mut().zip(sum.iter()) {
            *c = s * inv_m;
        }

        let alpha = self.alpha().max(inv_m);
        let beta = (1.0 - alpha) / (m as f32 - 1.0);
        let mut dense: Vec<Vec<f32>> = uploads
            .iter()
            .enumerate()
            .filter(|(i, _)| participants[*i])
            .map(|(_, u)| {
                u.iter()
                    .zip(sum.iter())
                    .map(|(&own, &total)| alpha * own + beta * (total - own))
                    .collect()
            })
            .collect();

        hook.on_server(&mut dense);
        let mut dense_iter = dense.into_iter();
        let mut outputs: Vec<Option<Vec<f32>>> =
            participants.iter().map(|&p| if p { dense_iter.next() } else { None }).collect();
        for (i, o) in outputs.iter_mut().enumerate() {
            if let Some(o) = o.as_mut() {
                hook.on_downlink(i, o);
            }
        }

        self.round += 1;
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoopHook;

    #[test]
    fn rejects_bad_construction() {
        assert!(matches!(Server::new(1, 4), Err(FederatedError::TooFewAgents { .. })));
        assert!(matches!(Server::new(4, 0), Err(FederatedError::EmptyParams)));
    }

    #[test]
    fn rejects_bad_uploads() {
        let mut s = Server::new(2, 3).unwrap();
        assert!(matches!(
            s.aggregate(&[vec![0.0; 3]]),
            Err(FederatedError::WrongUploadCount { .. })
        ));
        assert!(matches!(
            s.aggregate(&[vec![0.0; 3], vec![0.0; 2]]),
            Err(FederatedError::ParamLengthMismatch { agent: 1, .. })
        ));
    }

    #[test]
    fn identical_uploads_are_fixed_point() {
        let mut s = Server::new(3, 2).unwrap();
        let uploads = vec![vec![1.5, -0.5]; 3];
        let out = s.aggregate(&uploads).unwrap();
        for o in out {
            assert!((o[0] - 1.5).abs() < 1e-6);
            assert!((o[1] + 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn smoothing_moves_toward_mean() {
        let mut s = Server::new(2, 1).unwrap();
        let out = s.aggregate(&[vec![0.0], vec![2.0]]).unwrap();
        // Each output strictly between own value and the other's.
        assert!(out[0][0] > 0.0 && out[0][0] < 2.0);
        assert!(out[1][0] > 0.0 && out[1][0] < 2.0);
        // Weights sum to one, so the pair mean is preserved.
        assert!((out[0][0] + out[1][0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn alpha_anneals_to_one_over_n() {
        let mut s = Server::with_annealing(4, 1, 0.7, 10).unwrap();
        assert!((s.alpha() - 0.7).abs() < 1e-6);
        for _ in 0..10 {
            s.aggregate(&vec![vec![0.0]; 4]).unwrap();
        }
        assert!((s.alpha() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn consensus_is_mean_of_uploads() {
        let mut s = Server::new(2, 2).unwrap();
        s.aggregate(&[vec![1.0, 3.0], vec![3.0, 5.0]]).unwrap();
        assert_eq!(s.consensus(), &[2.0, 4.0]);
    }

    #[test]
    fn repeated_rounds_converge_to_consensus() {
        // The paper's Eq. 4: θᵢᵏ⁺ → θ* for all i.
        let mut s = Server::with_annealing(3, 1, 0.8, 20).unwrap();
        let mut params = vec![vec![0.0f32], vec![6.0], vec![3.0]];
        for _ in 0..60 {
            params = s.aggregate(&params).unwrap();
        }
        let spread = params.iter().map(|p| p[0]).fold(f32::NEG_INFINITY, f32::max)
            - params.iter().map(|p| p[0]).fold(f32::INFINITY, f32::min);
        assert!(spread < 1e-3, "agents did not converge, spread {spread}");
        assert!((params[0][0] - 3.0).abs() < 1e-3, "consensus should preserve the mean");
    }

    #[test]
    fn uplink_hook_corrupts_in_transit_only() {
        struct ZeroAgent0;
        impl RoundHook for ZeroAgent0 {
            fn on_uplink(&mut self, agent: usize, params: &mut [f32]) {
                if agent == 0 {
                    params.iter_mut().for_each(|p| *p = 0.0);
                }
            }
        }
        let mut s = Server::new(2, 1).unwrap();
        let mut uploads = vec![vec![10.0], vec![2.0]];
        let out = s.aggregate_with_hook(&mut uploads, &mut ZeroAgent0).unwrap();
        // Server saw 0.0 for agent 0, so outputs reflect the corruption.
        assert!(out[1][0] < 2.0);
    }

    /// The all-participants round written without a mask: the oracle
    /// the all-true mask must reproduce bit for bit.
    fn full_round_oracle(s: &mut Server, uploads: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut sum = vec![0.0f32; s.consensus.len()];
        for u in uploads {
            for (t, &v) in sum.iter_mut().zip(u.iter()) {
                *t += v;
            }
        }
        let inv_n = 1.0 / s.n_agents as f32;
        for (c, &t) in s.consensus.iter_mut().zip(sum.iter()) {
            *c = t * inv_n;
        }
        let alpha = s.alpha();
        let beta = (1.0 - alpha) / (s.n_agents as f32 - 1.0);
        let outputs = uploads
            .iter()
            .map(|u| {
                u.iter()
                    .zip(sum.iter())
                    .map(|(&own, &total)| alpha * own + beta * (total - own))
                    .collect()
            })
            .collect();
        s.round += 1;
        outputs
    }

    #[test]
    fn subset_round_matches_full_round_when_all_participate() {
        // Across the whole annealing schedule, where the 1/m floor on
        // the self-weight must never bind for a full round.
        for n in 2..=7usize {
            for alpha0 in [1.0 / n as f32, 0.5, 0.75, 0.95] {
                if alpha0 < 1.0 / n as f32 {
                    continue;
                }
                let mut oracle = Server::with_annealing(n, 3, alpha0, 10).unwrap();
                let mut masked = oracle.clone();
                let mut params: Vec<Vec<f32>> = (0..n)
                    .map(|i| (0..3).map(|j| (i * 3 + j) as f32 * 0.37 - 1.1).collect())
                    .collect();
                for round in 0..12 {
                    let expected = full_round_oracle(&mut oracle, &params);
                    let mut ups = params.clone();
                    let got = masked.aggregate_subset(&mut ups, &vec![true; n], &mut NoopHook);
                    let got: Vec<Vec<f32>> = got.unwrap().into_iter().map(Option::unwrap).collect();
                    let bits = |v: &[Vec<f32>]| -> Vec<u32> {
                        v.iter().flatten().map(|x| x.to_bits()).collect()
                    };
                    assert_eq!(bits(&got), bits(&expected), "n {n} alpha0 {alpha0} round {round}");
                    assert_eq!(masked, oracle);
                    params = got;
                }
            }
        }
    }

    #[test]
    fn dropped_agents_get_no_output() {
        let mut s = Server::new(3, 1).unwrap();
        let mut ups = vec![vec![0.0f32], vec![6.0], vec![100.0]];
        let out = s.aggregate_subset(&mut ups, &[true, true, false], &mut crate::NoopHook).unwrap();
        assert!(out[0].is_some() && out[1].is_some());
        assert!(out[2].is_none());
        // Consensus is the mean over participants only.
        assert!((s.consensus()[0] - 3.0).abs() < 1e-6);
        assert_eq!(s.round(), 1);
    }

    #[test]
    fn resumed_server_continues_bitwise() {
        let uploads = vec![vec![1.0, 2.0], vec![3.0, 5.0], vec![0.5, -1.0]];
        let mut a = Server::new(3, 2).unwrap();
        a.aggregate(&uploads).unwrap();
        let mut b = Server::new(3, 2).unwrap();
        b.resume(a.round());
        // The consensus is not restored, and the next round rewrites it.
        assert_ne!(a.consensus(), b.consensus());
        assert_eq!(a.aggregate(&uploads).unwrap(), b.aggregate(&uploads).unwrap());
        assert_eq!((a.round(), a.consensus()), (b.round(), b.consensus()));
    }

    #[test]
    fn lonely_round_is_skipped() {
        let mut s = Server::new(3, 1).unwrap();
        let mut ups = vec![vec![1.0f32]; 3];
        let out =
            s.aggregate_subset(&mut ups, &[true, false, false], &mut crate::NoopHook).unwrap();
        assert!(out.iter().all(Option::is_none));
        assert_eq!(s.round(), 0, "skipped rounds must not advance annealing");
    }

    #[test]
    fn subset_rejects_bad_mask() {
        let mut s = Server::new(3, 1).unwrap();
        let mut ups = vec![vec![1.0f32]; 3];
        assert!(s.aggregate_subset(&mut ups, &[true, true], &mut crate::NoopHook).is_err());
    }

    #[test]
    fn server_hook_hits_all_agents() {
        struct Saturate;
        impl RoundHook for Saturate {
            fn on_server(&mut self, outputs: &mut [Vec<f32>]) {
                for o in outputs {
                    o.iter_mut().for_each(|p| *p = 99.0);
                }
            }
        }
        let mut s = Server::new(3, 2).unwrap();
        let mut uploads = vec![vec![0.0; 2]; 3];
        let out = s.aggregate_with_hook(&mut uploads, &mut Saturate).unwrap();
        assert!(out.iter().all(|o| o.iter().all(|&p| p == 99.0)));
    }
}
