/// Outcome of feeding one round of per-agent episode rewards to the
/// [`RewardDropDetector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detection {
    /// No fault suspected.
    None,
    /// A minority of agents show a sustained reward drop — faults in
    /// those agents (restore them from the server checkpoint).
    AgentFault(Vec<usize>),
    /// More than half the agents show a sustained drop — fault in the
    /// server (roll the server back to its checkpoint).
    ServerFault,
}

/// The paper's application-level training-time fault detector (§V-A).
///
/// Tracks an exponential-moving-average reward baseline per agent. If an
/// agent's episode reward falls more than `p%` below its baseline for
/// `k` consecutive episodes, the agent is flagged. Flags on more than
/// half the agents indicate a server fault (the server touches every
/// agent's parameters, so its faults depress everyone's reward).
///
/// The detector is deliberately application-level rather than bit-level:
/// "faults with low BER do not necessarily degrade final performance",
/// so comparing rewards avoids the false positives (and cost) of full
/// memory comparison.
#[derive(Debug, Clone)]
pub struct RewardDropDetector {
    p_percent: f32,
    k_consecutive: usize,
    baselines: Vec<Option<f32>>,
    drop_streaks: Vec<usize>,
    ema: f32,
}

impl RewardDropDetector {
    /// Creates a detector with drop threshold `p_percent` (the paper
    /// uses 25), confirmation window `k_consecutive` (50 for GridWorld,
    /// 200 for the drone) and `n_agents` agents.
    ///
    /// # Panics
    ///
    /// Panics if `p_percent <= 0`, `k_consecutive == 0` or
    /// `n_agents == 0`.
    pub fn new(p_percent: f32, k_consecutive: usize, n_agents: usize) -> Self {
        assert!(p_percent > 0.0, "drop threshold must be positive");
        assert!(k_consecutive > 0, "confirmation window must be positive");
        assert!(n_agents > 0, "need at least one agent");
        RewardDropDetector {
            p_percent,
            k_consecutive,
            baselines: vec![None; n_agents],
            drop_streaks: vec![0; n_agents],
            ema: 0.05,
        }
    }

    /// Feeds one episode's rewards (index = agent) and returns any
    /// detection. After a detection the involved streaks reset, so the
    /// caller can apply recovery and continue feeding.
    ///
    /// # Panics
    ///
    /// Panics if `rewards.len() != n_agents`.
    pub fn observe(&mut self, rewards: &[f32]) -> Detection {
        assert_eq!(rewards.len(), self.baselines.len(), "one reward per agent");
        let mut flagged = Vec::new();
        for (i, &r) in rewards.iter().enumerate() {
            match self.baselines[i] {
                None => {
                    self.baselines[i] = Some(r);
                }
                Some(b) => {
                    let threshold = b - self.p_percent / 100.0 * b.abs().max(0.5);
                    if r < threshold {
                        self.drop_streaks[i] += 1;
                        // Baseline freezes while dropping so a slow fault
                        // cannot drag it down with itself.
                    } else {
                        self.drop_streaks[i] = 0;
                        self.baselines[i] = Some(b + self.ema * (r - b));
                    }
                    if self.drop_streaks[i] >= self.k_consecutive {
                        flagged.push(i);
                    }
                }
            }
        }
        if flagged.is_empty() {
            return Detection::None;
        }
        // Server faults depress *everyone's* reward, but the per-agent
        // streaks do not cross the k threshold in the same episode, so
        // classification counts the agents that are *currently dropping*
        // (streak at least k/2) when the first one confirms. A lone
        // dropping agent is always an agent fault (there is no server to
        // blame in a single-agent system).
        let dropping =
            self.drop_streaks.iter().filter(|&&s| s >= (self.k_consecutive / 2).max(2)).count();
        if dropping >= 2 && dropping * 2 > self.baselines.len() {
            self.drop_streaks.iter_mut().for_each(|s| *s = 0);
            Detection::ServerFault
        } else {
            for &i in &flagged {
                self.drop_streaks[i] = 0;
            }
            Detection::AgentFault(flagged)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warmed(n: usize, k: usize) -> RewardDropDetector {
        let mut d = RewardDropDetector::new(25.0, k, n);
        for _ in 0..20 {
            d.observe(&vec![1.0; n]);
        }
        d
    }

    #[test]
    fn quiet_run_detects_nothing() {
        let mut d = warmed(4, 3);
        for _ in 0..50 {
            assert_eq!(d.observe(&[1.0, 0.95, 1.05, 1.0]), Detection::None);
        }
    }

    #[test]
    fn single_agent_drop_is_agent_fault() {
        let mut d = warmed(4, 3);
        let mut last = Detection::None;
        for _ in 0..3 {
            last = d.observe(&[1.0, 1.0, 1.0, -0.5]);
        }
        assert_eq!(last, Detection::AgentFault(vec![3]));
    }

    #[test]
    fn majority_drop_is_server_fault() {
        let mut d = warmed(4, 3);
        let mut last = Detection::None;
        for _ in 0..3 {
            last = d.observe(&[-0.5, -0.5, -0.5, 1.0]);
        }
        assert_eq!(last, Detection::ServerFault);
    }

    #[test]
    fn short_drop_is_tolerated() {
        // A k−1 episode dip must not trigger (transient noise).
        let mut d = warmed(2, 5);
        for _ in 0..4 {
            assert_eq!(d.observe(&[-0.5, 1.0]), Detection::None);
        }
        // Recovery resets the streak.
        assert_eq!(d.observe(&[1.0, 1.0]), Detection::None);
        for _ in 0..4 {
            assert_eq!(d.observe(&[-0.5, 1.0]), Detection::None);
        }
    }

    #[test]
    fn streak_resets_after_detection() {
        let mut d = warmed(2, 2);
        d.observe(&[-0.5, 1.0]);
        assert_eq!(d.observe(&[-0.5, 1.0]), Detection::AgentFault(vec![0]));
        // Fresh streak: needs k more episodes to re-trigger.
        assert_eq!(d.observe(&[-0.5, 1.0]), Detection::None);
        assert_eq!(d.observe(&[-0.5, 1.0]), Detection::AgentFault(vec![0]));
    }

    #[test]
    fn baseline_freezes_during_drop() {
        let mut d = warmed(1, 100);
        let b_before = d.baselines[0].unwrap();
        for _ in 0..50 {
            d.observe(&[-1.0]);
        }
        assert_eq!(d.baselines[0].unwrap(), b_before);
    }

    #[test]
    fn works_with_negative_baselines() {
        // Early RL rewards are often negative; p% of |baseline| with a
        // 0.5 floor still yields a sane threshold.
        let mut d = RewardDropDetector::new(25.0, 2, 1);
        for _ in 0..20 {
            d.observe(&[-0.2]);
        }
        assert_eq!(d.observe(&[-0.25]), Detection::None);
        let mut last = Detection::None;
        for _ in 0..2 {
            last = d.observe(&[-2.0]);
        }
        assert_eq!(last, Detection::AgentFault(vec![0]));
    }
}
