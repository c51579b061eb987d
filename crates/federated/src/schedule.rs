/// The server–agent communication-interval schedule (Fig. 6b).
///
/// The interval is the number of episodes between communication rounds.
/// The paper's experiment doubles or triples the interval after the
/// 2000th episode ("drones usually perform more exploitation" late in
/// fine-tuning) and reports the resulting trade-off: longer intervals
/// cut communication cost (−23.3% for ×3) and server-fault exposure but
/// slow recovery from agent faults.
///
/// ```
/// use frlfi_federated::CommSchedule;
///
/// let s = CommSchedule::with_boost(1, 2000, 3);
/// assert!(s.communicates_at(10));
/// assert!(!s.communicates_at(2501));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommSchedule {
    base_interval: usize,
    switch_episode: Option<usize>,
    late_multiplier: usize,
}

impl CommSchedule {
    /// Communicate every `base_interval` episodes for the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `base_interval == 0`.
    pub fn every(base_interval: usize) -> Self {
        assert!(base_interval > 0, "interval must be positive");
        CommSchedule { base_interval, switch_episode: None, late_multiplier: 1 }
    }

    /// Communicate every `base_interval` episodes until
    /// `switch_episode`, then every `base_interval × multiplier`.
    ///
    /// # Panics
    ///
    /// Panics if `base_interval == 0` or `multiplier == 0`.
    pub fn with_boost(base_interval: usize, switch_episode: usize, multiplier: usize) -> Self {
        assert!(base_interval > 0 && multiplier > 0, "interval and multiplier must be positive");
        CommSchedule {
            base_interval,
            switch_episode: Some(switch_episode),
            late_multiplier: multiplier,
        }
    }

    /// The interval in force at a given episode.
    pub(crate) fn interval_at(&self, episode: usize) -> usize {
        match self.switch_episode {
            Some(sw) if episode >= sw => self.base_interval * self.late_multiplier,
            _ => self.base_interval,
        }
    }

    /// Whether a communication round happens after this episode.
    pub fn communicates_at(&self, episode: usize) -> bool {
        episode.is_multiple_of(self.interval_at(episode))
    }

    /// Total communication rounds over `total_episodes` episodes.
    pub fn total_comms(&self, total_episodes: usize) -> usize {
        (0..total_episodes).filter(|&e| self.communicates_at(e)).count()
    }

    /// Fractional communication-cost saving versus an unboosted schedule
    /// (the paper reports 23.3% for ×3 after episode 2000 of 3000).
    pub fn cost_saving_vs_base(&self, total_episodes: usize) -> f64 {
        let base = CommSchedule::every(self.base_interval).total_comms(total_episodes);
        if base == 0 {
            return 0.0;
        }
        1.0 - self.total_comms(total_episodes) as f64 / base as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule() {
        let s = CommSchedule::every(5);
        assert_eq!(s.interval_at(0), 5);
        assert_eq!(s.interval_at(10_000), 5);
        assert_eq!(s.total_comms(50), 10);
    }

    #[test]
    fn boost_switches_interval() {
        let s = CommSchedule::with_boost(1, 100, 2);
        assert_eq!(s.interval_at(99), 1);
        assert_eq!(s.interval_at(100), 2);
        assert!(s.communicates_at(50));
        assert!(s.communicates_at(102));
        assert!(!s.communicates_at(101));
    }

    #[test]
    fn paper_cost_saving_shape() {
        // ×3 after episode 2000 of 3000: the last 1000 episodes send
        // 1/3 the messages → saving ≈ (1000 − 334)/3000 ≈ 22%.
        let s = CommSchedule::with_boost(1, 2000, 3);
        let saving = s.cost_saving_vs_base(3000);
        assert!((0.20..=0.25).contains(&saving), "saving {saving}");
    }

    #[test]
    #[should_panic]
    fn zero_interval_panics() {
        CommSchedule::every(0);
    }
}
