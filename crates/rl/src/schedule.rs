/// A linearly decaying exploration schedule.
///
/// The paper's on-device procedure has two phases: a *training* phase in
/// which "the ratio of exploration to exploitation decreases", and an
/// *inference* phase of pure greedy exploitation (§III-B). This schedule
/// realizes the first phase; inference uses ε = 0.
///
/// ```
/// use frlfi_rl::EpsilonSchedule;
///
/// let s = EpsilonSchedule::new(1.0, 0.05, 100);
/// assert_eq!(s.epsilon(0), 1.0);
/// assert!(s.epsilon(50) < 1.0);
/// assert_eq!(s.epsilon(100), 0.05);
/// assert_eq!(s.epsilon(10_000), 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonSchedule {
    start: f32,
    end: f32,
    decay_episodes: usize,
}

impl EpsilonSchedule {
    /// Creates a schedule decaying linearly from `start` to `end` over
    /// `decay_episodes` episodes, then holding at `end`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ end ≤ start ≤ 1`.
    pub fn new(start: f32, end: f32, decay_episodes: usize) -> Self {
        assert!((0.0..=1.0).contains(&start) && (0.0..=1.0).contains(&end) && end <= start);
        EpsilonSchedule { start, end, decay_episodes }
    }

    /// ε at a given episode index.
    pub fn epsilon(&self, episode: usize) -> f32 {
        if self.decay_episodes == 0 || episode >= self.decay_episodes {
            return self.end;
        }
        let frac = episode as f32 / self.decay_episodes as f32;
        self.start + (self.end - self.start) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_decay() {
        let s = EpsilonSchedule::new(0.9, 0.1, 10);
        let mut prev = f32::INFINITY;
        for ep in 0..20 {
            let e = s.epsilon(ep);
            assert!(e <= prev + 1e-6);
            prev = e;
        }
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_bounds() {
        EpsilonSchedule::new(0.1, 0.9, 10);
    }
}
