/// The paper's server-side checkpointing scheme (§V-A).
///
/// The server snapshots its consensus weights every
/// `interval_rounds` communication rounds (the paper uses 5). On a
/// detected *agent* fault the checkpoint is copied to that agent; on a
/// detected *server* fault it is copied to every agent, whose next
/// uploads rebuild the server's consensus. Checkpointing
/// is asynchronous with aggregation in the paper ("bringing no runtime
/// overhead"), which here corresponds to the snapshot being a plain
/// buffer copy outside the training loop.
///
/// ```
/// use frlfi_mitigation::ServerCheckpoint;
///
/// let mut cp = ServerCheckpoint::new(5);
/// cp.on_round(0, &[1.0, 2.0]);
/// cp.on_round(3, &[9.0, 9.0]); // not a checkpoint round — ignored
/// assert_eq!(cp.stored(), Some(&[1.0, 2.0][..]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServerCheckpoint {
    interval_rounds: usize,
    stored: Option<Vec<f32>>,
}

impl ServerCheckpoint {
    /// Creates a checkpointer updating every `interval_rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `interval_rounds == 0`.
    pub fn new(interval_rounds: usize) -> Self {
        assert!(interval_rounds > 0, "checkpoint interval must be positive");
        ServerCheckpoint { interval_rounds, stored: None }
    }

    /// Offers the server's consensus weights after communication round
    /// `round`; a snapshot is stored on every `interval_rounds`-th round,
    /// and the first round offered initializes the checkpoint whatever
    /// its index, so recovery is possible from then on. Offer only
    /// rounds whose consensus an aggregation has just written: before
    /// its first aggregation a server holds no one's weights.
    pub fn on_round(&mut self, round: usize, consensus: &[f32]) {
        if self.stored.is_none() || round.is_multiple_of(self.interval_rounds) {
            self.stored = Some(consensus.to_vec());
        }
    }

    /// The stored snapshot, if any.
    pub fn stored(&self) -> Option<&[f32]> {
        self.stored.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_on_interval() {
        let mut cp = ServerCheckpoint::new(5);
        cp.on_round(0, &[0.0]);
        cp.on_round(1, &[1.0]);
        cp.on_round(4, &[4.0]);
        assert_eq!(cp.stored(), Some(&[0.0][..]));
        cp.on_round(5, &[5.0]);
        assert_eq!(cp.stored(), Some(&[5.0][..]));
    }

    #[test]
    fn first_offer_initializes_whatever_its_round() {
        let mut cp = ServerCheckpoint::new(5);
        assert_eq!(cp.stored(), None);
        cp.on_round(3, &[7.0, 8.0]);
        assert_eq!(cp.stored(), Some(&[7.0, 8.0][..]));
    }

    #[test]
    #[should_panic]
    fn zero_interval_panics() {
        ServerCheckpoint::new(0);
    }
}
