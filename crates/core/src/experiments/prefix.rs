//! Fault-free training prefixes, trained once per campaign and forked
//! by every trial that shares them.
//!
//! All training-fault trials of a campaign cell grid train the same
//! system (fixed `system_seed`, and for DroneNav the same pre-trained
//! weights) up to their injection episode; only the fault stream
//! differs, and before the injection it never touches the weights. So
//! the prefix up to each injection episode is trained once,
//! snapshotted as a [`FleetPrefix`], and every trial forks from it
//! ([`crate::Fleet::fork`]) to train only its suffix.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::error::FrlfiError;
use crate::experiments::harness::{DroneTrial, GridTrial, TrialFault};
use crate::fleet::{FleetConfig, PlaneBlock, System};
use crate::{FleetPrefix, Stop};
use frlfi_nn::BatchInferCtx;

/// A trial kind whose training forks from cached fault-free prefixes.
pub(crate) trait ForkTrial: Clone {
    /// The configuration of the fleet the trial trains.
    type Config: FleetConfig;

    /// Whether `other` trains the same fault-free prefix.
    fn same_prefix(&self, other: &Self) -> bool;

    /// Training episodes.
    fn episodes(&self) -> usize;

    /// The fault to inject.
    fn fault(&self) -> Option<&TrialFault>;

    /// The untrained fleet, pre-trained weights set.
    ///
    /// # Errors
    ///
    /// Returns construction errors.
    fn system(&self) -> Result<System<Self::Config>, FrlfiError>;

    /// This kind's chains in `cache`.
    fn chains(cache: &Prefixes) -> &Chains<Self>;
}

/// The latest episode at which a trial can fork from its fault-free
/// prefix: the injection episode, or the whole run when no fault ever
/// fires. Mitigated trials fork by the same rule: the snapshot carries
/// their detector and checkpoint.
pub(crate) fn fork_episode<T: ForkTrial>(t: &T) -> usize {
    match t.fault().and_then(TrialFault::plan) {
        Some(p) if p.episode < t.episodes() => p.episode,
        _ => t.episodes(),
    }
}

/// The fault-free training prefixes of one campaign's trials.
///
/// Trials of one kind that train the same fault-free system share a
/// *prefix key*. Per key the cache holds a chain of compact
/// [`FleetPrefix`] snapshots at the key's *stops*: the distinct
/// injection episodes of the campaign's cells. A trial forks from the
/// deepest stop at or before its own fork episode, so a cell whose
/// fault never fires trains on from the last stop rather than holding
/// a snapshot of the whole run. The first trial that needs a snapshot
/// extends the chain from the nearest earlier one and stores every stop
/// it passes; other trials with the same key wait for it. Building an
/// empty cache allocates nothing.
#[derive(Clone, Default)]
pub struct Prefixes {
    pub(super) grid: Chains<GridTrial>,
    pub(super) drone: Chains<DroneTrial>,
}

/// The chains of one trial kind.
pub(crate) struct Chains<T: ForkTrial>(Mutex<Vec<Arc<Chain<T>>>>);

struct Chain<T: ForkTrial> {
    /// A trial of this key.
    key: T,
    /// Injection episodes of the campaign's cells with this key,
    /// ascending.
    stops: Vec<usize>,
    /// Snapshots taken so far, ascending by episode.
    snaps: Mutex<Vec<Arc<FleetPrefix<T::Config>>>>,
}

impl<T: ForkTrial> Default for Chains<T> {
    fn default() -> Self {
        Chains(Mutex::new(Vec::new()))
    }
}

/// Clones share the chains: a prefix depends only on its key, never on
/// which campaign asked for it.
impl<T: ForkTrial> Clone for Chains<T> {
    fn clone(&self) -> Self {
        Chains(Mutex::new(lock(&self.0).clone()))
    }
}

/// Counts only: the snapshots hold whole weight planes.
impl std::fmt::Debug for Prefixes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let chains = lock(&self.grid.0).len() + lock(&self.drone.0).len();
        f.debug_struct("Prefixes")
            .field("chains", &chains)
            .field("snapshots", &self.stops().len())
            .finish()
    }
}

impl Prefixes {
    /// Where every snapshot stored so far stands, GridWorld chains
    /// first, chain by chain in ascending episode order.
    pub fn stops(&self) -> Vec<Stop> {
        let mut stops = self.grid.stops();
        stops.extend(self.drone.stops());
        stops
    }

    /// The fault-free prefix of trial `t` at its deepest stop at or
    /// before episode `at`, or `None` when no stop lies that early.
    /// `cells` are the campaign's cells: they fix the chain's stops when
    /// `t`'s key is first seen. Chain training runs on `ctx`.
    pub(crate) fn get<T: ForkTrial>(
        &self,
        cells: &[T],
        t: &T,
        at: usize,
        ctx: &mut BatchInferCtx,
    ) -> Result<Option<Arc<FleetPrefix<T::Config>>>, FrlfiError> {
        T::chains(self).get(cells, t, at, ctx)
    }
}

impl<T: ForkTrial> Chains<T> {
    fn stops(&self) -> Vec<Stop> {
        lock(&self.0)
            .iter()
            .flat_map(|c| lock(&c.snaps).iter().map(|s| s.stop()).collect::<Vec<_>>())
            .collect()
    }

    fn get(
        &self,
        cells: &[T],
        t: &T,
        at: usize,
        ctx: &mut BatchInferCtx,
    ) -> Result<Option<Arc<FleetPrefix<T::Config>>>, FrlfiError> {
        let chain = {
            let mut chains = lock(&self.0);
            match chains.iter().find(|c| c.key.same_prefix(t)) {
                Some(c) => Arc::clone(c),
                None => {
                    let mut stops: Vec<usize> = cells
                        .iter()
                        .filter(|c| c.same_prefix(t))
                        .map(|c| (fork_episode(c), c.episodes()))
                        .filter(|&(e, episodes)| e > 0 && e < episodes)
                        .map(|(e, _)| e)
                        .collect();
                    stops.sort_unstable();
                    stops.dedup();
                    let c =
                        Arc::new(Chain { key: t.clone(), stops, snaps: Mutex::new(Vec::new()) });
                    chains.push(Arc::clone(&c));
                    c
                }
            }
        };
        let Some(&stop) = chain.stops.iter().rev().find(|&&e| e <= at) else {
            return Ok(None);
        };
        let done = |s: &Arc<FleetPrefix<T::Config>>| s.stop().episodes_done;
        let mut snaps = lock(&chain.snaps);
        if let Some(s) = snaps.iter().find(|s| done(s) == stop) {
            frlfi_obs::count("prefix.hit", 1);
            return Ok(Some(Arc::clone(s)));
        }
        frlfi_obs::count("prefix.miss", 1);
        // The fault seed is irrelevant here: a fault-free prefix only
        // counts its fault-stream draws, and every fork replays them.
        let mut sys = match snaps.iter().rev().find(|s| done(s) < stop) {
            Some(s) => System::<T::Config>::fork(s, 0)?,
            None => t.system()?,
        };
        let from = sys.episodes_done();
        let targets: Vec<usize> =
            chain.stops.iter().copied().filter(|&e| e > from && e <= stop).collect();
        // All planes of this run in one block, allocated up front and
        // returned whole when the campaign drops it.
        let mut block = PlaneBlock::with_capacity(targets.len() * sys.planes_len());
        let mut taken = Vec::with_capacity(targets.len());
        for e in targets {
            sys.train(e - sys.episodes_done(), None, ctx)?;
            taken.push(sys.prefix_into(&mut block)?);
        }
        let block = Arc::new(block);
        // The run's last snapshot is the one at `stop`.
        let mut last = None;
        for mut snap in taken {
            snap.set_planes(Arc::clone(&block));
            let pos = snaps.partition_point(|s| done(s) < snap.stop().episodes_done);
            let snap = Arc::new(snap);
            snaps.insert(pos, Arc::clone(&snap));
            last = Some(snap);
        }
        Ok(last)
    }
}

/// Locks `m`, ignoring poison: every critical section here leaves its
/// data whole (a chain only ever gains complete snapshots).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
