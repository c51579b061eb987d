//! Fault-free GridWorld training prefixes, trained once per campaign
//! and forked by every trial that shares them.
//!
//! All training-fault trials of a campaign cell grid train the same
//! system (fixed `system_seed`) up to their injection episode; only the
//! fault stream differs, and before the injection it never touches the
//! weights. So the prefix up to each injection episode is trained once,
//! snapshotted as a [`GridPrefix`], and every trial forks from it
//! ([`GridFrlSystem::fork`]) to train only its suffix.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::error::FrlfiError;
use crate::experiments::harness::{fork_episode, GridMetric, GridTrial};
use crate::grid_system::PlaneBlock;
use crate::{GridFrlSystem, GridPrefix};
use frlfi_nn::BatchInferCtx;

/// The fault-free training prefixes of one campaign's GridWorld trials.
///
/// Trials that differ only in their fault and reported metric share a
/// *prefix key*. Per key the cache holds a chain of compact
/// [`GridPrefix`] snapshots at the key's *stops*: the distinct
/// injection episodes of the campaign's cells. A trial forks from the
/// deepest stop at or before its own fork episode, so a cell whose
/// fault never fires trains on from the last stop rather than holding
/// a snapshot of the whole run. The first trial that needs a snapshot
/// extends the chain from the nearest earlier one and stores every stop
/// it passes; other trials with the same key wait for it. Building an
/// empty cache allocates nothing.
#[derive(Default)]
pub struct GridPrefixes {
    chains: Mutex<Vec<Arc<Chain>>>,
}

struct Chain {
    /// A trial of this key, its fault and metric cleared.
    key: GridTrial,
    /// Injection episodes of the campaign's cells with this key,
    /// ascending.
    stops: Vec<usize>,
    /// Snapshots taken so far, ascending by episode.
    snaps: Mutex<Vec<Arc<GridPrefix>>>,
}

/// Counts only: the snapshots hold whole weight planes.
impl std::fmt::Debug for GridPrefixes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let chains = lock(&self.chains);
        let snapshots: usize = chains.iter().map(|c| lock(&c.snaps).len()).sum();
        f.debug_struct("GridPrefixes")
            .field("chains", &chains.len())
            .field("snapshots", &snapshots)
            .finish()
    }
}

/// Clones share the chains: a prefix depends only on its key, never on
/// which campaign asked for it.
impl Clone for GridPrefixes {
    fn clone(&self) -> Self {
        GridPrefixes { chains: Mutex::new(lock(&self.chains).clone()) }
    }
}

impl GridPrefixes {
    /// An empty cache.
    pub const fn new() -> Self {
        GridPrefixes { chains: Mutex::new(Vec::new()) }
    }

    /// Every snapshot stored so far, chain by chain in ascending
    /// episode order.
    pub fn checkpoints(&self) -> Vec<Arc<GridPrefix>> {
        lock(&self.chains).iter().flat_map(|c| lock(&c.snaps).clone()).collect()
    }

    /// The fault-free prefix of trial `t` at its deepest stop at or
    /// before episode `at`, or `None` when no stop lies that early.
    /// `cells` are the campaign's cells: they fix the chain's stops when
    /// `t`'s key is first seen. Chain training runs on `ctx`.
    pub(crate) fn get(
        &self,
        cells: &[GridTrial],
        t: &GridTrial,
        at: usize,
        ctx: &mut BatchInferCtx,
    ) -> Result<Option<Arc<GridPrefix>>, FrlfiError> {
        let key = prefix_key(t);
        let chain = {
            let mut chains = lock(&self.chains);
            match chains.iter().find(|c| c.key == key) {
                Some(c) => Arc::clone(c),
                None => {
                    let mut stops: Vec<usize> = cells
                        .iter()
                        .filter(|c| prefix_key(c) == key)
                        .map(fork_episode)
                        .filter(|&e| e > 0 && e < t.total_episodes)
                        .collect();
                    stops.sort_unstable();
                    stops.dedup();
                    let c = Arc::new(Chain { key, stops, snaps: Mutex::new(Vec::new()) });
                    chains.push(Arc::clone(&c));
                    c
                }
            }
        };
        let Some(&stop) = chain.stops.iter().rev().find(|&&e| e <= at) else {
            return Ok(None);
        };
        let mut snaps = lock(&chain.snaps);
        if let Some(s) = snaps.iter().find(|s| s.episodes_done() == stop) {
            frlfi_obs::count("prefix.hit", 1);
            return Ok(Some(Arc::clone(s)));
        }
        frlfi_obs::count("prefix.miss", 1);
        // The fault seed is irrelevant here: a fault-free prefix only
        // counts its fault-stream draws, and every fork replays them.
        let mut sys = match snaps.iter().rev().find(|s| s.episodes_done() < stop) {
            Some(s) => GridFrlSystem::fork(s, 0)?,
            None => GridFrlSystem::new(t.system_config())?,
        };
        let from = sys.episodes_done();
        let targets: Vec<usize> =
            chain.stops.iter().copied().filter(|&e| e > from && e <= stop).collect();
        // All planes of this run in one block, allocated up front and
        // returned whole when the campaign drops it.
        let mut block = PlaneBlock::with_capacity(targets.len() * sys.planes_len());
        let mut taken = Vec::with_capacity(targets.len());
        for e in targets {
            sys.train(e - sys.episodes_done(), None, None, ctx)?;
            taken.push(sys.prefix_into(&mut block)?);
        }
        let block = Arc::new(block);
        // The run's last snapshot is the one at `stop`.
        let mut last = None;
        for mut snap in taken {
            snap.set_planes(Arc::clone(&block));
            let pos = snaps.partition_point(|s| s.episodes_done() < snap.episodes_done());
            let snap = Arc::new(snap);
            snaps.insert(pos, Arc::clone(&snap));
            last = Some(snap);
        }
        Ok(last)
    }
}

/// `t` with everything that cannot change its fault-free prefix cleared.
fn prefix_key(t: &GridTrial) -> GridTrial {
    GridTrial { fault: None, metric: GridMetric::SuccessRatePct, ..t.clone() }
}

/// Locks `m`, ignoring poison: every critical section here leaves its
/// data whole (a chain only ever gains complete snapshots).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
