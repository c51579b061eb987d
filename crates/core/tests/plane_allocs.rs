//! Allocations per static-fault trial, counted exactly: a global
//! allocator that counts, per thread, every allocation (or reallocation)
//! at least one weight plane in size.
//!
//! A static trial corrupts every agent's policy in place, evaluates and
//! restores: the one plane-sized buffer it needs per agent is the clean
//! copy it restores from. Grouping the agents by their weights and the
//! range detector's repair read and write the planes in place.

use frlfi::mitigation::RangeDetector;
use frlfi::nn::BatchInferCtx;
use frlfi::rl::Learner;
use frlfi::{fault, GridFrlSystem, GridSystemConfig, ReprKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations of at least `MIN_BYTES` bytes.
struct PlaneCounter;

thread_local! {
    static MIN_BYTES: Cell<usize> = const { Cell::new(usize::MAX) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread locals are torn
    // down.
    let big = MIN_BYTES.try_with(|m| bytes >= m.get()).unwrap_or(false);
    if big {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counting touches only const-initialized thread locals and never
// allocates.
unsafe impl GlobalAlloc for PlaneCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PlaneCounter = PlaneCounter;

/// This thread's plane-sized allocations so far.
fn count() -> usize {
    COUNT.with(Cell::get)
}

/// A static trial with a range-detector repair inside it, on a trained
/// 12-agent GridWorld fleet, on the int8 surface (the policy's deployed
/// format) and on raw f32. On f32 the fault sampler's bitset also takes
/// a plane: it holds one bit per exposed bit, 32 per weight.
#[test]
fn a_static_trial_allocates_one_plane_per_agent() {
    let n = 12;
    let mut sys = GridFrlSystem::new(GridSystemConfig {
        n_agents: n,
        seed: 7,
        epsilon_decay_episodes: 20,
        ..Default::default()
    })
    .expect("valid config");
    let mut ctx = BatchInferCtx::new();
    sys.train(40, None, &mut ctx).expect("training");
    let detectors: Vec<RangeDetector> =
        (0..n).map(|i| RangeDetector::fit(sys.agent(i).network())).collect();
    // Warm the arena, so that its planes are not counted.
    sys.success_rate(&mut ctx);
    let plane_bytes = sys.agent(0).network().param_count() * std::mem::size_of::<f32>();
    let ber = fault::Ber::new(0.01).expect("ber");
    let model = fault::FaultModel::TransientMulti;
    for (repr, sampler_planes) in [(ReprKind::Int8, 0), (ReprKind::F32, 1)] {
        MIN_BYTES.with(|m| m.set(plane_bytes));
        let before = count();
        let (repaired, repair_allocs, eval_allocs) =
            sys.with_faulted_policies(model, ber, repr, 11, |s| {
                let start = count();
                let repaired: usize =
                    (0..n).map(|i| detectors[i].repair(s.agent_mut(i).network_mut())).sum();
                let repair_allocs = count() - start;
                s.success_rate(&mut ctx);
                (repaired, repair_allocs, count() - start - repair_allocs)
            });
        let total = count() - before;
        MIN_BYTES.with(|m| m.set(usize::MAX));
        assert!(repaired > 0, "{repr:?}: the detector repaired nothing");
        assert_eq!(repair_allocs, 0, "{repr:?}: the repair allocated plane-sized buffers");
        assert_eq!(eval_allocs, 0, "{repr:?}: the grouped evaluation allocated planes");
        assert_eq!(total, n * (1 + sampler_planes), "{repr:?}: planes allocated by the trial");
    }
}
