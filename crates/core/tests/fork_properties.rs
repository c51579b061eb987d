//! Property: forking a fault-free prefix and training the suffix is the
//! unforked run, bit for bit.
//!
//! Each case draws a GridWorld or DroneNav fleet of 2–4 agents, per-round
//! dropout (none, 0.2 or 0.5), checkpoint mitigation (off, or a
//! `(p, k, interval)` triple), an injection plan (none, or agent side or
//! server side at some episode, with a BER that may be 0) and a fork
//! stop at or before the plan's episode. The fleet trains once straight
//! through and once as prefix → [`Fleet::fork`] → suffix; the two must
//! agree on every agent's weights and learner state, the fault records,
//! the mitigation counters and the evaluated value. A case without a
//! plan also trains straight through under a second drawn fault seed:
//! with nothing to inject, the fault seed must change nothing.
//!
//! Cases are drawn at smoke sizes so the default case count runs in the
//! workspace tests; `PROPTEST_CASES` raises it. A failing case prints
//! its seed, and the same test replays the same cases.

use frlfi::envs::Environment;
use frlfi::fault::Ber;
use frlfi::nn::BatchInferCtx;
use frlfi::rl::Learner;
use frlfi::{
    DroneFrlSystem, DroneSystemConfig, Fleet, FleetConfig, GridFrlSystem, GridSystemConfig,
    InjectionPlan, TrainingMitigation,
};
use proptest::prelude::*;

/// One drawn configuration.
#[derive(Debug, Clone, Copy)]
struct Case {
    drone: bool,
    agents: usize,
    dropout: Option<f32>,
    mitigation: Option<TrainingMitigation>,
    plan: Option<InjectionPlan>,
    episodes: usize,
    stop: usize,
    fault_seed: u64,
    other_seed: u64,
}

/// The system, its size, dropout and mitigation.
fn fleet() -> impl Strategy<Value = (bool, usize, Option<f32>, Option<TrainingMitigation>)> {
    let mitigation = (0usize..2, 5.0f32..30.0, 1usize..4, 1usize..4).prop_map(|(on, p, k, i)| {
        (on == 1).then_some(TrainingMitigation {
            p_percent: p,
            k_consecutive: k,
            checkpoint_interval: i,
        })
    });
    let dropout = (0usize..3).prop_map(|i| [None, Some(0.2), Some(0.5)][i]);
    // At least two agents: a lone agent has no server, and the system
    // constructors refuse mitigation without one. A draw of one agent
    // must also draw mitigation off.
    (any::<bool>(), 2usize..5, dropout, mitigation)
}

/// The plan and the fork stop, over `episodes` episodes.
fn schedule(episodes: usize) -> impl Strategy<Value = (Option<InjectionPlan>, usize)> {
    let plan =
        (0usize..3, 0..episodes, 0usize..2, 0.0f64..0.2).prop_map(|(side, at, zero, ber)| {
            let ber = Ber::new(if zero == 1 { 0.0 } else { ber }).expect("valid BER");
            [None, Some(InjectionPlan::agent(at, ber)), Some(InjectionPlan::server(at, ber))][side]
        });
    (plan, 0.0f64..1.0).prop_map(move |(plan, frac)| {
        // The prefix must be fault-free: fork at or before the injection.
        let last = plan.map_or(episodes, |p| p.episode);
        (plan, (frac * (last + 1) as f64) as usize)
    })
}

fn case() -> impl Strategy<Value = Case> {
    let seeds = (any::<u64>(), any::<u64>());
    (fleet(), seeds).prop_flat_map(|((drone, agents, dropout, mitigation), seeds)| {
        let (fault_seed, other_seed) = seeds;
        let episodes = if drone { 6 } else { 24 };
        schedule(episodes).prop_map(move |(plan, stop)| Case {
            drone,
            agents,
            dropout,
            mitigation,
            plan,
            episodes,
            stop,
            fault_seed,
            other_seed,
        })
    })
}

/// Trains `c` from `fresh()` straight through and as prefix → fork →
/// suffix; without a plan, also straight through under `c.other_seed`.
/// Returns the fleets, the straight-through run first: every later one
/// must equal it.
fn runs<C: FleetConfig>(
    c: &Case,
    fresh: impl Fn() -> Fleet<C::Learner, C::Env, C>,
    ctx: &mut BatchInferCtx,
) -> Vec<Fleet<C::Learner, C::Env, C>> {
    let straight = |seed, ctx: &mut BatchInferCtx| {
        let mut whole = fresh();
        whole.reseed_faults(seed);
        whole.train(c.episodes, c.plan.as_ref(), ctx).expect("training");
        whole
    };
    let whole = straight(c.fault_seed, ctx);

    let mut prefix = fresh();
    prefix.train(c.stop, None, ctx).expect("prefix training");
    let snapshot = prefix.prefix().expect("a fault-free prefix");
    let mut forked = Fleet::fork(&snapshot, c.fault_seed).expect("fork");
    let shifted = c.plan.map(|p| InjectionPlan { episode: p.episode - c.stop, ..p });
    forked.train(c.episodes - c.stop, shifted.as_ref(), ctx).expect("suffix training");
    let mut fleets = vec![whole, forked];
    if c.plan.is_none() {
        fleets.push(straight(c.other_seed, ctx));
    }
    fleets
}

/// Every agent's weights, the fault records and the mitigation
/// counters, as bits.
type Trace = (Vec<Vec<u32>>, Vec<(usize, u32, u32, u32)>, [usize; 2]);

/// What a fleet's run left behind.
fn trace<L: Learner, E: Environment, C>(s: &Fleet<L, E, C>) -> Trace {
    let weights = (0..s.n_agents())
        .map(|i| s.agent(i).network().snapshot().iter().map(|w| w.to_bits()).collect())
        .collect();
    let records = s
        .last_fault_records()
        .iter()
        .map(|r| (r.index, r.bit, r.before.to_bits(), r.after.to_bits()))
        .collect();
    let m = s.mitigation_stats();
    (weights, records, [m.agent_detections, m.server_detections])
}

proptest! {
    #[test]
    fn fork_then_suffix_equals_the_unforked_run(c in case()) {
        let ctx = &mut BatchInferCtx::new();
        if c.drone {
            let cfg = DroneSystemConfig {
                n_drones: c.agents,
                seed: 5,
                pretrain_episodes: 2,
                train_max_steps: 20,
                dropout: c.dropout,
                mitigation: c.mitigation,
                ..Default::default()
            };
            let fresh = || {
                let mut s = DroneFrlSystem::new(cfg.clone()).expect("valid config");
                s.pretrain().expect("pre-training");
                s
            };
            let mut fleets = runs(&c, fresh, ctx);
            let (whole, others) = fleets.split_first_mut().expect("a straight-through run");
            let value = whole.safe_flight_distance(1, ctx);
            for (k, other) in (1..).zip(others) {
                prop_assert_eq!(trace(whole), trace(other), "run {}, {:?}", k, c);
                for i in 0..c.agents {
                    let (w, f) = (whole.agent(i).baseline(), other.agent(i).baseline());
                    prop_assert_eq!(w.to_bits(), f.to_bits(), "run {} drone {} baseline, {:?}", k, i, c);
                }
                let f = other.safe_flight_distance(1, ctx);
                prop_assert_eq!(value.to_bits(), f.to_bits(), "run {}, {:?}", k, c);
            }
        } else {
            let cfg = GridSystemConfig {
                n_agents: c.agents,
                seed: 77,
                epsilon_decay_episodes: 12,
                dropout: c.dropout,
                mitigation: c.mitigation,
                ..Default::default()
            };
            let fresh = || GridFrlSystem::new(cfg.clone()).expect("valid config");
            let mut fleets = runs(&c, fresh, ctx);
            let (whole, others) = fleets.split_first_mut().expect("a straight-through run");
            let value = whole.success_rate(ctx);
            for (k, other) in (1..).zip(others) {
                prop_assert_eq!(trace(whole), trace(other), "run {}, {:?}", k, c);
                let f = other.success_rate(ctx);
                prop_assert_eq!(value.to_bits(), f.to_bits(), "run {}, {:?}", k, c);
            }
        }
    }
}
