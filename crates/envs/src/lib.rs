//! # frlfi-envs
//!
//! Environment substrate for the FRL-FI reproduction.
//!
//! Two navigation tasks, matching the paper's two computing scales:
//!
//! * [`GridWorld`] — the small-scale task (§IV-A): 10×10 mazes with
//!   `{hell, goal, source, free}` cells, a four-cell neighbourhood
//!   observation and the paper's ±1/±0.1 reward scheme. Twelve standard
//!   layouts arranged as four grids of three environments reproduce
//!   Fig. 2.
//! * [`DroneSim`] — the large-scale task (§IV-B): a synthetic stand-in
//!   for the PEDRA/AirSim platform. A drone flies down an obstacle-filled
//!   corridor, observes a raycast **depth image** from its front-facing
//!   sensor, picks one of 25 motion primitives, earns a depth-based
//!   reward, and is scored by *safe flight distance* until collision.
//!   (See DESIGN.md for why this substitution preserves the paper's
//!   fault-propagation behaviour.)
//!
//! Both implement the object-safe [`Environment`] trait consumed by the
//! RL and federated layers.
//!
//! ```
//! use frlfi_envs::{Environment, GridWorld};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut env = GridWorld::standard_layouts(7)[0].clone();
//! let mut rng = StdRng::seed_from_u64(0);
//! let obs = env.reset(&mut rng);
//! assert_eq!(obs.len(), 6);
//! let step = env.step(0, &mut rng);
//! assert!(step.reward <= 1.0);
//! ```

mod drone;
mod env;
mod geometry;
mod gridworld;
mod layouts;

pub use drone::{DroneConfig, DroneSim, ObstacleMotion};
pub use env::{Environment, Outcome, Step};
pub use geometry::{Aabb, Ray};
pub use gridworld::{Cell, GridWorld, GRID_SIZE};
pub use layouts::{standard_layout_specs, LayoutSpec};
