use crate::env::{Environment, Outcome, Step};
use crate::geometry::{Aabb, Ray};
use frlfi_tensor::{derive_seed, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Horizontal resolution of the raycast depth image.
pub(crate) const DEPTH_W: usize = 16;
/// Vertical resolution of the raycast depth image.
pub(crate) const DEPTH_H: usize = 9;
/// DroneNav's action count: 5 lateral × 5 vertical motion primitives
/// (the paper uses a 25-action perception-based probabilistic space).
pub(crate) const N_DRONE_ACTIONS: usize = 25;

const LATERAL_OFFSETS: [f32; 5] = [-2.0, -1.0, 0.0, 1.0, 2.0];
const VERTICAL_OFFSETS: [f32; 5] = [-1.0, -0.5, 0.0, 0.5, 1.0];

/// Obstacle-motion parameters of the dynamic-obstacle scenario: every
/// obstacle oscillates sinusoidally around its base position in the
/// `(y, z)` plane, along a per-obstacle seed-derived direction with a
/// seed-derived phase. Positions are a pure function of the step
/// counter, so an episode's whole obstacle trajectory is deterministic
/// in `(config, base_seed, episode)` — the drone analogue of
/// `GridWorld::with_dynamic_obstacles`'s jitter contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObstacleMotion {
    /// Peak displacement from the base position (m); must be finite.
    pub amplitude: f32,
    /// Oscillation period in environment steps; must be a finite
    /// positive number ([`DroneSim::new`] asserts this).
    pub period: f32,
}

impl Default for ObstacleMotion {
    fn default() -> Self {
        // A couple of metres over ~24 steps: fast enough that a policy
        // frozen on the static world visibly degrades, slow enough to
        // remain evadable at one primitive per step.
        ObstacleMotion { amplitude: 2.0, period: 24.0 }
    }
}

/// Tunable parameters of the synthetic drone corridor world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroneConfig {
    /// Corridor width (m); the drone flies in `y ∈ [−w/2, w/2]`.
    pub corridor_width: f32,
    /// Corridor height (m); `z ∈ [0, h]`.
    pub corridor_height: f32,
    /// Forward distance per step (m).
    pub speed: f32,
    /// Maximum depth-sensor range (m); depths normalize against this.
    pub max_range: f32,
    /// Obstacles generated per corridor chunk.
    pub obstacles_per_chunk: usize,
    /// Length of one procedural chunk (m).
    pub chunk_len: f32,
    /// Step budget; max safe flight distance = `speed × max_steps`.
    pub max_steps: usize,
    /// Drone collision radius (m).
    pub drone_radius: f32,
    /// Moving obstacles (`None` = the paper's static corridors).
    pub dynamic: Option<ObstacleMotion>,
}

impl Default for DroneConfig {
    fn default() -> Self {
        DroneConfig {
            corridor_width: 24.0,
            corridor_height: 12.0,
            speed: 2.0,
            max_range: 40.0,
            obstacles_per_chunk: 5,
            chunk_len: 40.0,
            // 361 steps × 2 m ≈ the paper's ~722 m flight-distance ceiling.
            max_steps: 361,
            drone_radius: 0.4,
            dynamic: None,
        }
    }
}

/// The paper's large-scale task (§IV-B): synthetic drone corridor
/// navigation, substituting for the PEDRA/AirSim platform.
///
/// The drone advances at constant forward speed through a procedurally
/// generated obstacle corridor. Each step it renders a raycast depth
/// image (`DEPTH_H`×`DEPTH_W`) from its front-facing sensor, picks
/// one of `N_DRONE_ACTIONS` motion primitives, and earns a depth-based
/// reward that encourages keeping clear of obstacles. An episode ends on
/// collision (with an obstacle or a corridor wall) or when the step
/// budget runs out; the score is the **safe flight distance**.
///
/// ```
/// use frlfi_envs::{DroneSim, DroneConfig, Environment};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut env = DroneSim::new(DroneConfig::default(), 7);
/// let mut rng = StdRng::seed_from_u64(0);
/// let obs = env.reset(&mut rng);
/// assert_eq!(obs.shape().dims(), &[1, 9, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct DroneSim {
    cfg: DroneConfig,
    base_seed: u64,
    world_seed: u64,
    pos: [f32; 3],
    steps: usize,
    chunks: HashMap<i64, Vec<ChunkObstacle>>,
    /// Scratch: every obstacle within sensor reach at the current
    /// position and step, as `fill_nearby` last built it. A step builds
    /// it once for both its collision test and its render.
    nearby: Vec<Aabb>,
    /// Scratch: the boxes of `nearby` the render's rays can hit.
    visible: Vec<Aabb>,
}

/// One generated obstacle: its base box plus (in dynamic mode) the
/// seed-derived oscillation direction and phase.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ChunkObstacle {
    base: Aabb,
    /// Unit oscillation direction in the `(y, z)` plane.
    dir: [f32; 2],
    /// Oscillation phase offset (radians).
    phase: f32,
}

impl ChunkObstacle {
    fn fixed(base: Aabb) -> Self {
        ChunkObstacle { base, dir: [0.0, 0.0], phase: 0.0 }
    }

    /// The obstacle's box at `step` under `motion`. The static path
    /// returns the base box untouched (no float arithmetic), so static
    /// worlds stay bit-identical to the pre-dynamic-mode build.
    fn at(&self, motion: Option<ObstacleMotion>, step: usize) -> Aabb {
        let Some(m) = motion else { return self.base };
        let angle = std::f32::consts::TAU * step as f32 / m.period + self.phase;
        let off = m.amplitude * angle.sin();
        let (dy, dz) = (off * self.dir[0], off * self.dir[1]);
        Aabb {
            min: [self.base.min[0], self.base.min[1] + dy, self.base.min[2] + dz],
            max: [self.base.max[0], self.base.max[1] + dy, self.base.max[2] + dz],
        }
    }
}

impl DroneSim {
    /// Creates a simulator; worlds are derived from `base_seed` so two
    /// sims with the same seed experience identical corridors.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.dynamic` carries a non-finite amplitude or a
    /// period that is not a finite positive number — a zero period
    /// would make every obstacle position NaN, silently disabling
    /// collisions.
    pub fn new(cfg: DroneConfig, base_seed: u64) -> Self {
        if let Some(m) = cfg.dynamic {
            assert!(
                m.amplitude.is_finite() && m.period.is_finite() && m.period > 0.0,
                "invalid obstacle motion: amplitude {} period {}",
                m.amplitude,
                m.period
            );
        }
        DroneSim {
            cfg,
            base_seed,
            world_seed: base_seed,
            pos: [0.0, 0.0, cfg.corridor_height / 2.0],
            steps: 0,
            chunks: HashMap::new(),
            nearby: Vec::new(),
            visible: Vec::new(),
        }
    }

    /// Forward distance travelled so far this episode (m) — the paper's
    /// *safe flight distance* once the episode terminates.
    pub fn distance(&self) -> f32 {
        self.pos[0]
    }

    fn chunk_obstacles(&mut self, chunk: i64) -> &[ChunkObstacle] {
        let cfg = self.cfg;
        let world_seed = self.world_seed;
        self.chunks.entry(chunk).or_insert_with(|| {
            if chunk < 1 {
                // The spawn chunk stays clear so episodes never start
                // inside an obstacle.
                return Vec::new();
            }
            let chunk_seed = derive_seed(world_seed, chunk as u64);
            let mut rng = StdRng::seed_from_u64(chunk_seed);
            // Motion parameters come from their own derived stream so
            // dynamic mode moves the *same* base corridor the static
            // mode generates (the drone analogue of GridWorld jittering
            // around its standard layout), and the static box stream —
            // which golden campaign values pin — is untouched.
            let mut motion_rng = StdRng::seed_from_u64(derive_seed(chunk_seed, 0xA071_0000));
            let x0 = chunk as f32 * cfg.chunk_len;
            (0..cfg.obstacles_per_chunk)
                .map(|_| {
                    let cx = x0 + rng.gen_range(0.0..cfg.chunk_len);
                    let cy = rng.gen_range(-cfg.corridor_width / 2.0..cfg.corridor_width / 2.0);
                    let cz = rng.gen_range(0.0..cfg.corridor_height);
                    let sx = rng.gen_range(0.5..1.5);
                    let sy = rng.gen_range(1.0..3.0);
                    let sz = rng.gen_range(1.0..3.0);
                    let base = Aabb::new([cx - sx, cy - sy, cz - sz], [cx + sx, cy + sy, cz + sz]);
                    if cfg.dynamic.is_some() {
                        let theta = motion_rng.gen_range(0.0..std::f32::consts::TAU);
                        let phase = motion_rng.gen_range(0.0..std::f32::consts::TAU);
                        ChunkObstacle { base, dir: [theta.cos(), theta.sin()], phase }
                    } else {
                        ChunkObstacle::fixed(base)
                    }
                })
                .collect()
        })
    }

    /// Rebuilds `nearby`: all obstacles within sensor reach,
    /// materialized at the current step (dynamic obstacles at their
    /// current oscillation offset), chunk by chunk.
    fn fill_nearby(&mut self) {
        let chunk_len = self.cfg.chunk_len;
        let cur = (self.pos[0] / chunk_len).floor() as i64;
        let reach = (self.cfg.max_range / chunk_len).ceil() as i64 + 1;
        let motion = self.cfg.dynamic;
        let step = self.steps;
        let mut out = std::mem::take(&mut self.nearby);
        out.clear();
        for c in cur..=cur + reach {
            out.extend(self.chunk_obstacles(c).iter().map(|o| o.at(motion, step)));
        }
        self.nearby = out;
    }

    /// Renders the raycast depth image at the current position.
    pub fn render_depth(&mut self) -> Tensor {
        self.fill_nearby();
        self.render_nearby()
    }

    /// [`DroneSim::render_depth`] over `nearby` as built at the current
    /// position and step.
    fn render_nearby(&mut self) -> Tensor {
        let cfg = self.cfg;
        let origin = self.pos;
        // Every ray points forward (`dir.x > 0`, `1 / dir.x >= 1`), so a
        // box behind the drone misses every ray, and one starting past
        // the sensor range is hit, if at all, beyond it.
        self.visible.clear();
        self.visible.extend(
            self.nearby
                .iter()
                .filter(|b| !(b.max[0] < origin[0] || b.min[0] - origin[0] > cfg.max_range)),
        );
        let mut img = Tensor::zeros(vec![1, DEPTH_H, DEPTH_W]);
        for (px, &(dir, inv)) in img.data_mut().iter_mut().zip(depth_rays()) {
            let ray = Ray { origin, dir };
            let mut depth = cfg.max_range;
            for b in &self.visible {
                if let Some(t) = ray.hit_inv(&inv, b) {
                    depth = depth.min(t);
                }
            }
            depth = depth.min(wall_distance(&ray, &cfg));
            *px = depth / cfg.max_range;
        }
        img
    }

    fn depth_reward(&self, img: &Tensor) -> f32 {
        // Minimum normalized depth over the central 3×3 patch: flying
        // toward open space earns more (the paper's depth-based reward).
        let data = img.data();
        let cy = DEPTH_H / 2;
        let cx = DEPTH_W / 2;
        let mut min_d = f32::INFINITY;
        for dy in -1i32..=1 {
            for dx in -1i32..=1 {
                let y = (cy as i32 + dy) as usize;
                let x = (cx as i32 + dx) as usize;
                min_d = min_d.min(data[y * DEPTH_W + x]);
            }
        }
        min_d
    }

    /// Whether the drone hits a wall or a box of `nearby` as built at
    /// the current position and step.
    fn collided(&self) -> bool {
        let r = self.cfg.drone_radius;
        let half_w = self.cfg.corridor_width / 2.0;
        let h = self.cfg.corridor_height;
        let p = self.pos;
        if p[1] - r < -half_w || p[1] + r > half_w || p[2] - r < 0.0 || p[2] + r > h {
            return true;
        }
        self.nearby.iter().any(|b| b.inflate(r).contains(p))
    }
}

/// The depth sensor's pixel ray directions, row-major, each with its
/// reciprocal: computed once per process, as they depend only on
/// `DEPTH_H` and `DEPTH_W`.
fn depth_rays() -> &'static [([f32; 3], [f32; 3]); DEPTH_H * DEPTH_W] {
    static RAYS: OnceLock<[([f32; 3], [f32; 3]); DEPTH_H * DEPTH_W]> = OnceLock::new();
    RAYS.get_or_init(|| {
        std::array::from_fn(|px| {
            let dir = pixel_dir(px / DEPTH_W, px % DEPTH_W);
            (dir, dir.map(|d| 1.0 / d))
        })
    })
}

/// The direction of pixel `(iy, ix)`'s ray.
fn pixel_dir(iy: usize, ix: usize) -> [f32; 3] {
    // Elevation from +30° (top row) to −30° (bottom row).
    let elev = (0.5 - (iy as f32 + 0.5) / DEPTH_H as f32) * std::f32::consts::FRAC_PI_3 * 2.0;
    // Azimuth from −45° (left) to +45° (right).
    let azim = ((ix as f32 + 0.5) / DEPTH_W as f32 - 0.5) * std::f32::consts::FRAC_PI_2;
    [elev.cos() * azim.cos(), elev.cos() * azim.sin(), elev.sin()]
}

/// Distance along a ray to the corridor walls (sides, floor, ceiling).
fn wall_distance(ray: &Ray, cfg: &DroneConfig) -> f32 {
    let mut best = f32::INFINITY;
    let half_w = cfg.corridor_width / 2.0;
    // Side walls: y = ±half_w.
    for wall_y in [-half_w, half_w] {
        if ray.dir[1].abs() > 1e-9 {
            let t = (wall_y - ray.origin[1]) / ray.dir[1];
            if t > 0.0 {
                best = best.min(t);
            }
        }
    }
    // Floor z = 0 and ceiling z = h.
    for wall_z in [0.0, cfg.corridor_height] {
        if ray.dir[2].abs() > 1e-9 {
            let t = (wall_z - ray.origin[2]) / ray.dir[2];
            if t > 0.0 {
                best = best.min(t);
            }
        }
    }
    best
}

impl Environment for DroneSim {
    fn obs_shape(&self) -> Vec<usize> {
        vec![1, DEPTH_H, DEPTH_W]
    }

    fn n_actions(&self) -> usize {
        N_DRONE_ACTIONS
    }

    fn reset(&mut self, rng: &mut dyn RngCore) -> Tensor {
        // Fresh procedural corridor each episode, reproducible from the
        // caller's seeded RNG stream.
        self.world_seed = derive_seed(self.base_seed, rng.next_u64());
        self.chunks.clear();
        self.pos = [0.0, 0.0, self.cfg.corridor_height / 2.0];
        self.steps = 0;
        self.render_depth()
    }

    fn step(&mut self, action: usize, _rng: &mut dyn RngCore) -> Step {
        assert!(action < N_DRONE_ACTIONS, "action {action} out of range");
        let dy = LATERAL_OFFSETS[action / 5];
        let dz = VERTICAL_OFFSETS[action % 5];
        self.pos[0] += self.cfg.speed;
        self.pos[1] += dy;
        self.pos[2] += dz;
        self.steps += 1;

        self.fill_nearby();
        if self.collided() {
            return Step { state: self.render_nearby(), reward: -2.0, outcome: Outcome::Crash };
        }
        let img = self.render_nearby();
        let reward = self.depth_reward(&img);
        let outcome =
            if self.steps >= self.cfg.max_steps { Outcome::Timeout } else { Outcome::Continue };
        Step { state: img, reward, outcome }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DroneSim {
        /// A copy of the obstacles within sensor reach at the current
        /// position and step.
        fn nearby_obstacles(&mut self) -> Vec<Aabb> {
            self.fill_nearby();
            self.nearby.clone()
        }
    }

    fn sim() -> DroneSim {
        DroneSim::new(DroneConfig::default(), 42)
    }

    #[test]
    fn reset_shape_and_determinism() {
        let mut a = sim();
        let mut b = sim();
        let mut ra = StdRng::seed_from_u64(1);
        let mut rb = StdRng::seed_from_u64(1);
        let oa = a.reset(&mut ra);
        let ob = b.reset(&mut rb);
        assert_eq!(oa.shape().dims(), &[1, DEPTH_H, DEPTH_W]);
        assert_eq!(oa, ob, "same seeds must produce identical worlds");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DroneSim::new(DroneConfig::default(), 1);
        let mut b = DroneSim::new(DroneConfig::default(), 2);
        let mut ra = StdRng::seed_from_u64(1);
        let mut rb = StdRng::seed_from_u64(1);
        a.reset(&mut ra);
        b.reset(&mut rb);
        assert_ne!(a.chunk_obstacles(1).to_vec(), b.chunk_obstacles(1).to_vec());
    }

    fn dynamic_cfg() -> DroneConfig {
        DroneConfig { dynamic: Some(ObstacleMotion::default()), ..DroneConfig::default() }
    }

    fn hell_boxes(s: &mut DroneSim) -> Vec<Aabb> {
        s.nearby_obstacles()
    }

    #[test]
    fn dynamic_mode_keeps_base_geometry_and_moves_obstacles() {
        // Same seed, static vs dynamic: chunk *base* boxes are drawn
        // from the same stream, so at step 0 with phase-displaced
        // offsets only the positions differ — and across steps the
        // dynamic boxes actually move while static ones never do.
        let mut st = DroneSim::new(DroneConfig::default(), 17);
        let mut dy = DroneSim::new(dynamic_cfg(), 17);
        let mut r1 = StdRng::seed_from_u64(2);
        let mut r2 = StdRng::seed_from_u64(2);
        st.reset(&mut r1);
        dy.reset(&mut r2);
        let st_bases: Vec<Aabb> = st.chunk_obstacles(1).iter().map(|o| o.base).collect();
        let dy_bases: Vec<Aabb> = dy.chunk_obstacles(1).iter().map(|o| o.base).collect();
        assert_eq!(st_bases, dy_bases, "dynamic mode must not disturb the base-box stream");

        let before = hell_boxes(&mut dy);
        let st_before = hell_boxes(&mut st);
        // Advance the step counter only (position math aside, motion is
        // a pure function of `steps`).
        dy.steps += 7;
        st.steps += 7;
        assert_ne!(before, hell_boxes(&mut dy), "dynamic obstacles must move between steps");
        assert_eq!(st_before, hell_boxes(&mut st), "static obstacles must never move");
    }

    #[test]
    fn dynamic_obstacles_change_the_depth_image_over_time() {
        // Hold the drone still (fixed position, dense obstacle field in
        // sensor range) and advance the clock: the rendered depth image
        // must change — motion is surfaced through the sensor, not just
        // the collision test.
        let cfg = DroneConfig { obstacles_per_chunk: 12, ..dynamic_cfg() };
        let mut s = DroneSim::new(cfg, 23);
        let mut rng = StdRng::seed_from_u64(23);
        s.reset(&mut rng);
        s.pos[0] = 45.0; // inside chunk 1, obstacles within the 40 m range
        let at0 = s.render_depth();
        s.steps += 9;
        let at9 = s.render_depth();
        assert_ne!(at0.data(), at9.data(), "depth image must track obstacle motion");
    }

    #[test]
    fn dynamic_worlds_are_deterministic_per_seed_and_episode() {
        let run = |seed: u64| -> Vec<Vec<f32>> {
            let mut s = DroneSim::new(dynamic_cfg(), seed);
            let mut rng = StdRng::seed_from_u64(1);
            let mut frames = Vec::new();
            for _ in 0..3 {
                // episodes
                let obs = s.reset(&mut rng);
                frames.push(obs.data().to_vec());
                for _ in 0..5 {
                    let st = s.step(12, &mut rng);
                    frames.push(st.state.data().to_vec());
                    if st.outcome.is_terminal() {
                        break;
                    }
                }
            }
            frames
        };
        assert_eq!(run(3), run(3), "same (config, seed, episode) ⇒ same trajectory");
        assert_ne!(run(3), run(4), "different base seeds must differ");
    }

    #[test]
    fn oscillation_stays_bounded_around_the_base() {
        let cfg = dynamic_cfg();
        let motion = cfg.dynamic.unwrap();
        let mut s = DroneSim::new(cfg, 31);
        let mut rng = StdRng::seed_from_u64(31);
        s.reset(&mut rng);
        let bases: Vec<Aabb> = s.chunk_obstacles(1).iter().map(|o| o.base).collect();
        for t in 0..60 {
            s.steps = t;
            for (o, base) in s.nearby_obstacles().iter().zip(bases.iter()) {
                // x never moves; y/z stay within the amplitude.
                assert_eq!(o.min[0], base.min[0]);
                for i in 1..3 {
                    assert!((o.min[i] - base.min[i]).abs() <= motion.amplitude + 1e-4);
                }
            }
        }
    }

    #[test]
    fn depths_normalized() {
        let mut s = sim();
        let mut rng = StdRng::seed_from_u64(3);
        let obs = s.reset(&mut rng);
        assert!(obs.data().iter().all(|&d| (0.0..=1.0).contains(&d)));
    }

    #[test]
    fn forward_progress_accumulates() {
        let mut s = sim();
        let mut rng = StdRng::seed_from_u64(4);
        s.reset(&mut rng);
        let straight = 12; // dy = 0, dz = 0
        for _ in 0..3 {
            if s.step(straight, &mut rng).outcome.is_terminal() {
                break;
            }
        }
        assert!(s.distance() >= s.cfg.speed);
    }

    #[test]
    fn wall_collision_crashes() {
        let mut s = sim();
        let mut rng = StdRng::seed_from_u64(5);
        s.reset(&mut rng);
        // Push hard left until the wall.
        let hard_left = 0; // dy = −2, dz = −1
        let mut crashed = false;
        for _ in 0..30 {
            let st = s.step(hard_left, &mut rng);
            if st.outcome == Outcome::Crash {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "flying into the wall must crash");
    }

    #[test]
    fn timeout_caps_distance() {
        let cfg = DroneConfig { max_steps: 5, obstacles_per_chunk: 0, ..DroneConfig::default() };
        let mut s = DroneSim::new(cfg, 6);
        let mut rng = StdRng::seed_from_u64(6);
        s.reset(&mut rng);
        let mut last = Outcome::Continue;
        for _ in 0..10 {
            let st = s.step(12, &mut rng);
            last = st.outcome;
            if last.is_terminal() {
                break;
            }
        }
        assert_eq!(last, Outcome::Timeout);
        assert!((s.distance() - 5.0 * cfg.speed).abs() < 1e-4);
    }

    #[test]
    fn spawn_chunk_is_clear() {
        // With dense obstacles the spawn chunk must still be empty.
        let cfg = DroneConfig { obstacles_per_chunk: 50, ..DroneConfig::default() };
        let mut s = DroneSim::new(cfg, 9);
        let mut rng = StdRng::seed_from_u64(9);
        s.reset(&mut rng);
        assert!(!s.collided(), "drone must not spawn inside an obstacle");
    }

    /// The render as first written: per-pixel trig, every nearby box,
    /// one division per ray, box and axis.
    fn reference_render(s: &mut DroneSim) -> Vec<f32> {
        let cfg = s.cfg;
        let obstacles = s.nearby_obstacles();
        let mut out = Vec::new();
        for iy in 0..DEPTH_H {
            let elev =
                (0.5 - (iy as f32 + 0.5) / DEPTH_H as f32) * std::f32::consts::FRAC_PI_3 * 2.0;
            for ix in 0..DEPTH_W {
                let azim = ((ix as f32 + 0.5) / DEPTH_W as f32 - 0.5) * std::f32::consts::FRAC_PI_2;
                let dir = [elev.cos() * azim.cos(), elev.cos() * azim.sin(), elev.sin()];
                let ray = Ray { origin: s.pos, dir };
                let mut depth = cfg.max_range;
                for b in &obstacles {
                    if let Some(t) = ray.hit(b) {
                        depth = depth.min(t);
                    }
                }
                out.push(depth.min(wall_distance(&ray, &cfg)) / cfg.max_range);
            }
        }
        out
    }

    #[test]
    fn render_matches_the_per_pixel_reference_across_chunk_edges() {
        // Dense corridors, static and moving, with the drone placed
        // around chunk boundaries (boxes just behind it, just inside
        // and just past the sensor range) and anywhere across the
        // corridor's cross-section.
        let mut rng = StdRng::seed_from_u64(77);
        for cfg in [DroneConfig::default(), dynamic_cfg()] {
            let cfg = DroneConfig { obstacles_per_chunk: 16, ..cfg };
            for seed in 0..4 {
                let mut s = DroneSim::new(cfg, seed);
                s.reset(&mut rng);
                for _ in 0..64 {
                    let chunk = rng.gen_range(0..6) as f32;
                    s.pos = [
                        chunk * cfg.chunk_len + rng.gen_range(-4.0..4.0f32),
                        rng.gen_range(-11.0..11.0f32),
                        rng.gen_range(0.5..11.5f32),
                    ];
                    s.steps = rng.gen_range(0..cfg.max_steps);
                    let fast: Vec<u32> =
                        s.render_depth().data().iter().map(|v| v.to_bits()).collect();
                    let slow: Vec<u32> =
                        reference_render(&mut s).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(fast, slow, "pos {:?} step {}", s.pos, s.steps);
                }
            }
        }
    }

    #[test]
    fn obstacle_ahead_reduces_central_depth() {
        let cfg = DroneConfig { obstacles_per_chunk: 0, ..DroneConfig::default() };
        let mut s = DroneSim::new(cfg, 10);
        let mut rng = StdRng::seed_from_u64(10);
        let clear = s.reset(&mut rng);
        // Plant an obstacle dead ahead.
        s.chunks
            .insert(0, vec![ChunkObstacle::fixed(Aabb::new([8.0, -2.0, 4.0], [10.0, 2.0, 8.0]))]);
        let blocked = s.render_depth();
        let c = (DEPTH_H / 2) * DEPTH_W + DEPTH_W / 2;
        assert!(blocked.data()[c] < clear.data()[c]);
    }
}
