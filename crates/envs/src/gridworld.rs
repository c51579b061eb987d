use crate::env::{Environment, Outcome, Step};
use crate::layouts::{standard_layout_specs, LayoutSpec};
use frlfi_tensor::Tensor;
use rand::RngCore;

/// Side length of the square maze (the paper uses 10×10 grids).
pub const GRID_SIZE: usize = 10;

/// GridWorld's action count: up, down, right, left (§IV-A-1).
pub(crate) const N_GRID_ACTIONS: usize = 4;

/// GridWorld observation length: four surrounding cells plus the
/// goal-direction signs (see [`GridWorld`] and DESIGN.md §2).
pub(crate) const OBS_DIM: usize = 6;

/// Maximum steps per attempt before the episode times out.
const MAX_STEPS: usize = 120;

/// The type of a maze cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// Passable cell.
    Free,
    /// Obstacle; entering it crashes the agent (reward −1).
    Hell,
    /// Goal; entering it succeeds (reward +1).
    Goal,
    /// The agent's start cell (passable).
    Source,
}

/// The paper's small-scale navigation task (§IV-A).
///
/// A 10×10 maze whose cells are `{hell, goal, source, free}`. The agent
/// observes the nature of the four surrounding cells (−1 hell, +1 goal,
/// 0 free — out-of-bounds reads as hell) and receives −1 / +1 / +0.1 /
/// −0.1 for crashing / reaching the goal / moving closer / moving away.
///
/// ```
/// use frlfi_envs::{Environment, GridWorld};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut env = GridWorld::standard_layouts(3)[0].clone();
/// let mut rng = StdRng::seed_from_u64(1);
/// env.reset(&mut rng);
/// assert_eq!(env.n_actions(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct GridWorld {
    cells: [[Cell; GRID_SIZE]; GRID_SIZE],
    source: (usize, usize),
    goal: (usize, usize),
    agent: (usize, usize),
    steps: usize,
    /// When set, obstacles re-jitter around the base layout on every
    /// reset (dynamic-obstacle scenario).
    dynamic: Option<DynamicObstacles>,
}

/// Dynamic-obstacle configuration: each reset, every obstacle of the
/// base layout shifts by up to `jitter` cells per axis (re-drawn until
/// the maze stays solvable).
#[derive(Debug, Clone)]
struct DynamicObstacles {
    base: LayoutSpec,
    jitter: usize,
}

impl GridWorld {
    /// Builds a maze from a layout spec.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range or source == goal; layout
    /// specs from [`standard_layout_specs`] are always valid.
    pub fn from_spec(spec: &LayoutSpec) -> Self {
        assert!(spec.source.0 < GRID_SIZE && spec.source.1 < GRID_SIZE, "source out of range");
        assert!(spec.goal.0 < GRID_SIZE && spec.goal.1 < GRID_SIZE, "goal out of range");
        assert_ne!(spec.source, spec.goal, "source and goal must differ");
        let mut cells = [[Cell::Free; GRID_SIZE]; GRID_SIZE];
        for &(r, c) in &spec.hells {
            cells[r][c] = Cell::Hell;
        }
        cells[spec.source.0][spec.source.1] = Cell::Source;
        cells[spec.goal.0][spec.goal.1] = Cell::Goal;
        GridWorld {
            cells,
            source: spec.source,
            goal: spec.goal,
            agent: spec.source,
            steps: 0,
            dynamic: None,
        }
    }

    /// Builds a maze whose obstacles re-jitter around `spec` by up to
    /// `jitter` cells per axis on every [`Environment::reset`] — the
    /// dynamic-obstacle scenario variant. Jittered layouts are re-drawn
    /// (bounded attempts) until solvable; the base layout is the
    /// fallback, so every episode is winnable.
    ///
    /// The jitter draws from the `reset` rng, so episode layouts are a
    /// deterministic function of the caller's exploration stream.
    ///
    /// # Panics
    ///
    /// As for [`GridWorld::from_spec`].
    pub fn with_dynamic_obstacles(spec: &LayoutSpec, jitter: usize) -> Self {
        let mut world = GridWorld::from_spec(spec);
        world.dynamic = Some(DynamicObstacles { base: spec.clone(), jitter });
        world
    }

    /// Replaces the obstacle set with a solvable jitter of the base
    /// layout.
    fn rejitter(&mut self, rng: &mut dyn RngCore) {
        use rand::Rng;
        let Some(dynamic) = self.dynamic.clone() else { return };
        let j = dynamic.jitter as isize;
        let base = &dynamic.base;
        let free_for = |hells: &[(usize, usize)], cand: (usize, usize)| {
            cand != base.source && cand != base.goal && !hells.contains(&cand)
        };
        for _attempt in 0..8 {
            let mut hells: Vec<(usize, usize)> = Vec::with_capacity(base.hells.len());
            for &(r, c) in &base.hells {
                let mut placed = None;
                for _try in 0..4 {
                    let nr = r as isize + rng.gen_range(-j..=j);
                    let nc = c as isize + rng.gen_range(-j..=j);
                    if nr < 0 || nc < 0 || nr as usize >= GRID_SIZE || nc as usize >= GRID_SIZE {
                        continue;
                    }
                    let cand = (nr as usize, nc as usize);
                    if free_for(&hells, cand) {
                        placed = Some(cand);
                        break;
                    }
                }
                // Fall back to the base cell, and if another jittered
                // obstacle took it, to the first free cell — the
                // obstacle count never shrinks (difficulty would drift).
                let placed =
                    placed.or_else(|| free_for(&hells, (r, c)).then_some((r, c))).or_else(|| {
                        (0..GRID_SIZE * GRID_SIZE)
                            .map(|i| (i / GRID_SIZE, i % GRID_SIZE))
                            .find(|&cand| free_for(&hells, cand))
                    });
                if let Some(placed) = placed {
                    hells.push(placed);
                }
            }
            let spec = LayoutSpec { source: base.source, goal: base.goal, hells };
            if spec.hells.len() == base.hells.len() && crate::layouts::is_solvable(&spec) {
                self.install_hells(&spec.hells);
                return;
            }
        }
        // Fallback: the validated base layout.
        self.install_hells(&base.hells);
    }

    fn install_hells(&mut self, hells: &[(usize, usize)]) {
        self.cells = [[Cell::Free; GRID_SIZE]; GRID_SIZE];
        for &(r, c) in hells {
            self.cells[r][c] = Cell::Hell;
        }
        self.cells[self.source.0][self.source.1] = Cell::Source;
        self.cells[self.goal.0][self.goal.1] = Cell::Goal;
    }

    /// The 12 standard mazes for a master seed (paper Fig. 2: four grids
    /// of three environments each).
    pub fn standard_layouts(master_seed: u64) -> Vec<GridWorld> {
        standard_layout_specs(master_seed, 12).iter().map(GridWorld::from_spec).collect()
    }

    /// The cell type at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cell(&self, row: usize, col: usize) -> Cell {
        self.cells[row][col]
    }

    /// Encodes the observation at the agent position: the nature of the
    /// four surrounding cells (−1 hell / +1 goal / 0 free, order up,
    /// down, right, left — matching the action order) plus the sign of
    /// the displacement to the goal.
    ///
    /// The paper describes a pure four-cell observation (§IV-A-1), but
    /// that observation is fully state-aliased — every open cell looks
    /// identical — so no memoryless policy could reach the paper's ~98%
    /// success rate with it. The two goal-direction features restore
    /// learnability while keeping the state space finite
    /// (3⁴ × 3² = 729 states); see DESIGN.md §2.
    fn observe(&self) -> Tensor {
        let (r, c) = self.agent;
        let peek = |r: isize, cc: isize| -> f32 {
            if r < 0 || cc < 0 || r as usize >= GRID_SIZE || cc as usize >= GRID_SIZE {
                -1.0 // walls read as hell so policies avoid leaving the maze
            } else {
                match self.cells[r as usize][cc as usize] {
                    Cell::Hell => -1.0,
                    Cell::Goal => 1.0,
                    Cell::Free | Cell::Source => 0.0,
                }
            }
        };
        let (ri, ci) = (r as isize, c as isize);
        let drow = (self.goal.0 as isize - ri).signum() as f32;
        let dcol = (self.goal.1 as isize - ci).signum() as f32;
        let obs = vec![
            peek(ri - 1, ci),
            peek(ri + 1, ci),
            peek(ri, ci + 1),
            peek(ri, ci - 1),
            drow,
            dcol,
        ];
        Tensor::from_vec(vec![OBS_DIM], obs).expect("fixed-size observation")
    }

    /// Which of the four actions *improve* from `(row, col)`: the move
    /// stays in bounds, avoids hell, and reduces the Manhattan distance
    /// to the goal (reaching the goal counts). Used by the
    /// consensus-policy differentiation analysis (Table I).
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn improving_actions(&self, row: usize, col: usize) -> [bool; 4] {
        assert!(row < GRID_SIZE && col < GRID_SIZE, "cell out of range");
        let cur = self.manhattan_to_goal((row, col));
        let (ri, ci) = (row as isize, col as isize);
        let moves = [(ri - 1, ci), (ri + 1, ci), (ri, ci + 1), (ri, ci - 1)];
        moves.map(|(nr, nc)| {
            if nr < 0 || nc < 0 || nr as usize >= GRID_SIZE || nc as usize >= GRID_SIZE {
                return false;
            }
            let np = (nr as usize, nc as usize);
            !matches!(self.cells[np.0][np.1], Cell::Hell) && self.manhattan_to_goal(np) < cur
        })
    }

    /// The observation an agent would receive standing at `(row, col)`.
    ///
    /// Used by the consensus-policy analysis (Table I) to sample the
    /// state space without disturbing the live episode.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn observation_at(&self, row: usize, col: usize) -> Tensor {
        assert!(row < GRID_SIZE && col < GRID_SIZE, "cell out of range");
        let mut probe = self.clone();
        probe.agent = (row, col);
        probe.observe()
    }

    fn manhattan_to_goal(&self, p: (usize, usize)) -> usize {
        p.0.abs_diff(self.goal.0) + p.1.abs_diff(self.goal.1)
    }
}

impl Environment for GridWorld {
    fn obs_shape(&self) -> Vec<usize> {
        vec![OBS_DIM]
    }

    fn n_actions(&self) -> usize {
        N_GRID_ACTIONS
    }

    fn reset(&mut self, rng: &mut dyn RngCore) -> Tensor {
        if self.dynamic.is_some() {
            self.rejitter(rng);
        }
        self.agent = self.source;
        self.steps = 0;
        self.observe()
    }

    fn step(&mut self, action: usize, _rng: &mut dyn RngCore) -> Step {
        assert!(action < N_GRID_ACTIONS, "action {action} out of range");
        let (r, c) = self.agent;
        let (ri, ci) = (r as isize, c as isize);
        let (nr, nc) = match action {
            0 => (ri - 1, ci), // up
            1 => (ri + 1, ci), // down
            2 => (ri, ci + 1), // right
            _ => (ri, ci - 1), // left
        };
        self.steps += 1;
        let prev_dist = self.manhattan_to_goal((r, c));

        // Leaving the maze counts as crashing into a wall.
        if nr < 0 || nc < 0 || nr as usize >= GRID_SIZE || nc as usize >= GRID_SIZE {
            return Step { state: self.observe(), reward: -1.0, outcome: Outcome::Crash };
        }
        let np = (nr as usize, nc as usize);
        match self.cells[np.0][np.1] {
            Cell::Hell => Step { state: self.observe(), reward: -1.0, outcome: Outcome::Crash },
            Cell::Goal => {
                self.agent = np;
                Step { state: self.observe(), reward: 1.0, outcome: Outcome::Goal }
            }
            Cell::Free | Cell::Source => {
                self.agent = np;
                let outcome =
                    if self.steps >= MAX_STEPS { Outcome::Timeout } else { Outcome::Continue };
                let reward = if self.manhattan_to_goal(np) < prev_dist { 0.1 } else { -0.1 };
                Step { state: self.observe(), reward, outcome }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layouts::LayoutSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn open_world() -> GridWorld {
        GridWorld::from_spec(&LayoutSpec { source: (5, 5), goal: (0, 5), hells: vec![] })
    }

    #[test]
    fn reset_returns_neighbourhood() {
        let mut w = open_world();
        let mut rng = StdRng::seed_from_u64(0);
        let obs = w.reset(&mut rng);
        assert_eq!(&obs.data()[..4], &[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(&obs.data()[4..], &[-1.0, 0.0]); // goal straight up
    }

    #[test]
    fn moving_toward_goal_rewards() {
        let mut w = open_world();
        let mut rng = StdRng::seed_from_u64(0);
        w.reset(&mut rng);
        let s = w.step(0, &mut rng); // up, toward goal at (0,5)
        assert_eq!(s.reward, 0.1);
        assert_eq!(s.outcome, Outcome::Continue);
        assert_eq!(w.agent, (4, 5));
    }

    #[test]
    fn moving_away_penalizes() {
        let mut w = open_world();
        let mut rng = StdRng::seed_from_u64(0);
        w.reset(&mut rng);
        let s = w.step(1, &mut rng); // down, away from goal
        assert_eq!(s.reward, -0.1);
    }

    #[test]
    fn reaching_goal_terminates_with_plus_one() {
        let mut w =
            GridWorld::from_spec(&LayoutSpec { source: (1, 5), goal: (0, 5), hells: vec![] });
        let mut rng = StdRng::seed_from_u64(0);
        w.reset(&mut rng);
        let s = w.step(0, &mut rng);
        assert_eq!(s.reward, 1.0);
        assert_eq!(s.outcome, Outcome::Goal);
    }

    #[test]
    fn hitting_hell_crashes() {
        let mut w =
            GridWorld::from_spec(&LayoutSpec { source: (1, 5), goal: (9, 9), hells: vec![(0, 5)] });
        let mut rng = StdRng::seed_from_u64(0);
        w.reset(&mut rng);
        let s = w.step(0, &mut rng);
        assert_eq!(s.reward, -1.0);
        assert_eq!(s.outcome, Outcome::Crash);
    }

    #[test]
    fn leaving_grid_crashes() {
        let mut w =
            GridWorld::from_spec(&LayoutSpec { source: (0, 0), goal: (9, 9), hells: vec![] });
        let mut rng = StdRng::seed_from_u64(0);
        w.reset(&mut rng);
        let s = w.step(0, &mut rng); // up and out
        assert_eq!(s.outcome, Outcome::Crash);
    }

    #[test]
    fn observation_encodes_hell_and_goal() {
        let mut w =
            GridWorld::from_spec(&LayoutSpec { source: (5, 5), goal: (4, 5), hells: vec![(6, 5)] });
        let mut rng = StdRng::seed_from_u64(0);
        let obs = w.reset(&mut rng);
        // up = goal(+1), down = hell(−1), right/left free.
        assert_eq!(&obs.data()[..4], &[1.0, -1.0, 0.0, 0.0]);
    }

    #[test]
    fn walls_read_as_hell() {
        let mut w =
            GridWorld::from_spec(&LayoutSpec { source: (0, 0), goal: (9, 9), hells: vec![] });
        let mut rng = StdRng::seed_from_u64(0);
        let obs = w.reset(&mut rng);
        // up and left are out of bounds.
        assert_eq!(&obs.data()[..4], &[-1.0, 0.0, 0.0, -1.0]);
    }

    #[test]
    fn episode_times_out() {
        let mut w =
            GridWorld::from_spec(&LayoutSpec { source: (5, 0), goal: (5, 9), hells: vec![] });
        let mut rng = StdRng::seed_from_u64(0);
        w.reset(&mut rng);
        // Bounce left-right forever (never reaching the goal).
        let mut last = Outcome::Continue;
        for i in 0..MAX_STEPS + 2 {
            let a = if i % 2 == 0 { 2 } else { 3 };
            let s = w.step(a, &mut rng);
            last = s.outcome;
            if last.is_terminal() {
                break;
            }
        }
        assert_eq!(last, Outcome::Timeout);
    }

    #[test]
    fn standard_layouts_have_expected_count() {
        assert_eq!(GridWorld::standard_layouts(0).len(), 12);
    }

    #[test]
    fn dynamic_obstacles_move_between_resets() {
        let spec = crate::standard_layout_specs(3, 1).remove(0);
        let mut w = GridWorld::with_dynamic_obstacles(&spec, 2);
        assert!(w.dynamic.is_some());
        let mut rng = StdRng::seed_from_u64(5);
        let hell_set = |w: &GridWorld| -> Vec<(usize, usize)> {
            let mut v = Vec::new();
            for r in 0..GRID_SIZE {
                for c in 0..GRID_SIZE {
                    if w.cell(r, c) == Cell::Hell {
                        v.push((r, c));
                    }
                }
            }
            v
        };
        w.reset(&mut rng);
        let first = hell_set(&w);
        let mut moved = false;
        for _ in 0..10 {
            w.reset(&mut rng);
            if hell_set(&w) != first {
                moved = true;
                break;
            }
        }
        assert!(moved, "obstacles never moved across 10 resets");
    }

    #[test]
    fn dynamic_resets_stay_solvable_and_deterministic() {
        let spec = crate::standard_layout_specs(9, 1).remove(0);
        let run = |seed: u64| -> Vec<Vec<(usize, usize)>> {
            let mut w = GridWorld::with_dynamic_obstacles(&spec, 1);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..6)
                .map(|_| {
                    w.reset(&mut rng);
                    let mut hells = Vec::new();
                    for r in 0..GRID_SIZE {
                        for c in 0..GRID_SIZE {
                            if w.cell(r, c) == Cell::Hell {
                                hells.push((r, c));
                            }
                        }
                    }
                    let layout =
                        LayoutSpec { source: w.source, goal: w.goal, hells: hells.clone() };
                    assert!(crate::layouts::is_solvable(&layout));
                    hells
                })
                .collect()
        };
        assert_eq!(run(4), run(4));
        assert_ne!(run(4), run(5));
    }

    #[test]
    fn dynamic_resets_preserve_obstacle_count() {
        // Jitter must relocate obstacles, never lose them — a shrinking
        // hell count would silently ease the maze.
        let spec = crate::standard_layout_specs(11, 1).remove(0);
        let n_base = spec.hells.len();
        let mut w = GridWorld::with_dynamic_obstacles(&spec, 2);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..50 {
            w.reset(&mut rng);
            let count = (0..GRID_SIZE)
                .flat_map(|r| (0..GRID_SIZE).map(move |c| (r, c)))
                .filter(|&(r, c)| w.cell(r, c) == Cell::Hell)
                .count();
            assert_eq!(count, n_base);
        }
    }

    #[test]
    fn static_world_ignores_rng_stream() {
        let spec = crate::standard_layout_specs(3, 1).remove(0);
        let mut w = GridWorld::from_spec(&spec);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(99);
        let a = w.reset(&mut r1);
        let b = w.reset(&mut r2);
        assert_eq!(a.data(), b.data());
    }
}
