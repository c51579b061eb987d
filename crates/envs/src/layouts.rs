//! Deterministic GridWorld layout generation.
//!
//! The paper combines "12 environments into 4 grids" (Fig. 2): every
//! agent trains in its own maze, and the federated policy must work in
//! all of them. We generate 12 reproducible layouts from a master seed,
//! each guaranteed solvable (a BFS path from source to goal exists).

use frlfi_tensor::derive_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gridworld::GRID_SIZE;

/// A declarative maze description: source, goal and obstacle cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutSpec {
    /// Agent start cell `(row, col)`.
    pub source: (usize, usize),
    /// Goal cell `(row, col)`.
    pub goal: (usize, usize),
    /// Obstacle ("hell") cells.
    pub(crate) hells: Vec<(usize, usize)>,
}

/// Generates the `n` standard layouts for a master seed.
///
/// Every layout is validated solvable; generation retries with a fresh
/// sub-seed until BFS finds a source→goal path avoiding obstacles.
///
/// ```
/// use frlfi_envs::standard_layout_specs;
///
/// let specs = standard_layout_specs(7, 12);
/// assert_eq!(specs.len(), 12);
/// assert_eq!(specs, standard_layout_specs(7, 12)); // deterministic
/// ```
pub fn standard_layout_specs(master_seed: u64, n: usize) -> Vec<LayoutSpec> {
    (0..n)
        .map(|i| {
            let mut attempt = 0u64;
            loop {
                let seed = derive_seed(master_seed, (i as u64) << 20 | attempt);
                let spec = random_spec(seed);
                if is_solvable(&spec) {
                    return spec;
                }
                attempt += 1;
            }
        })
        .collect()
}

fn random_spec(seed: u64) -> LayoutSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = GRID_SIZE;
    let cell = |rng: &mut StdRng| (rng.gen_range(0..n), rng.gen_range(0..n));
    let source = cell(&mut rng);
    let goal = loop {
        let g = cell(&mut rng);
        // Keep source and goal well separated so policies must navigate.
        if manhattan(g, source) >= n / 2 {
            break g;
        }
    };
    let n_hells = rng.gen_range(8..=14);
    let mut hells = Vec::with_capacity(n_hells);
    while hells.len() < n_hells {
        let h = cell(&mut rng);
        if h != source && h != goal && !hells.contains(&h) {
            hells.push(h);
        }
    }
    LayoutSpec { source, goal, hells }
}

fn manhattan(a: (usize, usize), b: (usize, usize)) -> usize {
    a.0.abs_diff(b.0) + a.1.abs_diff(b.1)
}

/// Breadth-first reachability check from source to goal avoiding hells.
pub(crate) fn is_solvable(spec: &LayoutSpec) -> bool {
    let n = GRID_SIZE;
    let blocked = |p: (usize, usize)| spec.hells.contains(&p);
    if blocked(spec.source) || blocked(spec.goal) {
        return false;
    }
    let mut seen = vec![false; n * n];
    let mut queue = std::collections::VecDeque::new();
    seen[spec.source.0 * n + spec.source.1] = true;
    queue.push_back(spec.source);
    while let Some((r, c)) = queue.pop_front() {
        if (r, c) == spec.goal {
            return true;
        }
        let neighbours = [(r.wrapping_sub(1), c), (r + 1, c), (r, c.wrapping_sub(1)), (r, c + 1)];
        for (nr, nc) in neighbours {
            if nr < n && nc < n && !seen[nr * n + nc] && !blocked((nr, nc)) {
                seen[nr * n + nc] = true;
                queue.push_back((nr, nc));
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_layouts() {
        assert_eq!(standard_layout_specs(1, 12), standard_layout_specs(1, 12));
        assert_ne!(standard_layout_specs(1, 12), standard_layout_specs(2, 12));
    }

    #[test]
    fn all_layouts_solvable() {
        for spec in standard_layout_specs(99, 12) {
            assert!(is_solvable(&spec));
        }
    }

    #[test]
    fn source_goal_distinct_and_clear() {
        for spec in standard_layout_specs(5, 12) {
            assert_ne!(spec.source, spec.goal);
            assert!(!spec.hells.contains(&spec.source));
            assert!(!spec.hells.contains(&spec.goal));
        }
    }

    #[test]
    fn solvable_detects_walled_goal() {
        // Goal at a corner fully enclosed by hells.
        let spec = LayoutSpec { source: (5, 5), goal: (0, 0), hells: vec![(0, 1), (1, 0), (1, 1)] };
        assert!(!is_solvable(&spec));
    }
}
