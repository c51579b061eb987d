//! Minimal 3-D geometry for the drone simulator's depth sensor.

/// An axis-aligned bounding box (an obstacle in the corridor world).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner `(x, y, z)`.
    pub(crate) min: [f32; 3],
    /// Maximum corner `(x, y, z)`.
    pub(crate) max: [f32; 3],
}

impl Aabb {
    /// Creates a box from two corners, normalizing the ordering.
    pub fn new(a: [f32; 3], b: [f32; 3]) -> Self {
        let mut min = [0.0; 3];
        let mut max = [0.0; 3];
        for i in 0..3 {
            min[i] = a[i].min(b[i]);
            max[i] = a[i].max(b[i]);
        }
        Aabb { min, max }
    }

    /// Returns the box grown by `r` on every side (drone-radius
    /// inflation for collision tests).
    pub fn inflate(&self, r: f32) -> Aabb {
        Aabb {
            min: [self.min[0] - r, self.min[1] - r, self.min[2] - r],
            max: [self.max[0] + r, self.max[1] + r, self.max[2] + r],
        }
    }

    /// True if the point lies inside (or on the surface of) the box.
    pub fn contains(&self, p: [f32; 3]) -> bool {
        (0..3).all(|i| p[i] >= self.min[i] && p[i] <= self.max[i])
    }
}

/// A ray with origin and (not necessarily normalized) direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Origin point.
    pub origin: [f32; 3],
    /// Direction vector.
    pub dir: [f32; 3],
}

impl Ray {
    /// Slab-method ray/AABB intersection.
    ///
    /// Returns the smallest non-negative `t` such that
    /// `origin + t * dir` is on the box, or `None` if the ray misses.
    pub fn hit(&self, b: &Aabb) -> Option<f32> {
        self.hit_inv(&self.dir.map(|d| 1.0 / d), b)
    }

    /// [`Ray::hit`] given the reciprocal direction `inv` (`1 / dir` per
    /// axis), so a ray cast against many boxes divides once.
    pub(crate) fn hit_inv(&self, inv: &[f32; 3], b: &Aabb) -> Option<f32> {
        let mut tmin = 0.0f32;
        let mut tmax = f32::INFINITY;
        for (i, &inv) in inv.iter().enumerate() {
            if self.dir[i].abs() < 1e-9 {
                if self.origin[i] < b.min[i] || self.origin[i] > b.max[i] {
                    return None;
                }
            } else {
                let mut t0 = (b.min[i] - self.origin[i]) * inv;
                let mut t1 = (b.max[i] - self.origin[i]) * inv;
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                tmin = tmin.max(t0);
                tmax = tmax.min(t1);
                if tmin > tmax {
                    return None;
                }
            }
        }
        Some(tmin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new([1.0, -0.5, -0.5], [2.0, 0.5, 0.5])
    }

    #[test]
    fn ray_hits_box_ahead() {
        let r = Ray { origin: [0.0, 0.0, 0.0], dir: [1.0, 0.0, 0.0] };
        let t = r.hit(&unit_box()).unwrap();
        assert!((t - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ray_misses_offset_box() {
        let r = Ray { origin: [0.0, 2.0, 0.0], dir: [1.0, 0.0, 0.0] };
        assert!(r.hit(&unit_box()).is_none());
    }

    #[test]
    fn ray_behind_misses() {
        let r = Ray { origin: [5.0, 0.0, 0.0], dir: [1.0, 0.0, 0.0] };
        assert!(r.hit(&unit_box()).is_none());
    }

    #[test]
    fn ray_origin_inside_hits_at_zero() {
        let r = Ray { origin: [1.5, 0.0, 0.0], dir: [1.0, 0.0, 0.0] };
        assert_eq!(r.hit(&unit_box()), Some(0.0));
    }

    #[test]
    fn diagonal_ray_hits() {
        let r = Ray { origin: [0.0, -1.0, 0.0], dir: [1.5, 1.0, 0.0] };
        assert!(r.hit(&unit_box()).is_some());
    }

    #[test]
    fn contains_and_inflate() {
        let b = unit_box();
        assert!(b.contains([1.5, 0.0, 0.0]));
        assert!(!b.contains([0.5, 0.0, 0.0]));
        assert!(b.inflate(0.6).contains([0.5, 0.0, 0.0]));
    }

    #[test]
    fn new_normalizes_corners() {
        let b = Aabb::new([2.0, 1.0, 1.0], [1.0, -1.0, 0.0]);
        assert_eq!(b.min, [1.0, -1.0, 0.0]);
        assert_eq!(b.max, [2.0, 1.0, 1.0]);
    }
}
