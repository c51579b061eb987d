//! Cyber-physical overhead model for protection schemes (Fig. 9).
//!
//! The paper evaluates its detection scheme against hardware redundancy
//! (DMR/TMR) *end to end*: redundant hardware draws more power and adds
//! payload mass, which on a real drone lowers both achievable velocity
//! and endurance — so the right metric is not FLOPs but safe flight
//! distance. FRL-FI adopts the drone performance-analysis model of
//! Krishnan et al. ("The sky is not the limit", its refs 32 and 33);
//! this module implements the same relationships:
//!
//! * hover power scales with total mass as `m^1.5` (actuator-disk
//!   theory), so extra protection hardware shortens endurance;
//! * achievable velocity shrinks with payload mass (thrust margin) and
//!   with per-frame compute latency (a drone can only fly as fast as it
//!   can perceive), so runtime overhead also costs velocity;
//! * distance = velocity × endurance.
//!
//! Two platform presets mirror the paper's table: an AirSim-class
//! mini-UAV (1652 g, 6250 mAh) and a DJI-Spark-class micro-UAV (300 g,
//! 1480 mAh). The same protection hardware that costs a mini-UAV a few
//! percent cripples the micro-UAV — the paper's headline argument for
//! lightweight application-aware protection.

/// A protection scheme whose end-to-end cost the model evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtectionScheme {
    /// No protection (baseline).
    Unprotected,
    /// The paper's range-based anomaly detection: software-only,
    /// <2.7% runtime overhead, no extra hardware.
    RangeDetection,
    /// Dual modular redundancy: one extra compute board.
    Dmr,
    /// Triple modular redundancy: two extra boards plus a voter.
    Tmr,
}

impl ProtectionScheme {
    /// Fractional runtime overhead per inference frame.
    pub fn runtime_overhead(self) -> f32 {
        match self {
            ProtectionScheme::Unprotected => 0.0,
            ProtectionScheme::RangeDetection => 0.027,
            // Redundant copies run in parallel; the voter adds a little.
            ProtectionScheme::Dmr => 0.01,
            ProtectionScheme::Tmr => 0.02,
        }
    }

    /// Extra payload mass in grams (compute boards, wiring, voter).
    pub(crate) fn extra_mass_g(self) -> f32 {
        match self {
            ProtectionScheme::Unprotected | ProtectionScheme::RangeDetection => 0.0,
            ProtectionScheme::Dmr => 25.0,
            ProtectionScheme::Tmr => 55.0,
        }
    }

    /// Compute-power multiplier relative to the unprotected stack.
    pub(crate) fn compute_multiplier(self) -> f32 {
        match self {
            ProtectionScheme::Unprotected => 1.0,
            ProtectionScheme::RangeDetection => 1.027,
            ProtectionScheme::Dmr => 2.0,
            ProtectionScheme::Tmr => 3.3,
        }
    }

    /// All schemes, in Fig. 9 presentation order.
    pub fn all() -> [ProtectionScheme; 4] {
        [
            ProtectionScheme::Unprotected,
            ProtectionScheme::RangeDetection,
            ProtectionScheme::Dmr,
            ProtectionScheme::Tmr,
        ]
    }
}

impl std::fmt::Display for ProtectionScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtectionScheme::Unprotected => write!(f, "No protection"),
            ProtectionScheme::RangeDetection => write!(f, "Detection (ours)"),
            ProtectionScheme::Dmr => write!(f, "DMR"),
            ProtectionScheme::Tmr => write!(f, "TMR"),
        }
    }
}

/// Physical parameters of a drone platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DronePlatform {
    /// Platform name.
    pub name: &'static str,
    /// Airframe mass in grams.
    pub(crate) mass_g: f32,
    /// Battery energy in watt-hours.
    pub(crate) battery_wh: f32,
    /// Hover power at airframe mass, in watts.
    pub(crate) hover_w: f32,
    /// Compute power of the unprotected autonomy stack, in watts.
    pub(crate) compute_w: f32,
    /// Payload margin in grams (extra mass the thrust budget tolerates
    /// before velocity collapses).
    pub(crate) payload_capacity_g: f32,
    /// Baseline mission distance in metres (Fig. 9's y-axis scale).
    pub(crate) reference_distance_m: f32,
}

impl DronePlatform {
    /// The AirSim-class mini-UAV of the paper's Fig. 9 table
    /// (size 650 mm, 1652 g, 6250 mAh).
    pub fn airsim() -> Self {
        DronePlatform {
            name: "AirSim drone",
            mass_g: 1652.0,
            battery_wh: 69.4, // 6250 mAh × 11.1 V
            hover_w: 180.0,
            compute_w: 6.0,
            payload_capacity_g: 1000.0,
            reference_distance_m: 165.0,
        }
    }

    /// The DJI-Spark-class micro-UAV (size 170 mm, 300 g, 1480 mAh).
    pub fn dji_spark() -> Self {
        DronePlatform {
            name: "DJI Spark",
            mass_g: 300.0,
            battery_wh: 16.9, // 1480 mAh × 11.4 V
            hover_w: 40.0,
            compute_w: 4.0,
            payload_capacity_g: 70.0,
            reference_distance_m: 100.0,
        }
    }

    /// Evaluates a protection scheme's end-to-end cost on this platform.
    pub fn evaluate(&self, scheme: ProtectionScheme) -> OverheadReport {
        let base_power = self.hover_w + self.compute_w;

        let extra = scheme.extra_mass_g();
        let mass_ratio = (self.mass_g + extra) / self.mass_g;
        let hover = self.hover_w * mass_ratio.powf(1.5);
        let compute = self.compute_w * scheme.compute_multiplier();
        let power = hover + compute;

        let endurance_factor = base_power / power;
        // Thrust-margin velocity penalty plus perception-latency penalty.
        let thrust_factor = (1.0 - extra / self.payload_capacity_g).max(0.0);
        let latency_factor = 1.0 / (1.0 + scheme.runtime_overhead());
        let velocity_factor = thrust_factor * latency_factor;

        let relative_distance = velocity_factor * endurance_factor;
        OverheadReport {
            scheme,
            velocity_factor,
            endurance_factor,
            relative_distance,
            distance_m: self.reference_distance_m * relative_distance,
        }
    }
}

/// End-to-end cost of one protection scheme on one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// The evaluated scheme.
    pub(crate) scheme: ProtectionScheme,
    /// Achievable velocity relative to unprotected.
    pub velocity_factor: f32,
    /// Endurance relative to unprotected.
    pub endurance_factor: f32,
    /// Safe flight distance relative to unprotected.
    pub relative_distance: f32,
    /// Safe flight distance in metres (scaled to the platform's
    /// reference mission).
    pub distance_m: f32,
}

impl OverheadReport {
    /// Percentage degradation versus the unprotected baseline.
    pub fn degradation_percent(&self) -> f32 {
        (1.0 - self.relative_distance) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprotected_is_identity() {
        for p in [DronePlatform::airsim(), DronePlatform::dji_spark()] {
            let r = p.evaluate(ProtectionScheme::Unprotected);
            assert!((r.relative_distance - 1.0).abs() < 1e-6);
            assert_eq!(r.distance_m, p.reference_distance_m);
        }
    }

    #[test]
    fn detection_costs_under_three_percent() {
        for p in [DronePlatform::airsim(), DronePlatform::dji_spark()] {
            let r = p.evaluate(ProtectionScheme::RangeDetection);
            assert!(
                r.degradation_percent() < 3.0,
                "{}: detection costs {}%",
                p.name,
                r.degradation_percent()
            );
        }
    }

    #[test]
    fn redundancy_ordering_matches_paper() {
        // ours < DMR < TMR degradation on both platforms (Fig. 9 shape).
        for p in [DronePlatform::airsim(), DronePlatform::dji_spark()] {
            let ours = p.evaluate(ProtectionScheme::RangeDetection).degradation_percent();
            let dmr = p.evaluate(ProtectionScheme::Dmr).degradation_percent();
            let tmr = p.evaluate(ProtectionScheme::Tmr).degradation_percent();
            assert!(ours < dmr && dmr < tmr, "{}: {ours} {dmr} {tmr}", p.name);
        }
    }

    #[test]
    fn micro_uav_suffers_more_than_mini_uav() {
        // The paper's headline: TMR costs ~9% on the big drone but
        // cripples the DJI Spark (~87%).
        let big = DronePlatform::airsim().evaluate(ProtectionScheme::Tmr);
        let small = DronePlatform::dji_spark().evaluate(ProtectionScheme::Tmr);
        assert!(small.degradation_percent() > 4.0 * big.degradation_percent());
        assert!(small.degradation_percent() > 70.0, "{}", small.degradation_percent());
        assert!(big.degradation_percent() < 25.0, "{}", big.degradation_percent());
    }

    #[test]
    fn factors_multiply_to_distance() {
        let r = DronePlatform::airsim().evaluate(ProtectionScheme::Dmr);
        assert!((r.velocity_factor * r.endurance_factor - r.relative_distance).abs() < 1e-6);
    }
}
