//! `campaign perf`: the campaign-level perf ledger — folds a
//! campaign's telemetry into a small, stable JSON record (per-phase
//! wall-clock, trials/s) and gates it against a committed baseline,
//! the campaign-level counterpart of the kernel bench gates.
//!
//! A record is measured from the same obs streams `campaign profile`
//! reads, so any campaign run with `--obs` can be gated. The baseline
//! file (`BENCH_campaign.json` at the repo root by convention) holds
//! one record per `(name, scale)` pair, and
//! `campaign perf <dir> --baseline <file> --gate <pct>` exits nonzero
//! when the current run is more than `pct` percent worse than the
//! matching record: lower `trials_per_s`, or a higher per-trial phase
//! cost for any phase the baseline spends at least 100 µs/trial on
//! (the floor keeps sub-noise phases from flapping the gate).

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Map, Value};

use crate::fmt::json;
use crate::profile::{self, CheckMode};

/// Record schema version.
pub(crate) const PERF_SCHEMA: u64 = 1;

/// Phases below this per-trial baseline cost (µs) are excluded from
/// the per-phase gate: they are measurement noise at quick scales.
pub(crate) const PHASE_GATE_FLOOR_US: f64 = 100.0;

/// One folded perf record: what the ledger stores and the gate
/// compares.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// Scenario name (from the campaign manifest).
    pub(crate) name: String,
    /// Scenario scale, rendered (`Smoke`/`Bench`/`Full`).
    pub(crate) scale: String,
    /// Completed trial spans across all workers.
    pub(crate) trials: u64,
    /// Campaign wall window (s), earliest to latest event.
    pub(crate) wall_s: f64,
    /// Observed aggregate completion rate.
    pub trials_per_s: f64,
    /// Total wall-clock per phase, seconds (spans + timers:
    /// `trial`, `train`, `eval`, `aggregate`, `io`, …).
    pub(crate) phase_s: BTreeMap<String, f64>,
    /// Per-trial phase cost in µs — the scale-independent number the
    /// gate compares.
    pub(crate) phase_us_per_trial: BTreeMap<String, f64>,
}

impl PerfRecord {
    /// Renders the record as a JSON object (sorted keys: stable
    /// output, byte-diffable in the ledger).
    pub fn to_value(&self) -> Value {
        let f64map = |m: &BTreeMap<String, f64>| {
            Value::Table(m.iter().map(|(k, &v)| (k.clone(), Value::Float(v))).collect::<Map>())
        };
        let mut m = Map::new();
        m.insert("schema".into(), Value::Int(PERF_SCHEMA as i64));
        m.insert("name".into(), Value::Str(self.name.clone()));
        m.insert("scale".into(), Value::Str(self.scale.clone()));
        m.insert("trials".into(), Value::Int(self.trials as i64));
        m.insert("wall_s".into(), Value::Float(self.wall_s));
        m.insert("trials_per_s".into(), Value::Float(self.trials_per_s));
        m.insert("phase_s".into(), f64map(&self.phase_s));
        m.insert("phase_us_per_trial".into(), f64map(&self.phase_us_per_trial));
        Value::Table(m)
    }

    /// Parses a record object.
    ///
    /// # Errors
    ///
    /// A missing or mistyped field.
    pub(crate) fn from_value(v: &Value) -> Result<PerfRecord, String> {
        let str_field = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("perf record missing string `{k}`"))
        };
        let num = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_float().or_else(|| x.as_int().map(|n| n as f64)))
                .ok_or_else(|| format!("perf record missing number `{k}`"))
        };
        let f64map = |k: &str| -> Result<BTreeMap<String, f64>, String> {
            let Some(t) = v.get(k).and_then(Value::as_table) else {
                return Err(format!("perf record missing table `{k}`"));
            };
            t.iter()
                .map(|(name, x)| {
                    x.as_float()
                        .or_else(|| x.as_int().map(|n| n as f64))
                        .map(|f| (name.clone(), f))
                        .ok_or_else(|| format!("`{k}.{name}` is not a number"))
                })
                .collect()
        };
        Ok(PerfRecord {
            name: str_field("name")?,
            scale: str_field("scale")?,
            trials: num("trials")? as u64,
            wall_s: num("wall_s")?,
            trials_per_s: num("trials_per_s")?,
            phase_s: f64map("phase_s")?,
            phase_us_per_trial: f64map("phase_us_per_trial")?,
        })
    }
}

/// Measures a perf record from campaign directory `dir`'s obs streams
/// and manifest. `_mode` is ignored: records are keyed by
/// `(name, scale)` alone, and the parameter stays so existing callers
/// still build.
///
/// # Errors
///
/// An unreadable manifest, unreadable streams, or a campaign with no
/// completed trial spans (there is nothing to gate).
pub fn measure(dir: &Path, _mode: &str) -> Result<PerfRecord, String> {
    let scenario = crate::runner::load_scenario(&dir.join("campaign.toml"))?;
    let profile = profile::load_dir(dir, CheckMode::Lenient)?;
    let trials = profile.trials();
    if trials == 0 {
        return Err(format!(
            "no trial spans under {}/obs — run the campaign with --obs first",
            dir.display()
        ));
    }
    let wall_s = profile.window_s();
    let trials_per_s = profile.rate().unwrap_or(0.0);
    let mut phase_us: BTreeMap<String, u64> = BTreeMap::new();
    for w in &profile.workers {
        for (name, &(_, us)) in &w.spans {
            *phase_us.entry(name.clone()).or_insert(0) += us;
        }
        for (name, &(_, us)) in &w.timers {
            *phase_us.entry(name.clone()).or_insert(0) += us;
        }
    }
    let phase_s = phase_us.iter().map(|(k, &us)| (k.clone(), us as f64 / 1e6)).collect();
    let phase_us_per_trial =
        phase_us.iter().map(|(k, &us)| (k.clone(), us as f64 / trials as f64)).collect();
    Ok(PerfRecord {
        name: scenario.name.clone(),
        scale: format!("{:?}", scenario.scale),
        trials,
        wall_s,
        trials_per_s,
        phase_s,
        phase_us_per_trial,
    })
}

/// Parses a baseline document: either one record object or a ledger
/// (`{"records": [...]}`), returning every record found.
///
/// # Errors
///
/// Unparseable JSON or a record missing required fields.
pub fn parse_baseline(text: &str) -> Result<Vec<PerfRecord>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("records").and_then(Value::as_array) {
        Some(records) => records.iter().map(PerfRecord::from_value).collect(),
        None => Ok(vec![PerfRecord::from_value(&doc)?]),
    }
}

/// Compares `current` against the matching baseline record; each
/// returned string names one regression beyond `gate_pct` percent.
/// An empty vec means the gate passes.
///
/// # Errors
///
/// No baseline record matches `(name, scale)` — a silent pass
/// on a mismatched baseline would defeat the gate.
pub fn compare(
    current: &PerfRecord,
    baseline: &[PerfRecord],
    gate_pct: f64,
) -> Result<Vec<String>, String> {
    let base = baseline
        .iter()
        .find(|b| b.name == current.name && b.scale == current.scale)
        .ok_or_else(|| {
            format!(
                "no baseline record for ({}, {}) — candidates: {}",
                current.name,
                current.scale,
                baseline
                    .iter()
                    .map(|b| format!("({}, {})", b.name, b.scale))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
    let g = gate_pct / 100.0;
    let mut regressions = Vec::new();
    if base.trials_per_s > 0.0 && current.trials_per_s < base.trials_per_s * (1.0 - g) {
        regressions.push(format!(
            "trials/s regressed: {:.3} vs baseline {:.3} (gate {gate_pct}%)",
            current.trials_per_s, base.trials_per_s
        ));
    }
    for (phase, &base_us) in &base.phase_us_per_trial {
        if base_us < PHASE_GATE_FLOOR_US {
            continue;
        }
        let cur_us = current.phase_us_per_trial.get(phase).copied().unwrap_or(0.0);
        if cur_us > base_us * (1.0 + g) {
            regressions.push(format!(
                "phase `{phase}` regressed: {cur_us:.0} µs/trial vs baseline {base_us:.0} \
                 (gate {gate_pct}%)"
            ));
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(rate: f64, io_us: f64) -> PerfRecord {
        PerfRecord {
            name: "fig3a".into(),
            scale: "Smoke".into(),
            trials: 12,
            wall_s: 2.0,
            trials_per_s: rate,
            phase_s: BTreeMap::from([("trial".into(), 1.0), ("io".into(), io_us * 12.0 / 1e6)]),
            phase_us_per_trial: BTreeMap::from([("trial".into(), 80_000.0), ("io".into(), io_us)]),
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = record(6.0, 500.0);
        let text = json::render(&r.to_value());
        let back = PerfRecord::from_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(r, back);
        // Ledger form parses too.
        let ledger = format!("{{\"records\":[{text}]}}");
        assert_eq!(parse_baseline(&ledger).unwrap(), vec![r]);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let base = vec![record(6.0, 500.0)];
        // 5% slower with a 20% gate: pass.
        assert!(compare(&record(5.7, 510.0), &base, 20.0).unwrap().is_empty());
        // Rate collapsed: fail.
        let r = compare(&record(2.0, 500.0), &base, 20.0).unwrap();
        assert!(r.iter().any(|m| m.contains("trials/s")), "{r:?}");
        // Phase blew up: fail.
        let r = compare(&record(6.0, 5000.0), &base, 20.0).unwrap();
        assert!(r.iter().any(|m| m.contains("`io`")), "{r:?}");
    }

    #[test]
    fn sub_floor_phases_do_not_flap_the_gate() {
        let mut base = record(6.0, 50.0); // io below the 100 µs floor
        base.phase_us_per_trial.insert("io".into(), 50.0);
        let mut cur = record(6.0, 50.0);
        cur.phase_us_per_trial.insert("io".into(), 90.0); // 80% "worse"
        assert!(compare(&cur, &[base], 20.0).unwrap().is_empty());
    }

    #[test]
    fn mismatched_baseline_is_an_error_not_a_pass() {
        let mut base = record(6.0, 500.0);
        base.scale = "Bench".into();
        assert!(compare(&record(6.0, 500.0), &[base], 20.0).is_err());
    }
}
