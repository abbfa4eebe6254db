//! Sample summaries and the result line a run prints.

use gnnunlock_engine::Json;

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// order statistics. `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `samples`, 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The mean of `samples`, 0 when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `count` per second of the summed durations `ms`, 0 when there are none.
pub fn per_second(count: usize, ms: &[f64]) -> f64 {
    let seconds = ms.iter().sum::<f64>() / 1e3;
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

/// Samples lying strictly beyond the `q`-quantile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    quantile(samples, q).map_or(0, |t| samples.iter().filter(|&&x| x > t).count())
}

/// Samples a tail quantile `q` needs so that ten of them lie beyond it.
pub fn needed_for(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// The metrics of one run, in insertion order, each printed as it is added.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, String, usize)>,
}

impl Metrics {
    /// Add a metric measured over `n` samples.
    pub fn put(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        println!("metric {name} = {value} {unit} (n={n})");
        self.entries
            .push((name.to_string(), value, unit.to_string(), n));
    }

    /// Add the median of `samples` as `name`.
    pub fn put_median(&mut self, name: &str, samples: &[f64], unit: &str) {
        self.put(name, median(samples), unit, samples.len());
    }

    /// Add the mean of `samples` as `name`.
    pub fn put_mean(&mut self, name: &str, samples: &[f64], unit: &str) {
        self.put(name, mean(samples), unit, samples.len());
    }

    /// Add the tail quantile `q` of `samples` as `name` when at least ten
    /// samples lie beyond it. An unsupported tail is withheld, so a run
    /// that must report it ends without a result; a layer the workload
    /// bypasses (no samples) reports 0 over 0 samples.
    pub fn put_tail(&mut self, name: &str, samples: &[f64], q: f64, unit: &str) {
        let past = beyond(samples, q);
        if samples.is_empty() || past >= 10 {
            self.put(
                name,
                quantile(samples, q).unwrap_or(0.0),
                unit,
                samples.len(),
            );
        } else {
            println!(
                "withheld: {name} has only {past} samples beyond it (n={}, needs n >= {})",
                samples.len(),
                needed_for(q)
            );
        }
    }

    /// The metrics as `{name: {"value", "unit", "n"}}`.
    pub fn to_json(&self) -> Json {
        Json::obj(
            self.entries
                .iter()
                .map(|(name, value, unit, n)| {
                    (
                        name.as_str(),
                        Json::obj(vec![
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str(unit.clone())),
                            ("n", Json::Num(*n as f64)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
pub struct Ledger {
    pub attempted: usize,
    pub failures: Vec<String>,
    /// What every iteration of this seed must reproduce (report digest
    /// and quality figures), compared across processes by `run.py`.
    pub reference: String,
}

impl Ledger {
    /// Count one operation; `Err` records its failure.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            println!("check failed: {why}");
            self.failures.push(why);
        }
    }

    /// Operations that completed and passed every check, over attempted.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failures.len()) as f64 / self.attempted as f64
    }
}

/// A short digest of `text`, for comparing report bytes across processes.
pub fn digest(text: &str) -> String {
    format!("{:016x}", gnnunlock_telemetry::derived_id(0, text))
}
