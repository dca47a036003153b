//! Small helpers shared by the workloads: quantiles, the seeded RNG,
//! process memory and the metric list the run prints.

use serde_json::{Map, Value};

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// splitmix64: the benchmark's only source of randomness, so a seed
/// fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005e_ed0f_d9a1_b3c7)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Peak resident set of a process in MB (`VmHWM`), from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Metrics in print order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// A latency sample set as `<name>_p50`, `<name>_p99` and its count `<name>_n`.
    pub fn put_quantiles(&mut self, name: &str, samples: &mut [f64], unit: &'static str) {
        self.put(format!("{name}_p50"), quantile(samples, 0.5), unit);
        self.put(format!("{name}_p99"), quantile(samples, 0.99), unit);
        self.put(format!("{name}_n"), samples.len() as f64, "count");
    }

    /// The metrics in `names` order; a name this run did not measure
    /// (its layer does not run in this workload) reads 0.
    pub fn conform(self, names: &[(&str, &'static str)]) -> Metrics {
        for (name, _, _) in &self.0 {
            assert!(
                names.iter().any(|(n, _)| n == name),
                "metric {name} is not declared"
            );
        }
        let value = |name: &str| {
            self.0
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |m| m.1)
        };
        Metrics(
            names
                .iter()
                .map(|&(n, unit)| (n.to_string(), value(n), unit))
                .collect(),
        )
    }

    pub fn print_table(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
    }

    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        for (name, value, unit) in &self.0 {
            let mut entry = Map::new();
            entry.insert("value", Value::from(*value));
            entry.insert("unit", Value::from(*unit));
            m.insert(name.clone(), Value::Object(entry));
        }
        Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7);
        assert!((0..1000).all(|_| (0.0..=1.0).contains(&r.unit())));
    }
}
