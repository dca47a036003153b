//! Live metrics for the real-threads runtime.
//!
//! The simulator side of this workspace reports virtual time; the thread
//! runtime here runs real data movement, and these are its observability
//! primitives: lock-free [`Counter`]s and log2-bucketed [`Histogram`]s
//! registered by name in a [`Registry`]. Hot paths touch a single relaxed
//! atomic per event; [`Registry::snapshot`] reads a consistent-enough view
//! at any time without stopping the threads.
//!
//! The runtime records, per process-wide [`global`] registry:
//!
//! * `barrier.wait_ns` — spin-barrier wait time per arrival (histogram),
//! * `shm.copy_bytes` — bytes moved through shared-memory slots (counter),
//! * `shm.reduce_ops` — element reduction operations performed (counter),
//! * `shm.crc_fail` — payloads/publishes that failed their CRC32C check
//!   (counter; see [`crate::integrity`]),
//! * `shm.retransmit` — clean-copy recoveries and partition re-reductions
//!   after a checksum failure (counter).
//!
//! On top of the live registry sits a **time-series layer** for
//! continuous telemetry (`dpml-serve`'s `watch` verb and `dpml top`): a
//! fixed-capacity [`TimeSeriesRing`] of timestamped [`MetricsSnapshot`]s
//! plus [`rates_between`], which derives per-second counter rates and
//! windowed histogram quantiles from the *deltas* between two snapshots —
//! so a dashboard shows "what happened in the last sample interval", not
//! since process start.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log2 buckets: values up to `2^63` land in the last bucket.
const BUCKETS: usize = 64;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Set to an absolute value — for counters that publish a measured
    /// level (journal bytes on disk) rather than accumulate deltas.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A log2-bucketed histogram of `u64` samples (value `v` lands in bucket
/// `⌊log2 v⌋ + 1`; zero in bucket 0), plus exact count and sum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower bound of a bucket.
fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Width of a bucket: bucket `i >= 1` covers `[2^(i-1), 2^i)`.
fn bucket_width(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        bucket_floor(i)
    }
}

/// Quantile over raw bucket counts (shared by live histograms and the
/// time-series delta path). `total` must equal `counts.iter().sum()`.
///
/// The value is linearly interpolated within the bucket holding the
/// `q`-th sample (Prometheus `histogram_quantile` convention): assuming
/// samples are uniform in the bucket, it is `floor + width * rank /
/// count`. The result always lies within that bucket's closed range
/// `[2^(i-1), 2^i]`, so the worst-case relative error is < 2× in either
/// direction, and it is exact when in-bucket samples are uniformly
/// spread.
fn quantile_from_counts(counts: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        seen += c;
        if seen >= target {
            let rank = target - (seen - c); // 1-based rank within the bucket
            let v = bucket_floor(i) as f64 + bucket_width(i) as f64 * (rank as f64 / c as f64);
            // Stay inside the bucket's closed upper edge.
            return (v as u64).min(bucket_floor(i) + bucket_width(i));
        }
    }
    bucket_floor(BUCKETS - 1)
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Approximate quantile `q` in `0.0..=1.0`, linearly interpolated
    /// within the log2 bucket holding the `q`-th sample (error < 2× in
    /// either direction, see `quantile_from_counts`).
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        quantile_from_counts(&counts, total, q)
    }

    /// Raw per-bucket counts (a relaxed-atomic snapshot).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Reset all buckets.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((bucket_floor(i), c))
            })
            .collect()
    }
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Registered name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Mean sample.
    pub mean: f64,
    /// Approximate median (see [`Histogram::quantile`]).
    pub p50: u64,
    /// Approximate 99th percentile (see [`Histogram::quantile`]).
    pub p99: u64,
    /// Non-empty raw buckets as `(bucket_index, count)` pairs, so the
    /// time-series layer can compute quantiles over *deltas* between two
    /// snapshots. Empty when deserializing older snapshots.
    #[serde(default)]
    pub buckets: Vec<(u32, u64)>,
}

/// A consistent-enough view of every registered metric.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Value of a counter by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Histogram summary by name, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// A named collection of live metrics.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut guard = self.counters.lock().expect("metrics registry poisoned");
        if let Some((_, c)) = guard.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        guard.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut guard = self.histograms.lock().expect("metrics registry poisoned");
        if let Some((_, h)) = guard.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        guard.push((name.to_string(), Arc::clone(&h)));
        h
    }

    /// Snapshot every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterSample> = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(n, c)| CounterSample {
                name: n.clone(),
                value: c.get(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSample> = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(n, h)| {
                let counts = h.bucket_counts();
                HistogramSample {
                    name: n.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    mean: h.mean(),
                    p50: h.quantile(0.5),
                    p99: h.quantile(0.99),
                    buckets: counts
                        .iter()
                        .enumerate()
                        .filter_map(|(i, &c)| (c > 0).then_some((i as u32, c)))
                        .collect(),
                }
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Reset every registered metric to zero (names stay registered).
    pub fn reset(&self) {
        for (_, c) in self.counters.lock().expect("poisoned").iter() {
            c.reset();
        }
        for (_, h) in self.histograms.lock().expect("poisoned").iter() {
            h.reset();
        }
    }
}

/// The process-wide registry the runtime records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A [`MetricsSnapshot`] stamped with wall-clock time (unix epoch ms).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedSnapshot {
    /// Sample time, milliseconds since the unix epoch.
    pub t_ms: u64,
    /// Registry contents at that time.
    pub snap: MetricsSnapshot,
}

/// Fixed-capacity ring of [`TimedSnapshot`]s: the continuous-telemetry
/// buffer a sampler pushes into and a dashboard reads windows out of.
/// Oldest entries are dropped once `capacity` is reached. All methods
/// take `&self`; the ring is internally locked.
#[derive(Debug)]
pub struct TimeSeriesRing {
    cap: usize,
    ring: Mutex<VecDeque<TimedSnapshot>>,
}

impl TimeSeriesRing {
    /// New ring holding at most `cap` snapshots (min 2, so a rate window
    /// always fits).
    pub fn new(cap: usize) -> Self {
        TimeSeriesRing {
            cap: cap.max(2),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Append a snapshot, dropping the oldest when full.
    pub fn push(&self, t_ms: u64, snap: MetricsSnapshot) {
        let mut g = self.ring.lock().expect("time-series ring poisoned");
        if g.len() == self.cap {
            g.pop_front();
        }
        g.push_back(TimedSnapshot { t_ms, snap });
    }

    /// Most recent snapshot, if any.
    pub fn latest(&self) -> Option<TimedSnapshot> {
        self.ring
            .lock()
            .expect("time-series ring poisoned")
            .back()
            .cloned()
    }

    /// The two most recent snapshots as `(older, newer)` — the natural
    /// input to [`rates_between`]. `None` until two samples exist.
    pub fn last_two(&self) -> Option<(TimedSnapshot, TimedSnapshot)> {
        let g = self.ring.lock().expect("time-series ring poisoned");
        if g.len() < 2 {
            return None;
        }
        Some((g[g.len() - 2].clone(), g[g.len() - 1].clone()))
    }

    /// Up to the `n` most recent snapshots, oldest first.
    pub fn recent(&self, n: usize) -> Vec<TimedSnapshot> {
        let g = self.ring.lock().expect("time-series ring poisoned");
        let skip = g.len().saturating_sub(n);
        g.iter().skip(skip).cloned().collect()
    }

    /// Snapshots currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("time-series ring poisoned").len()
    }

    /// True when no snapshot has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum snapshots held.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// Per-second rate of one counter over a window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSample {
    /// Counter name.
    pub name: String,
    /// Increase over the window.
    pub delta: u64,
    /// Increase per second.
    pub per_sec: f64,
}

/// Windowed histogram summary: quantiles over only the samples recorded
/// *during* the window (bucket-count deltas), not since process start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedHistogram {
    /// Histogram name.
    pub name: String,
    /// Samples recorded during the window.
    pub count: u64,
    /// Interpolated median of the window's samples.
    pub p50: u64,
    /// Interpolated 99th percentile of the window's samples.
    pub p99: u64,
}

/// Derived rates and windowed quantiles between two snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateReport {
    /// Window length in milliseconds.
    pub dt_ms: u64,
    /// Per-counter rates, in the newer snapshot's name order.
    pub rates: Vec<RateSample>,
    /// Per-histogram windowed summaries, in the newer snapshot's order.
    pub windows: Vec<WindowedHistogram>,
}

impl RateReport {
    /// Per-second rate of a counter by name, if present.
    pub fn per_sec(&self, name: &str) -> Option<f64> {
        self.rates
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.per_sec)
    }

    /// Windowed histogram summary by name, if present.
    pub fn window(&self, name: &str) -> Option<&WindowedHistogram> {
        self.windows.iter().find(|w| w.name == name)
    }
}

/// Derive per-second counter rates and windowed histogram quantiles from
/// the deltas between two snapshots. Counters absent from `older` are
/// treated as starting at zero; decreases (a [`Registry::reset`] between
/// samples) saturate to zero rather than reporting negative rates. The
/// window length is floored at 1 ms so a zero/backwards clock cannot
/// divide by zero.
pub fn rates_between(older: &TimedSnapshot, newer: &TimedSnapshot) -> RateReport {
    let dt_ms = newer.t_ms.saturating_sub(older.t_ms).max(1);
    let secs = dt_ms as f64 / 1000.0;
    let rates = newer
        .snap
        .counters
        .iter()
        .map(|c| {
            let before = older.snap.counter(&c.name).unwrap_or(0);
            let delta = c.value.saturating_sub(before);
            RateSample {
                name: c.name.clone(),
                delta,
                per_sec: delta as f64 / secs,
            }
        })
        .collect();
    let windows = newer
        .snap
        .histograms
        .iter()
        .map(|h| {
            let mut counts = [0u64; BUCKETS];
            for &(i, c) in &h.buckets {
                if (i as usize) < BUCKETS {
                    counts[i as usize] = c;
                }
            }
            if let Some(prev) = older.snap.histogram(&h.name) {
                for &(i, c) in &prev.buckets {
                    if (i as usize) < BUCKETS {
                        counts[i as usize] = counts[i as usize].saturating_sub(c);
                    }
                }
            }
            let total: u64 = counts.iter().sum();
            WindowedHistogram {
                name: h.name.clone(),
                count: total,
                p50: quantile_from_counts(&counts, total, 0.5),
                p99: quantile_from_counts(&counts, total, 0.99),
            }
        })
        .collect();
    RateReport {
        dt_ms,
        rates,
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("bytes");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(3);
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("bytes"), Some(24_000));
    }

    #[test]
    fn counter_is_shared_by_name() {
        let reg = Registry::new();
        reg.counter("x").add(5);
        reg.counter("x").add(7);
        assert_eq!(reg.snapshot().counter("x"), Some(12));
        assert_eq!(reg.snapshot().counter("y"), None);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(3), 4);
    }

    #[test]
    fn histogram_summary_statistics() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 115);
        assert!((h.mean() - 23.0).abs() < 1e-12);
        // Bucket placement: the median sample 4 sits alone in [4, 8) and
        // the p99 sample 100 alone in [64, 128).
        let counts = h.bucket_counts();
        assert_eq!((counts[3], bucket_floor(3)), (1, 4));
        assert_eq!((counts[7], bucket_floor(7)), (1, 64));
        // A lone sample in its bucket interpolates to the bucket's upper
        // edge — still within [2^(i-1), 2^i], i.e. within 2× of the true
        // sample in either direction.
        assert_eq!(h.quantile(0.5), 8);
        assert_eq!(h.quantile(0.99), 128);
    }

    #[test]
    fn interpolated_quantile_tracks_in_bucket_rank() {
        // 25 samples each of 4,5,6,7 — all in bucket [4, 8).
        let h = Histogram::new();
        for v in [4u64, 5, 6, 7] {
            for _ in 0..25 {
                h.record(v);
            }
        }
        // target rank 50 of 100 in a 100-sample bucket: 4 + 4*(50/100).
        assert_eq!(h.quantile(0.5), 6);
        // target rank 99: 4 + 4*0.99 = 7.96 → 7.
        assert_eq!(h.quantile(0.99), 7);
        // Every sample shares the one bucket [4, 8).
        assert_eq!(h.bucket_counts()[3], 100);
        assert_eq!(h.nonzero_buckets(), vec![(4, 100)]);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn quantile_edge_cases_empty_and_clamped_q() {
        let h = Histogram::new();
        // Empty: every bucket and every quantile is 0, including the ends.
        assert_eq!(h.bucket_counts(), [0; BUCKETS]);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        // Out-of-range q is clamped to [0, 1], never a panic or garbage.
        h.record(10);
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.5), h.quantile(1.0));
        assert!((8..=16).contains(&h.quantile(-1.0)), "10 lives in [8, 16)");
    }

    #[test]
    fn quantile_single_bucket_stays_inside_it() {
        // All mass in one bucket [8, 16): interpolation walks the
        // bucket but never leaves its closed range.
        let h = Histogram::new();
        for v in 8..16u64 {
            h.record(v);
        }
        assert_eq!(h.nonzero_buckets(), vec![(8, 8)]);
        assert!(h.quantile(0.0) >= 8);
        assert!(h.quantile(0.5) > 8, "mid-bucket rank must move the value");
        assert_eq!(h.quantile(1.0), 16, "closed upper edge of [8, 16)");
    }

    #[test]
    fn quantile_all_mass_in_top_bucket_saturates_safely() {
        // u64::MAX lands in bucket 63 ([2^62, 2^63]); `floor + width`
        // is exactly 2^63, so the interpolated edge must not overflow.
        let h = Histogram::new();
        for _ in 0..4 {
            h.record(u64::MAX);
        }
        assert_eq!(h.nonzero_buckets(), vec![(1u64 << 62, 4)]);
        assert_eq!(h.bucket_counts()[BUCKETS - 1], 4);
        assert_eq!(h.quantile(1.0), 1u64 << 63);
        let mid = h.quantile(0.5);
        assert!((1u64 << 62..=1u64 << 63).contains(&mid));
    }

    #[test]
    fn interpolated_quantile_stays_in_the_bucket_of_its_rank() {
        // Interpolation starts at the floor of the bucket holding the
        // q-th sample and never passes its closed upper edge.
        let h = Histogram::new();
        let mut x = 0x5eedu64;
        for _ in 0..500 {
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ 0x1234;
            h.record(x % 1_000_000);
        }
        let counts = h.bucket_counts();
        for i in 0..=100u32 {
            let q = f64::from(i) / 100.0;
            let target = ((q * 500.0).ceil() as u64).max(1);
            let mut seen = 0;
            let b = (0..BUCKETS)
                .find(|&b| {
                    seen += counts[b];
                    seen >= target
                })
                .unwrap();
            let v = h.quantile(q);
            assert!(
                (bucket_floor(b)..=bucket_floor(b) + bucket_width(b)).contains(&v),
                "q={q}: {v} outside bucket {b}"
            );
        }
    }

    #[test]
    fn reset_clears_values_but_keeps_names() {
        let reg = Registry::new();
        reg.counter("a").add(10);
        reg.histogram("b").record(42);
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), Some(0));
        assert_eq!(snap.histogram("b").unwrap().count, 0);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = Registry::new();
        reg.counter("zeta").inc();
        reg.counter("alpha").inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("test.global.counter").add(1);
        assert!(global().snapshot().counter("test.global.counter").is_some());
    }

    #[test]
    fn time_series_ring_wraps_dropping_oldest() {
        let ring = TimeSeriesRing::new(3);
        assert!(ring.is_empty());
        for t in 0..5u64 {
            ring.push(t, MetricsSnapshot::default());
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        let recent = ring.recent(10);
        let times: Vec<u64> = recent.iter().map(|s| s.t_ms).collect();
        assert_eq!(times, vec![2, 3, 4]);
        assert_eq!(ring.latest().unwrap().t_ms, 4);
        let (older, newer) = ring.last_two().unwrap();
        assert_eq!((older.t_ms, newer.t_ms), (3, 4));
    }

    #[test]
    fn rates_between_derives_per_second_deltas() {
        let reg = Registry::new();
        let c = reg.counter("req");
        let h = reg.histogram("lat");
        c.add(10);
        h.record(1);
        h.record(1);
        let older = TimedSnapshot {
            t_ms: 1_000,
            snap: reg.snapshot(),
        };
        c.add(30);
        for _ in 0..4 {
            h.record(64);
        }
        let newer = TimedSnapshot {
            t_ms: 3_000,
            snap: reg.snapshot(),
        };
        let report = rates_between(&older, &newer);
        assert_eq!(report.dt_ms, 2_000);
        assert_eq!(report.per_sec("req"), Some(15.0));
        // The window sees only the four new samples of 64: quantiles come
        // from bucket deltas, not the cumulative histogram.
        let w = report.window("lat").unwrap();
        assert_eq!(w.count, 4);
        assert_eq!(w.p50, 96); // 64 + 64*(2/4)
        assert_eq!(w.p99, 128);
    }

    #[test]
    fn rates_between_saturates_after_reset() {
        let reg = Registry::new();
        reg.counter("req").add(10);
        let older = TimedSnapshot {
            t_ms: 0,
            snap: reg.snapshot(),
        };
        reg.reset();
        reg.counter("req").add(3);
        let newer = TimedSnapshot {
            t_ms: 1_000,
            snap: reg.snapshot(),
        };
        let report = rates_between(&older, &newer);
        // 3 < 10: a reset happened mid-window; report zero, not negative.
        assert_eq!(report.per_sec("req"), Some(0.0));
    }

    #[test]
    fn rates_between_treats_new_counters_as_zero_based() {
        let reg = Registry::new();
        let older = TimedSnapshot {
            t_ms: 0,
            snap: reg.snapshot(),
        };
        reg.counter("late").add(8);
        let newer = TimedSnapshot {
            t_ms: 4_000,
            snap: reg.snapshot(),
        };
        assert_eq!(rates_between(&older, &newer).per_sec("late"), Some(2.0));
    }

    #[test]
    fn snapshot_serde_roundtrip_preserves_buckets() {
        let reg = Registry::new();
        reg.counter("a").add(7);
        reg.histogram("b").record(100);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.histogram("b").unwrap().buckets, vec![(7, 1)]);
    }
}
