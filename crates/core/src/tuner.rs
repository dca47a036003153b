//! Empirical auto-tuning of the allreduce dispatch table.
//!
//! Section 6.4 of the paper: *"we performed empirical evaluation of
//! different configurations on the four clusters and chose the best
//! configuration for each message size"*. This module automates exactly
//! that — sweep candidate algorithms over a size grid on the modeled
//! cluster, keep the argmin per size, and compress the result into a
//! serializable dispatch table that can be compared against (or replace)
//! the hand-written [`crate::selector::Library::DpmlTuned`] tables.

use crate::algorithms::{Algorithm, FlatAlg};
use crate::run::{execute, RunRequest};
use dpml_fabric::Preset;
use dpml_topology::ClusterSpec;
use serde::{Deserialize, Serialize};

/// One row of a tuned dispatch table: use `algorithm` for messages of at
/// most `max_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TunedEntry {
    /// Upper size bound (inclusive) for this entry.
    pub max_bytes: u64,
    /// The winning algorithm.
    pub algorithm: Algorithm,
    /// Its measured latency at the tuning size, microseconds.
    pub latency_us: f64,
}

/// An empirically tuned dispatch table for one cluster shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TunedTable {
    /// Cluster preset id the table was tuned on.
    pub cluster: String,
    /// Nodes × ppn the table was tuned for.
    pub nodes: u32,
    /// Processes per node.
    pub ppn: u32,
    /// Entries sorted by `max_bytes`; the last entry also covers larger
    /// messages.
    pub entries: Vec<TunedEntry>,
}

impl TunedTable {
    /// The algorithm to use for `bytes`.
    pub fn choose(&self, bytes: u64) -> Algorithm {
        for e in &self.entries {
            if bytes <= e.max_bytes {
                return e.algorithm;
            }
        }
        self.entries.last().expect("non-empty table").algorithm
    }
}

/// The candidate set the paper's tuning sweeps over: every leader count,
/// pipelining for the largest sizes, the classic designs, and SHArP where
/// the fabric supports it.
pub fn default_candidates(preset: &Preset, spec: &ClusterSpec) -> Vec<Algorithm> {
    let mut out = vec![
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::SingleLeader {
            inner: FlatAlg::RecursiveDoubling,
        },
        Algorithm::SingleLeader {
            inner: FlatAlg::Rabenseifner,
        },
    ];
    let mut l = 2u32;
    while l <= spec.ppn.min(16) {
        out.push(Algorithm::Dpml {
            leaders: l,
            inner: FlatAlg::RecursiveDoubling,
        });
        l *= 2;
    }
    let lmax = spec.ppn.clamp(1, 16);
    for k in [4u32, 8] {
        out.push(Algorithm::DpmlPipelined {
            leaders: lmax,
            chunks: k,
        });
    }
    if preset.fabric.has_sharp() && spec.ppn >= 1 {
        out.push(Algorithm::SharpNodeLeader);
        if spec.sockets_per_node > 1 && spec.ppn > 1 {
            out.push(Algorithm::SharpSocketLeader);
        }
    }
    out
}

/// Tune: evaluate every candidate at every size, keep the winner.
pub fn tune(
    preset: &Preset,
    spec: &ClusterSpec,
    sizes: &[u64],
    candidates: &[Algorithm],
) -> TunedTable {
    assert!(!sizes.is_empty() && !candidates.is_empty());
    let mut entries = Vec::with_capacity(sizes.len());
    for &bytes in sizes {
        let mut best: Option<(Algorithm, f64)> = None;
        for &alg in candidates {
            let Ok(rep) = execute(&RunRequest::new(preset, spec, alg, bytes)) else {
                continue; // e.g. leaders > ppn on small shapes
            };
            if best.is_none_or(|(_, b)| rep.latency_us < b) {
                best = Some((alg, rep.latency_us));
            }
        }
        let (algorithm, latency_us) = best.expect("at least one candidate must run");
        entries.push(TunedEntry {
            max_bytes: bytes,
            algorithm,
            latency_us,
        });
    }
    TunedTable {
        cluster: preset.id.to_string(),
        nodes: spec.num_nodes,
        ppn: spec.ppn,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpml_fabric::presets::{cluster_a, cluster_b};

    fn sizes() -> Vec<u64> {
        vec![64, 4 * 1024, 256 * 1024]
    }

    #[test]
    fn tuned_table_is_argmin_of_candidates() {
        let preset = cluster_b();
        let spec = preset.spec(4, 8).unwrap();
        let cands = default_candidates(&preset, &spec);
        let table = tune(&preset, &spec, &sizes(), &cands);
        assert_eq!(table.entries.len(), 3);
        for e in &table.entries {
            for &alg in &cands {
                if let Ok(rep) = execute(&RunRequest::new(&preset, &spec, alg, e.max_bytes)) {
                    assert!(
                        e.latency_us <= rep.latency_us + 1e-9,
                        "{}B: table {} ({:.1}us) worse than {} ({:.1}us)",
                        e.max_bytes,
                        e.algorithm.name(),
                        e.latency_us,
                        alg.name(),
                        rep.latency_us
                    );
                }
            }
        }
    }

    #[test]
    fn choose_picks_by_size_bound() {
        let preset = cluster_b();
        let spec = preset.spec(4, 8).unwrap();
        let table = tune(
            &preset,
            &spec,
            &sizes(),
            &default_candidates(&preset, &spec),
        );
        let small = table.choose(32);
        let big = table.choose(10 << 20); // beyond the grid: last entry
        assert_eq!(small, table.entries[0].algorithm);
        assert_eq!(big, table.entries[2].algorithm);
    }

    #[test]
    fn large_messages_tune_to_multi_leader() {
        let preset = cluster_b();
        let spec = preset.spec(8, 28).unwrap();
        let table = tune(
            &preset,
            &spec,
            &[512 * 1024],
            &default_candidates(&preset, &spec),
        );
        match table.entries[0].algorithm {
            Algorithm::Dpml { leaders, .. } | Algorithm::DpmlPipelined { leaders, .. } => {
                assert!(leaders >= 8, "leaders {leaders}")
            }
            other => panic!("expected DPML to win at 512KB, got {other:?}"),
        }
    }

    #[test]
    fn sharp_wins_small_on_cluster_a() {
        let preset = cluster_a();
        let spec = preset.spec(4, 8).unwrap();
        let table = tune(&preset, &spec, &[64], &default_candidates(&preset, &spec));
        assert!(
            table.entries[0].algorithm.needs_sharp(),
            "{:?}",
            table.entries[0]
        );
    }

    #[test]
    fn serde_round_trip() {
        let preset = cluster_b();
        let spec = preset.spec(2, 4).unwrap();
        let table = tune(&preset, &spec, &[64], &default_candidates(&preset, &spec));
        let json = serde_json::to_string(&table).unwrap();
        let back: TunedTable = serde_json::from_str(&json).unwrap();
        assert_eq!(table, back);
    }
}
