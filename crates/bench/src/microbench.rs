//! The `osu_mbw_mr`-equivalent multi-pair bandwidth microbenchmark
//! (paper Section 3), shared by `fig1` and `ablate_fairness`.

use dpml_core::run::{simulate, RunOpts};
use dpml_engine::program::{BufKey, ByteRange, WorldProgram, BUF_INPUT};
use dpml_engine::{CriticalPath, RunReport};
use dpml_fabric::Preset;
use dpml_topology::{LocalRank, NodeId, RankMap};

/// Where the communicating pairs sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairPlacement {
    /// Both endpoints on one node; sender `i` on socket 0, receiver `i` on
    /// socket 1 of a full-ppn node, so socket locality is identical for
    /// every pair count.
    IntraNode,
    /// Senders on node 0, receivers on node 1 (the `osu_mbw_mr` layout).
    InterNode,
}

/// Simulate the `osu_mbw_mr` schedule: `pairs` concurrent streams each
/// sending a window of `window` messages of `bytes`.
fn run_multi_pair(
    preset: &Preset,
    placement: PairPlacement,
    pairs: u32,
    bytes: u64,
    window: u32,
    trace: bool,
) -> RunReport {
    assert!(pairs >= 1 && window >= 1);
    let cores = preset.sockets_per_node * preset.cores_per_socket;
    let (nodes, ppn) = match placement {
        PairPlacement::IntraNode => (1, cores),
        PairPlacement::InterNode => (2, pairs),
    };
    let spec = preset.spec(nodes, ppn.min(cores)).expect("bench spec");
    let map = RankMap::block(&spec);
    let mut w = WorldProgram::new(map.world_size(), bytes.max(1));
    let half = spec.ppn / 2;
    for i in 0..pairs {
        let (s, d) = match placement {
            PairPlacement::IntraNode => {
                assert!(i < half, "at most ppn/2 intra-node pairs");
                (
                    map.rank_at(NodeId(0), LocalRank(i)),
                    map.rank_at(NodeId(0), LocalRank(half + i)),
                )
            }
            PairPlacement::InterNode => (
                map.rank_at(NodeId(0), LocalRank(i)),
                map.rank_at(NodeId(1), LocalRank(i)),
            ),
        };
        let sp = w.rank(s);
        let reqs: Vec<_> = (0..window)
            .map(|m| sp.isend(d, m, BUF_INPUT, ByteRange::whole(bytes)))
            .collect();
        sp.wait_all(reqs);
        let dp = w.rank(d);
        let reqs: Vec<_> = (0..window)
            .map(|m| dp.irecv(s, m, BufKey::Priv(2)))
            .collect();
        dp.wait_all(reqs);
    }
    simulate(preset, &map, &w, &RunOpts::default(), None, trace).expect("bandwidth program")
}

/// Aggregate throughput (bytes/second) of `pairs` concurrent streams each
/// sending a window of `window` messages of `bytes`.
pub fn multi_pair_bw(
    preset: &Preset,
    placement: PairPlacement,
    pairs: u32,
    bytes: u64,
    window: u32,
) -> f64 {
    let rep = run_multi_pair(preset, placement, pairs, bytes, window, false);
    let total = pairs as u64 * window as u64 * bytes;
    total as f64 / rep.makespan().seconds()
}

/// Traced multi-pair run: the attributed critical path of the Figure 1
/// workload, for Zone A/B/C classification (Section 4.2).
pub fn multi_pair_critical_path(
    preset: &Preset,
    placement: PairPlacement,
    pairs: u32,
    bytes: u64,
    window: u32,
) -> CriticalPath {
    let rep = run_multi_pair(preset, placement, pairs, bytes, window, true);
    let trace = rep.trace.as_ref().expect("traced run carries a trace");
    CriticalPath::from_trace(
        trace,
        rep.makespan().seconds(),
        preset.fabric.nic.per_flow_bw,
    )
}

/// Relative throughput of `pairs` vs a single pair (the paper's Figure 1
/// y-axis).
pub fn relative_throughput(
    preset: &Preset,
    placement: PairPlacement,
    pairs: u32,
    bytes: u64,
    window: u32,
) -> f64 {
    let base = multi_pair_bw(preset, placement, 1, bytes, window);
    multi_pair_bw(preset, placement, pairs, bytes, window) / base
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpml_fabric::presets::{cluster_b, cluster_c};

    #[test]
    fn intra_node_scales_linearly_at_all_sizes() {
        let p = cluster_c();
        for bytes in [64u64, 1 << 20] {
            let rel = relative_throughput(&p, PairPlacement::IntraNode, 8, bytes, 16);
            assert!((7.0..9.0).contains(&rel), "{bytes}B: {rel}");
        }
    }

    #[test]
    fn omni_path_zone_c_is_flat() {
        let p = cluster_c();
        let rel = relative_throughput(&p, PairPlacement::InterNode, 8, 1 << 20, 16);
        assert!(rel < 1.5, "Zone C must not scale: {rel}");
    }

    #[test]
    fn omni_path_zone_a_scales() {
        let p = cluster_c();
        let rel = relative_throughput(&p, PairPlacement::InterNode, 8, 64, 16);
        assert!(rel > 6.0, "Zone A must scale: {rel}");
    }

    #[test]
    fn ib_keeps_scaling_at_large_sizes() {
        let p = cluster_b();
        let rel = relative_throughput(&p, PairPlacement::InterNode, 8, 1 << 20, 16);
        assert!(rel > 3.0, "IB large-message concurrency: {rel}");
    }
}
