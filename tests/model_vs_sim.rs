//! Cross-validation of the analytic cost model (paper Section 5) against
//! the discrete-event simulator: the model ignores contention and queueing,
//! so agreement is expected within a modest factor for compute/bandwidth-
//! dominated configurations, and the *argmin over leader counts* — the
//! decision the model exists to inform — should match.

use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::run::{execute, RunRequest};
use dpml::fabric::presets::cluster_b;
use dpml::model::{best_leader_count, leader_sweep, CostParams};

#[test]
fn model_tracks_simulation_for_medium_large() {
    let p = cluster_b();
    let spec = p.default_spec(16).unwrap();
    for bytes in [16 * 1024u64, 128 * 1024, 1 << 20] {
        for l in [1u32, 4, 16] {
            let sim = execute(&RunRequest::new(
                &p,
                &spec,
                Algorithm::Dpml {
                    leaders: l,
                    inner: FlatAlg::RecursiveDoubling,
                },
                bytes,
            ))
            .unwrap()
            .latency_us;
            let model = CostParams::from_fabric(&p.fabric, &spec, l, bytes, 1).t_allreduce() * 1e6;
            let ratio = sim / model;
            assert!(
                (0.5..3.0).contains(&ratio),
                "{bytes}B l={l}: sim {sim:.1}us vs model {model:.1}us (ratio {ratio:.2})"
            );
        }
    }
}

#[test]
fn model_and_sim_agree_on_best_leader_count_for_large() {
    let p = cluster_b();
    let spec = p.default_spec(16).unwrap();
    for bytes in [128 * 1024u64, 512 * 1024] {
        let cp = CostParams::from_fabric(&p.fabric, &spec, 1, bytes, 1);
        let model_best = best_leader_count(&cp);
        let sim_best = [1u32, 2, 4, 8, 16]
            .into_iter()
            .min_by(|&a, &b| {
                let la = execute(&RunRequest::new(
                    &p,
                    &spec,
                    Algorithm::Dpml {
                        leaders: a,
                        inner: FlatAlg::RecursiveDoubling,
                    },
                    bytes,
                ))
                .unwrap()
                .latency_us;
                let lb = execute(&RunRequest::new(
                    &p,
                    &spec,
                    Algorithm::Dpml {
                        leaders: b,
                        inner: FlatAlg::RecursiveDoubling,
                    },
                    bytes,
                ))
                .unwrap()
                .latency_us;
                la.total_cmp(&lb)
            })
            .unwrap();
        assert_eq!(model_best, sim_best, "{bytes}B");
    }
}

#[test]
fn model_sweep_is_monotone_where_paper_says() {
    // Section 5.3: for n >> 1, increasing l reduces the modeled latency.
    let p = cluster_b();
    let spec = p.default_spec(64).unwrap();
    let cp = CostParams::from_fabric(&p.fabric, &spec, 1, 1 << 20, 1);
    let sweep = leader_sweep(&cp);
    for w in sweep.windows(2) {
        assert!(
            w[1].time < w[0].time,
            "modeled latency must fall with l at 1MB: {:?}",
            sweep
        );
    }
}

#[test]
fn eq1_matches_flat_rd_simulation_loosely() {
    // Eq. (1) uses a single a/b pair; the simulated flat RD at ppn=1
    // (no intra-node complications) should land within a small factor.
    let p = cluster_b();
    let spec = p.spec(16, 1).unwrap();
    let bytes = 64 * 1024u64;
    let sim = execute(&RunRequest::new(
        &p,
        &spec,
        Algorithm::RecursiveDoubling,
        bytes,
    ))
    .unwrap()
    .latency_us;
    let model = CostParams::from_fabric(&p.fabric, &spec, 1, bytes, 1).t_recursive_doubling() * 1e6;
    let ratio = sim / model;
    assert!(
        (0.4..2.5).contains(&ratio),
        "sim {sim:.1} vs Eq.1 {model:.1} ({ratio:.2})"
    );
}
