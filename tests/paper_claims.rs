//! The paper's headline qualitative claims, asserted against the simulator.
//! Each test names the paper section it reproduces; EXPERIMENTS.md records
//! the quantitative values.

use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::run::{execute, RunRequest};
use dpml::core::selector::Library;
use dpml::fabric::presets::{cluster_a, cluster_b, cluster_c, cluster_d};

fn dpml_l(l: u32) -> Algorithm {
    Algorithm::Dpml {
        leaders: l,
        inner: FlatAlg::RecursiveDoubling,
    }
}

/// Section 6.2: "with 512KB message size, Cluster B shows 4.9x lower
/// latency with 16 leaders compared to single leader per node."
#[test]
fn claim_leader_scaling_cluster_b_512kb() {
    let p = cluster_b();
    let spec = p.default_spec(16).unwrap();
    let t1 = execute(&RunRequest::new(&p, &spec, dpml_l(1), 512 * 1024))
        .unwrap()
        .latency_us;
    let t16 = execute(&RunRequest::new(&p, &spec, dpml_l(16), 512 * 1024))
        .unwrap()
        .latency_us;
    let speedup = t1 / t16;
    assert!(
        (3.0..12.0).contains(&speedup),
        "expected a paper-like (4.9x) speedup, got {speedup:.2}x"
    );
}

/// Section 6.2: "increasing the number of leaders for small messages does
/// not improve performance and sometimes causes slight degradation."
#[test]
fn claim_small_messages_do_not_want_many_leaders() {
    let p = cluster_b();
    let spec = p.default_spec(16).unwrap();
    let t1 = execute(&RunRequest::new(&p, &spec, dpml_l(1), 64))
        .unwrap()
        .latency_us;
    let t16 = execute(&RunRequest::new(&p, &spec, dpml_l(16), 64))
        .unwrap()
        .latency_us;
    assert!(t16 >= t1, "16 leaders should not win at 64B: {t16} vs {t1}");
}

/// Section 6.3 / Fig. 8: SHArP wins for small messages; the host-based
/// design overtakes it by 4KB (at moderate ppn); the socket-level leader
/// beats the node-level leader at full subscription.
#[test]
fn claim_sharp_crossover_and_socket_leader() {
    let p = cluster_a();
    let spec = p.spec(16, 4).unwrap();
    let host = |bytes| {
        execute(&RunRequest::new(
            &p,
            &spec,
            Algorithm::SingleLeader {
                inner: FlatAlg::RecursiveDoubling,
            },
            bytes,
        ))
        .unwrap()
        .latency_us
    };
    let sharp = |bytes| {
        execute(&RunRequest::new(
            &p,
            &spec,
            Algorithm::SharpNodeLeader,
            bytes,
        ))
        .unwrap()
        .latency_us
    };
    assert!(sharp(64) < host(64), "SHArP must win small messages");
    assert!(sharp(4096) > host(4096), "host-based must win at 4KB");

    let full = p.spec(16, 28).unwrap();
    let node = execute(&RunRequest::new(&p, &full, Algorithm::SharpNodeLeader, 256))
        .unwrap()
        .latency_us;
    let socket = execute(&RunRequest::new(
        &p,
        &full,
        Algorithm::SharpSocketLeader,
        256,
    ))
    .unwrap()
    .latency_us;
    assert!(
        socket < node,
        "socket-leader must beat node-leader at 28 ppn"
    );
}

/// Section 6.4 / Fig. 9: the tuned DPML dispatch beats both emulated
/// libraries for medium and large messages on every cluster.
#[test]
fn claim_dpml_beats_libraries_medium_large() {
    for preset in [cluster_b(), cluster_c(), cluster_d()] {
        let spec = preset.default_spec(8).unwrap();
        for bytes in [16 * 1024u64, 512 * 1024] {
            let dpml_alg = Library::DpmlTuned.choose(&preset, &spec, bytes);
            let dpml = execute(&RunRequest::new(&preset, &spec, dpml_alg, bytes))
                .unwrap()
                .latency_us;
            for lib in [Library::Mvapich2, Library::IntelMpi] {
                let alg = lib.choose(&preset, &spec, bytes);
                let other = execute(&RunRequest::new(&preset, &spec, alg, bytes))
                    .unwrap()
                    .latency_us;
                assert!(
                    dpml < other,
                    "cluster {} {}B: DPML {dpml:.1}us !< {} {other:.1}us",
                    preset.id,
                    bytes,
                    lib.name()
                );
            }
        }
    }
}

/// Abstract: "up to 3.5 times performance improvement for MPI_Allreduce".
#[test]
fn claim_overall_speedup_magnitude() {
    let p = cluster_b();
    let spec = p.default_spec(16).unwrap();
    let bytes = 512 * 1024u64;
    let mva = Library::Mvapich2.choose(&p, &spec, bytes);
    let base = execute(&RunRequest::new(&p, &spec, mva, bytes))
        .unwrap()
        .latency_us;
    let tuned = Library::DpmlTuned.choose(&p, &spec, bytes);
    let ours = execute(&RunRequest::new(&p, &spec, tuned, bytes))
        .unwrap()
        .latency_us;
    let speedup = base / ours;
    assert!(
        speedup > 2.0,
        "expected paper-magnitude (3.5x) win, got {speedup:.2}x"
    );
}

/// Section 4.2: DPML-Pipelined helps very large messages on Omni-Path but
/// is not expected to be beneficial on InfiniBand (Section 4.3).
#[test]
fn claim_pipelining_is_fabric_specific() {
    let big = 4 << 20;
    let c = cluster_c();
    let spec = c.default_spec(8).unwrap();
    let plain = execute(&RunRequest::new(
        &c,
        &spec,
        Algorithm::DpmlPipelined {
            leaders: 16,
            chunks: 1,
        },
        big,
    ))
    .unwrap()
    .latency_us;
    let piped = execute(&RunRequest::new(
        &c,
        &spec,
        Algorithm::DpmlPipelined {
            leaders: 16,
            chunks: 8,
        },
        big,
    ))
    .unwrap()
    .latency_us;
    assert!(
        piped < plain,
        "pipelining must help on Omni-Path: {piped} vs {plain}"
    );

    let b = cluster_b();
    let spec = b.default_spec(8).unwrap();
    let plain_ib = execute(&RunRequest::new(
        &b,
        &spec,
        Algorithm::DpmlPipelined {
            leaders: 16,
            chunks: 1,
        },
        big,
    ))
    .unwrap()
    .latency_us;
    let piped_ib = execute(&RunRequest::new(
        &b,
        &spec,
        Algorithm::DpmlPipelined {
            leaders: 16,
            chunks: 8,
        },
        big,
    ))
    .unwrap()
    .latency_us;
    let gain = plain_ib / piped_ib;
    assert!(
        gain < 1.5,
        "no large pipelining win expected on IB, got {gain:.2}x"
    );
}

/// Section 3: hierarchical designs beat flat recursive doubling at full
/// subscription for latency-bound sizes (lg h instead of lg p steps; no
/// intra-node bounce-buffer copies). Already by a few KB the single
/// leader's `ppn - 1` reduction passes erase the advantage — which is
/// DPML's whole motivation — so the claim is asserted at 512B.
#[test]
fn claim_hierarchy_beats_flat_at_full_subscription() {
    let p = cluster_b();
    let spec = p.default_spec(8).unwrap();
    let flat = execute(&RunRequest::new(
        &p,
        &spec,
        Algorithm::RecursiveDoubling,
        512,
    ))
    .unwrap()
    .latency_us;
    let hier = execute(&RunRequest::new(
        &p,
        &spec,
        Algorithm::SingleLeader {
            inner: FlatAlg::RecursiveDoubling,
        },
        512,
    ))
    .unwrap()
    .latency_us;
    assert!(hier < flat, "hierarchy {hier} !< flat {flat}");

    // And at 64KB the single-leader advantage is gone (ties or loses),
    // while DPML with 16 leaders still wins comfortably.
    let flat64 = execute(&RunRequest::new(
        &p,
        &spec,
        Algorithm::RecursiveDoubling,
        65536,
    ))
    .unwrap()
    .latency_us;
    let dpml64 = execute(&RunRequest::new(
        &p,
        &spec,
        Algorithm::Dpml {
            leaders: 16,
            inner: FlatAlg::RecursiveDoubling,
        },
        65536,
    ))
    .unwrap()
    .latency_us;
    assert!(
        dpml64 * 2.0 < flat64,
        "DPML {dpml64} should crush flat {flat64} at 64KB"
    );
}
